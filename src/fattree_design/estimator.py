"""Per-port lower-bound estimation of network metrics.

A two-layer non-blocking fabric built from one switch model uses three
switch ports per connected node at full population, so multiplying per-port
characteristics by three times the node count bounds every additive metric
from below. The bound is tight exactly when the node count divides the full
fabric's capacity by a bundle-compatible factor.

Each estimate carries two costs: the exact rational product (the bound the
sweep compares against real designs) and a "quoted" product computed from
per-port figures rounded the way vendors publish them (whole currency units
per port, hundredths of a watt per port).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .catalog import SwitchConfig, per_port_metrics
from .designer import (
    DesignRequest,
    InsufficientRadixError,
    design,
)
from .catalog import Catalog
from .money import Money, round_half_up


@dataclass(frozen=True)
class PerPortEstimate:
    """Lower-bound metrics for a network of ``node_count`` nodes."""

    node_count: int
    total_ports: int  # three switch ports per node
    config: SwitchConfig
    switch_cost: Fraction  # exact, minor units
    cable_count: int
    cable_cost: Money
    power_watts: Fraction
    rack_units: Fraction
    weight_kg: Fraction
    exact: bool
    bundle_factor: int | None
    quoted_switch_cost: Money
    quoted_power_watts: Fraction

    @property
    def est_cost(self) -> Money:
        """Total lower bound in minor units (floored, so it stays a lower bound)."""
        return int(self.switch_cost) + self.cable_cost


def exactness_condition(node_count: int, ports: int) -> int | None:
    """Bundle factor X for which the 3N-port estimate is tight, if any.

    The estimate is exact at full population (X = 1) and whenever the node
    count is the full capacity divided by a non-trivial factor of half the
    port count; inter-layer links then run in bundles of X.
    """
    if ports < 4 or ports % 2:
        raise ValueError("ports must be even and at least 4")
    capacity = ports * ports // 2
    if node_count == capacity:
        return 1
    if node_count <= 0 or capacity % node_count:
        return None
    factor = capacity // node_count
    half = ports // 2
    if 1 < factor < half and half % factor == 0:
        return factor
    return None


def lower_bound_estimate(
    node_count: int,
    config: SwitchConfig,
    avg_cable_cost: Money,
    blade: bool = False,
) -> PerPortEstimate:
    """Estimate network metrics from per-port values, without running the designer.

    Assumes a non-blocking fabric with the same switch model on both layers.
    The cable term counts one cable per node plus one per two uplink ports
    (skipping node cables for blades), which matches the real design's cable
    count at every exact point.
    """
    if node_count < 1:
        raise ValueError("node_count must be positive")
    capacity = config.ports * config.ports // 2
    if node_count > capacity:
        raise InsufficientRadixError(node_count, capacity)
    metrics = per_port_metrics(config)
    total_ports = 3 * node_count
    cables = node_count if blade else 2 * node_count
    factor = exactness_condition(node_count, config.ports)
    quoted_cost_per_port = round_half_up(metrics.cost_per_port, Fraction(100))
    quoted_power_per_port = round_half_up(metrics.power_per_port, Fraction(1, 100))
    return PerPortEstimate(
        node_count=node_count,
        total_ports=total_ports,
        config=config,
        switch_cost=total_ports * metrics.cost_per_port,
        cable_count=cables,
        cable_cost=cables * avg_cable_cost,
        power_watts=total_ports * metrics.power_per_port,
        rack_units=total_ports * metrics.rack_units_per_port,
        weight_kg=total_ports * metrics.weight_per_port,
        exact=factor is not None,
        bundle_factor=factor,
        quoted_switch_cost=int(total_ports * quoted_cost_per_port),
        quoted_power_watts=total_ports * quoted_power_per_port,
    )


@dataclass(frozen=True)
class SweepPoint:
    node_count: int
    estimate_cost: Money
    actual_cost: Money
    exact: bool

    @property
    def gap(self) -> Fraction:
        """Relative shortfall of the estimate: (actual - estimate) / actual."""
        if self.actual_cost == 0:
            return Fraction(0)
        return Fraction(self.actual_cost - self.estimate_cost, self.actual_cost)


def single_model_catalog(config: SwitchConfig, currency: str = "USD") -> Catalog:
    """Catalog exposing one configuration as both the edge and core candidate."""
    both = replace(config, roles=frozenset({"edge", "core"}))
    return Catalog(edge_set=(both,), core_set=(both,), currency=currency)


def sweep_lower_bound(
    config: SwitchConfig,
    first: int,
    last: int,
    avg_cable_cost: Money,
    blade: bool = False,
) -> list[SweepPoint]:
    """Estimate vs. designed cost for every node count in [first, last]."""
    if first < 2 or last < first:
        raise ValueError("sweep range must satisfy 2 <= first <= last")
    catalog = single_model_catalog(config)
    points = []
    for nodes in range(first, last + 1):
        request = DesignRequest(node_count=nodes, avg_cable_cost=avg_cable_cost)
        actual = design(request, catalog).winner.metrics.cost
        estimate = lower_bound_estimate(nodes, config, avg_cable_cost, blade=blade)
        points.append(
            SweepPoint(
                node_count=nodes,
                estimate_cost=estimate.est_cost,
                actual_cost=actual,
                exact=estimate.exact,
            )
        )
    return points


def median_gap(points: list[SweepPoint]) -> Fraction:
    """Median relative gap across sweep points (even counts average the middle pair)."""
    if not points:
        raise ValueError("no sweep points")
    gaps = sorted(point.gap for point in points)
    mid = len(gaps) // 2
    if len(gaps) % 2:
        return gaps[mid]
    return (gaps[mid - 1] + gaps[mid]) / 2
