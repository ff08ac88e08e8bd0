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

from dataclasses import dataclass
from fractions import Fraction

from .catalog import SwitchConfig, per_port_metrics
from .designer import (
    DesignRequest,
    InsufficientRadixError,
    SearchPlan,
)
from .catalog import Catalog
from .money import Money, check_money, check_number, round_half_up


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
        return _cost_floor(self.total_ports, self.config, self.cable_cost)


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
    count at every exact point. An odd or sub-4 port count has no exact point.
    """
    check_number("node_count", node_count)
    if node_count < 1:
        raise ValueError("node_count must be positive")
    check_money("avg_cable_cost", avg_cable_cost)
    # an edge switch gives nodes half its ports, rounded down, and a core switch reaches one edge switch per port
    capacity = config.ports * (config.ports // 2)
    if node_count > capacity:
        raise InsufficientRadixError(node_count, capacity)
    metrics = per_port_metrics(config)
    total_ports, cables, cable_cost = _ports_and_cables(node_count, avg_cable_cost, blade)
    factor = _bundle_factor(node_count, config.ports)
    return PerPortEstimate(
        node_count=node_count,
        total_ports=total_ports,
        config=config,
        switch_cost=total_ports * metrics.cost_per_port,
        cable_count=cables,
        cable_cost=cable_cost,
        power_watts=total_ports * metrics.power_per_port,
        rack_units=total_ports * metrics.rack_units_per_port,
        weight_kg=total_ports * metrics.weight_per_port,
        exact=factor is not None,
        bundle_factor=factor,
        quoted_switch_cost=int(total_ports * round_half_up(metrics.cost_per_port, Fraction(100))),
        quoted_power_watts=total_ports * round_half_up(metrics.power_per_port, Fraction(1, 100)),
    )


def _ports_and_cables(node_count: int, avg_cable_cost: Money, blade: bool) -> tuple[int, int, Money]:
    """The estimate's switch ports, cables and cables' cost: three ports and, blades aside, two cables per node."""
    cables = node_count if blade else 2 * node_count
    return 3 * node_count, cables, cables * avg_cable_cost


def _cost_floor(total_ports: int, config: SwitchConfig, cable_cost: Money) -> Money:
    """Minor units of total_ports' share of the switch cost, floored so it stays a lower bound, plus cable_cost."""
    return total_ports * config.cost // config.ports + cable_cost


def _bundle_factor(node_count: int, ports: int) -> int | None:
    """exactness_condition(), or None for an odd or sub-4 port count, which has no exact point."""
    return exactness_condition(node_count, ports) if ports >= 4 and ports % 2 == 0 else None


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


def single_model_catalog(config: SwitchConfig) -> Catalog:
    """Catalog exposing one configuration as both the edge and core candidate."""
    return Catalog(edge_set=(config,), core_set=(config,))


def sweep_lower_bound(config: SwitchConfig, first: int, last: int, avg_cable_cost: Money) -> list[SweepPoint]:
    """Estimate vs. designed cost for every node count in [first, last].

    The designed cost is design()'s winning cost, from one search plan
    whose winner() is asked for each node count. The estimate's cost and
    exactness come from the integer rules that lower_bound_estimate() uses.
    """
    check_number("first", first)
    check_number("last", last)
    if first < 2 or last < first:
        raise ValueError("sweep range must satisfy 2 <= first <= last")
    request = DesignRequest(node_count=first, avg_cable_cost=avg_cable_cost)
    plan = SearchPlan(request, single_model_catalog(config))
    points = []
    for nodes in range(first, last + 1):
        # past the switch's reach, which is the estimate's capacity, the ranking raises what the estimate would
        actual_cost = plan.winner(nodes).objective
        total_ports, _, cable_cost = _ports_and_cables(nodes, avg_cable_cost, False)
        exact = _bundle_factor(nodes, config.ports) is not None
        points.append(SweepPoint(nodes, _cost_floor(total_ports, config, cable_cost), actual_cost, exact))
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
