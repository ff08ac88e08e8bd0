import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fattree_design.designer import DesignRequest, InsufficientRadixError, design
from fattree_design.estimator import (
    exactness_condition,
    lower_bound_estimate,
    median_gap,
    single_model_catalog,
    sweep_lower_bound,
)

from conftest import make_switch


@pytest.mark.parametrize(
    "nodes,expected",
    [(648, 1), (324, 2), (216, 3), (108, 6), (72, 9), (60, None), (100, None), (36, None)],
)
def test_exactness_condition(nodes, expected):
    assert exactness_condition(nodes, 36) == expected


def test_exactness_condition_matches_enumeration():
    # oracle: X is valid iff N*X recovers the full capacity and X is either 1
    # or a proper non-trivial divisor of half the port count
    ports = 36
    capacity = ports * ports // 2
    half = ports // 2
    for nodes in range(1, capacity + 1):
        expected = None
        for factor in range(1, half):
            if nodes * factor == capacity and (factor == 1 or half % factor == 0):
                expected = factor
                break
        assert exactness_condition(nodes, ports) == expected, nodes


def test_exactness_condition_validates_ports():
    with pytest.raises(ValueError):
        exactness_condition(10, 35)
    with pytest.raises(ValueError):
        exactness_condition(1, 2)


@pytest.mark.parametrize("ports, nodes", [(25, 100), (25, 300), (3, 3)])
def test_estimate_on_odd_ports_is_not_exact(ports, nodes):
    # exactness_condition rejects such a switch; the estimate reports it as never exact
    estimate = lower_bound_estimate(nodes, make_switch(ports, 500_000), 8000)
    assert (estimate.exact, estimate.bundle_factor) == (False, None)
    assert estimate.total_ports == 3 * nodes


@pytest.mark.parametrize("ports, reach", [(25, 300), (3, 3), (36, 648)])
def test_estimate_stops_at_the_design_reach(ports, reach):
    # a switch keeps ports // 2 ports per edge switch for nodes, for at most ports edge switches
    switch = make_switch(ports, 500_000)
    assert lower_bound_estimate(reach, switch, 8000).node_count == reach
    with pytest.raises(InsufficientRadixError, match=f"at most {reach}$"):
        lower_bound_estimate(reach + 1, switch, 8000)


def test_estimate_full_population(ft36):
    estimate = lower_bound_estimate(648, ft36, 8000)
    assert estimate.total_ports == 1944
    assert estimate.rack_units == 54
    assert estimate.exact and estimate.bundle_factor == 1
    assert estimate.switch_cost == Fraction(59_400_000)  # exact $594,000
    assert estimate.quoted_switch_cost == 59_486_400  # $306/port quote
    assert estimate.quoted_power_watts == Fraction(820_368, 100)  # 4.22 W/port quote
    assert estimate.power_watts == Fraction(8208)
    assert estimate.cable_count == 1296


def test_estimate_blade_skips_node_cables(ft36):
    estimate = lower_bound_estimate(72, ft36, 8000, blade=True)
    assert estimate.cable_count == 72


def test_estimate_rejects_oversized_cluster(ft36):
    with pytest.raises(InsufficientRadixError):
        lower_bound_estimate(649, ft36, 8000)


def test_estimate_matches_design_at_exact_points(ft36, ft36_catalog):
    for nodes in (72, 108):
        estimate = lower_bound_estimate(nodes, ft36, 8000)
        actual = design(DesignRequest(node_count=nodes), ft36_catalog).winner
        assert estimate.exact
        assert estimate.est_cost == actual.metrics.cost
        assert estimate.cable_count == actual.cable_count


def test_estimate_below_design_elsewhere(ft36, ft36_catalog):
    estimate = lower_bound_estimate(100, ft36, 8000)
    actual = design(DesignRequest(node_count=100), ft36_catalog).winner
    assert not estimate.exact
    assert estimate.est_cost < actual.metrics.cost


def test_sweep_points_and_median(ft36):
    points = sweep_lower_bound(ft36, 70, 74, 8000)
    assert [p.node_count for p in points] == [70, 71, 72, 73, 74]
    by_nodes = {p.node_count: p for p in points}
    assert by_nodes[72].exact and by_nodes[72].gap == 0
    assert all(p.estimate_cost <= p.actual_cost for p in points)
    assert Fraction(0) <= median_gap(points) < Fraction(1)
    with pytest.raises(ValueError):
        sweep_lower_bound(ft36, 1, 0, 8000)
    with pytest.raises(ValueError):
        median_gap([])


@pytest.mark.parametrize("node_count, message", [
    (10.5, "node_count must be an integer, got 10.5"),
    (True, "node_count must be an integer, got True"),
    (0, "node_count must be positive"),
    (-3, "node_count must be positive"),
])
def test_estimate_takes_only_a_positive_integer_node_count(ft36, node_count, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        lower_bound_estimate(node_count, ft36, 8000)


@pytest.mark.parametrize("first, last, message", [
    (2, 5.5, "last must be an integer, got 5.5"),
    (2.0, 5, "first must be an integer, got 2.0"),
    (True, 5, "first must be an integer, got True"),
    (2, False, "last must be an integer, got False"),
    (1, 5, "sweep range must satisfy 2 <= first <= last"),
    (5, 4, "sweep range must satisfy 2 <= first <= last"),
])
def test_sweep_takes_only_an_integer_range(ft36, first, last, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        sweep_lower_bound(ft36, first, last, 8000)


def test_full_population_switch_counts(ft36_catalog):
    # at maximum capacity every port is in use: three per node, with as many
    # edge switches as ports and half as many core switches
    full = design(DesignRequest(node_count=648), ft36_catalog).winner
    assert full.edge_count == 36
    assert full.core_count == 18
    assert full.switch_count * 36 == 3 * 648


def test_single_model_catalog_has_both_roles(ft36):
    catalog = single_model_catalog(ft36)
    assert catalog.edge_set == catalog.core_set == (ft36,)


FT36 = make_switch(36, 1_100_000, source_id="ft36", power=152, rack_units=1, weight=8.2)


@st.composite
def switches_and_node_counts(draw):
    """A random switch and a node count above its star range, up to its reach; one in two is an exact point."""
    ports = draw(st.integers(4, 36))
    switch = make_switch(
        ports,
        draw(st.integers(0, 3_000_000)),
        power=draw(st.integers(0, 3000)) / 10,  # one decimal, like catalog figures, so float sums can round
        rack_units=draw(st.integers(1, 4)),
        weight=draw(st.integers(0, 300)) / 10,
    )
    capacity, half = ports * (ports // 2), ports // 2
    exact = [capacity // factor for factor in range(1, half) if factor == 1 or half % factor == 0]
    if ports % 2 == 0 and draw(st.booleans()):
        return switch, draw(st.sampled_from(exact))
    return switch, draw(st.integers(ports + 1, capacity))


@settings(max_examples=150, deadline=None)
@example((FT36, 162), 8000)  # capacity / 4, but 4 does not divide half the ports: not exact
@example((FT36, 216), 8000)  # capacity / 3: exact
@given(switches_and_node_counts(), st.sampled_from((0, 8000, 40000)))
def test_estimate_bounds_the_design_above_the_star_range(case, cable_cost):
    """For ports < N <= reach, 3N x per-port metrics is at most the design's; at an exact point it equals it.

    Compared as exact numbers: the design's float metrics can read one ulp low.
    """
    switch, nodes = case
    estimate = lower_bound_estimate(nodes, switch, cable_cost)
    winner = design(DesignRequest(node_count=nodes, avg_cable_cost=cable_cost), single_model_catalog(switch)).winner
    switches = winner.switch_count
    designed = (
        winner.metrics.cost,
        switches * Fraction(switch.power),
        switches * switch.rack_units,
        switches * Fraction(switch.weight),
    )
    estimated = (estimate.est_cost, estimate.power_watts, estimate.rack_units, estimate.weight_kg)
    assert all(low <= high for low, high in zip(estimated, designed)), (estimated, designed)
    if estimate.exact:
        assert estimated == designed
        assert estimate.cable_count == winner.cable_count


@st.composite
def switches_and_ranges(draw):
    """A random switch, odd port counts included, and a short node-count range within its reach."""
    ports = draw(st.integers(3, 36))
    switch = make_switch(ports, draw(st.integers(0, 3_000_000)))
    reach = ports * (ports // 2)
    first = draw(st.integers(2, reach))
    return switch, first, draw(st.integers(first, min(reach, first + 12)))


@settings(max_examples=100, deadline=None)
@example((FT36, 214, 218), 8000)  # 216 is an exact point
@example((make_switch(25, 500_000), 96, 100), 8000)  # odd ports: never exact
@given(switches_and_ranges(), st.sampled_from((0, 1, 8000, 40000)))
def test_sweep_estimate_matches_the_estimate(case, cable_cost):
    """Each sweep point's estimate is lower_bound_estimate()'s, whose cost is its switch cost floored plus cables."""
    switch, first, last = case
    points = sweep_lower_bound(switch, first, last, cable_cost)
    assert [point.node_count for point in points] == list(range(first, last + 1))
    for point in points:
        estimate = lower_bound_estimate(point.node_count, switch, cable_cost)
        assert (point.estimate_cost, point.exact) == (estimate.est_cost, estimate.exact)
        assert estimate.est_cost == math.floor(estimate.switch_cost) + estimate.cable_cost
