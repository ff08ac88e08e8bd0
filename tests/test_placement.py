import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fattree_design import placement
from fattree_design.catalog import Catalog
from fattree_design.designer import (
    BladeFormFactor,
    DesignError,
    DesignRequest,
    SearchPlan,
    design,
    fewest_uplinks,
    node_distribution,
)
from fattree_design.estimator import single_model_catalog
from fattree_design.placement import (
    MAX_RACK_POSITIONS,
    NodeSpec,
    PlacementError,
    RoomSpec,
    expansion_audit,
    expansion_plan,
    fit_max_nodes,
    plan_racks,
)

from conftest import make_switch


def winner_for(nodes, catalog, blocking=Fraction(1)):
    return design(DesignRequest(node_count=nodes, blocking_factor=blocking), catalog).winner


def layout_nodes(layout):
    return sum(item.node_count for rack in layout.racks for item in rack.items)


def layout_switches(layout):
    return sum(
        1
        for rack in layout.racks
        for item in rack.items
        if item.kind in ("core_switch", "edge_switch")
    )


def assert_budgets(layout, room):
    for rack in layout.racks:
        assert rack.used_units <= room.rack_units_per_rack
        if room.rack_weight_budget is not None:
            assert rack.used_weight <= room.rack_weight_budget + 1e-9
        if room.rack_power_budget is not None:
            assert rack.used_power <= room.rack_power_budget + 1e-9


def block_totals(layout, attribute):
    """Each building block's total of an item attribute, in block order."""
    totals = {}
    for rack in layout.racks:
        for item in rack.items:
            if item.block_id is not None:
                totals[item.block_id] = totals.get(item.block_id, 0) + getattr(item, attribute)
    return [totals[block_id] for block_id in sorted(totals)]


def test_building_blocks_last_one_underfilled(ft36_catalog):
    layout = plan_racks(winner_for(60, ft36_catalog), RoomSpec(rows=1, racks_per_row=4))
    assert block_totals(layout, "node_count") == [18, 18, 18, 6]
    assert block_totals(layout, "rack_units") == [19, 19, 19, 7]
    block_01 = [(item.kind, item.label) for item in layout.racks[0].items if item.block_id == "block-01"]
    assert block_01 == [("edge_switch", "block-01 switch (ft36)"), ("node_block", "block-01 nodes x18")]


def test_two_blocks_per_rack_then_spread(ft36_catalog):
    # 19U blocks pack two per 42U rack; after five racks the accumulated 20U
    # of slack absorbs the eleventh block
    catalog = single_model_catalog(make_switch(36, 1_100_000, source_id="ft36"))
    target = winner_for(198, catalog)  # 11 full blocks of 18 nodes
    assert target.edge_count == 11
    room = RoomSpec(rows=1, racks_per_row=8)
    dense = plan_racks(target, room, NodeSpec(), dense=True, core_placement="distributed")
    assert dense.racks_used == 6  # cores share racks; block space totals five racks
    relaxed = plan_racks(target, room, NodeSpec(), dense=False, core_placement="distributed")
    assert dense.racks_used <= relaxed.racks_used
    assert_budgets(dense, room)


def test_plain_block_spread_example():
    # the pure packing picture: eleven 19U blocks (the core layer is given a
    # zero footprint so only block packing drives the rack count)
    from fattree_design.catalog import Catalog

    edge = make_switch(36, 100, source_id="e")
    core = make_switch(36, 100, source_id="c", rack_units=0)
    target = winner_for(198, Catalog(edge_set=(edge,), core_set=(core,)))
    room = RoomSpec(rows=1, racks_per_row=8)
    dense = plan_racks(target, room, NodeSpec(), dense=True)
    assert dense.racks_used == 5
    assert len(dense.spread_blocks) == 1
    relaxed = plan_racks(target, room, NodeSpec(), dense=False)
    assert block_totals(relaxed, "rack_units") == [19] * 11
    assert relaxed.racks_used == 6
    assert relaxed.spread_blocks == ()


def test_dense_reference_scenario(ft36_catalog):
    target = winner_for(396, ft36_catalog)
    assert target.edge_count == 22 and target.core_count == 18
    room = RoomSpec(rows=2, racks_per_row=7)
    layout = plan_racks(
        target, room, NodeSpec(), dense=True, core_placement="center", reserve=(14,)
    )
    assert len(layout.spread_blocks) == 3
    assert layout.racks_used == 11
    assert layout_nodes(layout) == 396
    assert layout_switches(layout) == 40
    assert_budgets(layout, room)


def test_spread_blocks_keep_their_switch_whole(ft36_catalog):
    target = winner_for(396, ft36_catalog)
    room = RoomSpec(rows=2, racks_per_row=7)
    layout = plan_racks(
        target, room, NodeSpec(), dense=True, core_placement="center", reserve=(14,)
    )
    for block_id in layout.spread_blocks:
        switches = [
            item
            for rack in layout.racks
            for item in rack.items
            if item.block_id == block_id and item.kind == "edge_switch"
        ]
        assert len(switches) == 1
        racks_touched = {
            rack.index
            for rack in layout.racks
            for item in rack.items
            if item.block_id == block_id
        }
        assert len(racks_touched) > 1


@pytest.mark.parametrize("budget", ["rack_weight_budget", "rack_power_budget"])
def test_spread_blocks_stay_within_rack_budgets(budget):
    # a spread block's switch takes its share of a rack's budget before that rack's nodes do
    from fattree_design.catalog import Catalog

    edge = make_switch(36, 100, source_id="e", weight=30.0, power=30.0)
    core = make_switch(36, 100, source_id="c", rack_units=0)
    target = winner_for(198, Catalog(edge_set=(edge,), core_set=(core,)))
    node = NodeSpec(rack_units=1, weight=10.0, power=10.0)
    room = RoomSpec(rows=1, racks_per_row=12, **{budget: 330.0})
    layout = plan_racks(target, room, node, dense=True)
    assert (layout.racks_used, len(layout.spread_blocks)) == (7, 4)
    used = [rack.used_weight if budget == "rack_weight_budget" else rack.used_power for rack in layout.racks]
    assert max(used) == 330.0


WRAP_RESERVE = (22, 22) + (33,) * 8  # racks 0 and 1 keep 20U, racks 2-9 9U, racks 10 and 11 stay empty


@pytest.mark.parametrize(
    "policy, nodes, rows, reserve, expected",
    [
        # from the first rack on; rack 0 keeps 2U after the reserves, rack 1 17U
        ("first_racks_contiguous", 96, 2, (40, 25), [1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4]),
        # the middle column is racks 1 and 6: rack 1 takes one core, rack 6 the
        # next four, then the first racks with room take the rest
        ("center", 96, 2, (40, 25), [1, 6, 6, 6, 6, 2, 2, 2, 2, 3, 3, 3]),
        # round robin over every rack, skipping rack 0 and wrapping after rack 7
        ("distributed", 96, 2, (40, 25), [1, 2, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6]),
        # the middle column is racks 1, 6 and 9; with 6 and 9 full, the scan
        # from the cursor wraps round to rack 1 before it falls back to rack 0
        ("center", 48, 3, WRAP_RESERVE, [1, 1, 0, 0, 10, 10]),
    ],
)
def test_core_switch_racks_per_policy(policy, nodes, rows, reserve, expected):
    from fattree_design.catalog import Catalog

    edge = make_switch(24, 100, source_id="e24")
    core = make_switch(8, 100, source_id="c8", rack_units=10)
    target = winner_for(nodes, Catalog(edge_set=(edge,), core_set=(core,)))
    assert (target.edge_count, target.core_count) == (nodes // 12, len(expected))
    room = RoomSpec(rows=rows, racks_per_row=4)
    layout = plan_racks(target, room, NodeSpec(), dense=True, core_placement=policy, reserve=reserve)
    cores = {item.label: rack.index for rack in layout.racks for item in rack.items if item.kind == "core_switch"}
    assert [cores[f"core-{i + 1:02d} (c8)"] for i in range(len(expected))] == expected
    assert layout_nodes(layout) == nodes


def test_block_that_fills_the_weight_budget_exactly_fits():
    # a 10 kg switch and 18 nodes of 5 kg weigh 100 kg: one block per 100 kg rack
    from fattree_design.catalog import Catalog

    edge = make_switch(36, 100, source_id="e", weight=10.0)
    core = make_switch(36, 100, source_id="c", rack_units=0)
    target = winner_for(54, Catalog(edge_set=(edge,), core_set=(core,)))
    room = RoomSpec(rows=1, racks_per_row=3, rack_weight_budget=100.0)
    layout = plan_racks(target, room, NodeSpec(weight=5.0))
    assert [rack.used_weight for rack in layout.racks] == [100.0, 100.0, 100.0]


@pytest.mark.parametrize("nodes", [20, 60])  # the demo catalog's star and fat-tree winners
def test_unknown_core_placement_rejected(nodes):
    from fattree_design.catalog import bundled_catalog_path, load_catalog_file

    target = winner_for(nodes, load_catalog_file(bundled_catalog_path("demo_catalog")))
    assert target.kind == ("star" if nodes == 20 else "fat_tree")
    with pytest.raises(ValueError, match="^unknown core placement policy: 'bogus'$"):
        plan_racks(target, RoomSpec(rows=1, racks_per_row=2), core_placement="bogus")


def test_non_dense_uses_twelve_racks(ft36_catalog):
    target = winner_for(396, ft36_catalog)
    room = RoomSpec(rows=2, racks_per_row=7)
    layout = plan_racks(target, room, NodeSpec(), dense=False)
    assert layout.racks_used == 12
    assert layout.spread_blocks == ()
    assert_budgets(layout, room)


def test_serpentine_rack_order(ft36_catalog):
    target = winner_for(396, ft36_catalog)
    room = RoomSpec(rows=2, racks_per_row=7)
    layout = plan_racks(target, room, NodeSpec(), dense=False)
    coords = [(rack.row, rack.position) for rack in layout.racks]
    expected = [(0, c) for c in range(7)] + [(1, c) for c in range(6, -1, -1)]
    assert coords == expected[: len(coords)]


def test_power_budget_limits_nodes_per_rack(ft36_catalog):
    target = winner_for(60, ft36_catalog)
    room = RoomSpec(rows=1, racks_per_row=12, rack_power_budget=5000.0)
    node_spec = NodeSpec(power=500.0)
    layout = plan_racks(target, room, node_spec, dense=True)
    assert layout_nodes(layout) == 60
    assert_budgets(layout, room)
    # 500W nodes against a 5kW budget: never more than ten nodes in a rack
    for rack in layout.racks:
        assert sum(i.node_count for i in rack.items) <= 10


def test_room_capacity_error_reports_deficit(ft36_catalog):
    target = winner_for(396, ft36_catalog)
    room = RoomSpec(rows=1, racks_per_row=4)
    with pytest.raises(PlacementError, match="U"):
        plan_racks(target, room, NodeSpec())


def test_room_capacity_error_reports_every_deficit(ft36):
    # 4 blocks (18, 18, 18, 6 nodes) plus 2 cores; the 4U reserve counts
    # toward units only
    target = winner_for(60, single_model_catalog(ft36))
    room = RoomSpec(rows=1, racks_per_row=1, rack_weight_budget=500.0, rack_power_budget=10_000.0)
    node_spec = NodeSpec(weight=10.0, power=200.0)
    with pytest.raises(PlacementError) as info:
        plan_racks(target, room, node_spec, reserve=(4,))
    assert str(info.value) == "equipment exceeds room capacity by 28U, 149.2kg, 2912W"


def test_oversized_block_rejected_when_not_dense(ft36_catalog):
    target = winner_for(60, ft36_catalog)
    room = RoomSpec(rows=1, racks_per_row=8)
    tall = NodeSpec(rack_units=3)  # 18 nodes x 3U + 1U switch = 55U blocks
    with pytest.raises(PlacementError) as info:
        plan_racks(target, room, tall)
    assert str(info.value) == "block-01 (55U) is larger than a 42U rack"
    assert layout_nodes(plan_racks(target, room, tall, dense=True)) == 60
    with pytest.raises(PlacementError, match="exceeds room capacity"):
        plan_racks(target, RoomSpec(rows=1, racks_per_row=2), tall)


def test_node_spec_is_the_designer_form_factor():
    import fattree_design
    from fattree_design import designer, placement

    assert placement.NodeSpec is designer.NodeSpec is fattree_design.NodeSpec
    assert designer.DesignRequest(node_count=2).form_factor == placement.NodeSpec(rack_units=1, weight=0.0, power=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: NodeSpec(rack_units=0),
        lambda: NodeSpec(weight=-1.0),
        lambda: NodeSpec(power=-0.5),
        lambda: RoomSpec(rows=0, racks_per_row=4),
        lambda: RoomSpec(rows=1, racks_per_row=0),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_units_per_rack=0),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_weight_budget=-5.0),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_power_budget=-0.5),
        lambda: NodeSpec(weight=float("nan")),
        lambda: NodeSpec(power=float("inf")),
        lambda: NodeSpec(weight=float("-inf")),
        lambda: NodeSpec(rack_units=float("nan")),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_weight_budget=float("nan")),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_power_budget=float("inf")),
        lambda: RoomSpec(rows=float("inf"), racks_per_row=4),
        lambda: RoomSpec(rows=1, racks_per_row=4, rack_units_per_rack=float("nan")),
        lambda: RoomSpec(rows=300, racks_per_row=300),
        lambda: RoomSpec(rows=101, racks_per_row=100),
        lambda: RoomSpec(rows=1, racks_per_row=10**8),
    ],
)
def test_footprint_and_room_reject_out_of_range_values(build):
    with pytest.raises(ValueError, match="must"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NodeSpec(rack_units=1.5), "node rack_units must be an integer, got 1.5"),
        (lambda: NodeSpec(rack_units=True), "node rack_units must be an integer, got True"),
        (lambda: RoomSpec(rows=1.5, racks_per_row=3), "room rows must be an integer, got 1.5"),
        (lambda: RoomSpec(rows=1, racks_per_row="3"), "room racks_per_row must be an integer, got '3'"),
        (lambda: RoomSpec(rows=1, racks_per_row=3, rack_units_per_rack=42.0),
         "room rack_units_per_rack must be an integer, got 42.0"),
        # weights, powers and budgets are numbers, and a bool is not one
        (lambda: NodeSpec(weight="x"), "node weight must be a number, got 'x'"),
        (lambda: NodeSpec(weight=None), "node weight must be a number, got None"),
        (lambda: NodeSpec(power=True), "node power must be a number, got True"),
        (lambda: RoomSpec(1, 1, rack_weight_budget="x"), "room rack_weight_budget must be a number, got 'x'"),
        (lambda: RoomSpec(1, 1, rack_power_budget=True), "room rack_power_budget must be a number, got True"),
        # with several faults, the finiteness pass comes first and the rack-count bound before the budgets
        (lambda: NodeSpec(rack_units=0, weight=float("nan")), "node weight must be a finite number, got nan"),
        (lambda: NodeSpec(rack_units=float("nan")), "node rack_units must be a finite number, got nan"),
        (lambda: RoomSpec(rows=300, racks_per_row=300, rack_weight_budget=-5),
         "room rows x racks_per_row must be at most 10000 rack positions, got 90000"),
        (lambda: RoomSpec(rows=0, racks_per_row=1, rack_power_budget=float("inf")),
         "room rack_power_budget must be a finite number, got inf"),
    ],
)
def test_footprint_and_room_counts_are_integers(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_footprint_and_room_take_whole_numbers():
    assert NodeSpec(weight=30, power=400).weight == 30
    assert RoomSpec(1, 1, rack_weight_budget=900, rack_power_budget=0).rack_weight_budget == 900


def test_room_of_the_largest_size_is_accepted():
    assert RoomSpec(rows=100, racks_per_row=100).rack_count == MAX_RACK_POSITIONS


def test_oversized_indivisible_item_rejected(ft36_catalog):
    target = winner_for(60, ft36_catalog)
    room = RoomSpec(rows=1, racks_per_row=10)
    with pytest.raises(PlacementError, match="larger than a 42U rack"):
        plan_racks(target, room, NodeSpec(), reserve=(45,))


@pytest.mark.parametrize("reserve", [(-3,), (0,), (4, -1), (1.5,), (True,), ("2",)])
def test_reserves_below_one_unit_rejected(ft36_catalog, reserve):
    target = winner_for(60, ft36_catalog)
    with pytest.raises(ValueError, match="reserved space must be (at least 1U|an integer)"):
        plan_racks(target, RoomSpec(rows=1, racks_per_row=4), NodeSpec(), reserve=reserve)


@pytest.mark.parametrize("node_spec", [BladeFormFactor(16, 0, "ft36"), None, 1])
def test_placement_entry_points_take_only_a_node_spec(ft36_catalog, node_spec):
    """A blade form factor, which a DesignRequest takes, or no node at all is one ValueError at every entry point."""
    target = winner_for(60, ft36_catalog)
    calls = (
        lambda: plan_racks(target, RoomSpec(rows=1, racks_per_row=4), node_spec),
        lambda: fit_max_nodes(84, ft36_catalog, Fraction(1), node_spec),
        lambda: expansion_plan(84, 168, ft36_catalog, Fraction(1), node_spec),
        lambda: expansion_audit(target, 20, node_spec),
    )
    for call in calls:
        with pytest.raises(ValueError, match="node_spec must be a NodeSpec"):
            call()


def test_direct_connect_designs_are_not_placeable(ft36_catalog):
    from fattree_design.catalog import Catalog

    encl = make_switch(32, 1_100_000, source_id="encl32")
    catalog = Catalog(edge_set=(encl,), core_set=(make_switch(36, 1, source_id="c"),))
    request = DesignRequest(
        node_count=32,
        form_factor=BladeFormFactor(16, 750_000, "encl32"),
    )
    direct = next(c for c in design(request, catalog).candidates if c.kind == "direct_connect")
    with pytest.raises(PlacementError):
        plan_racks(direct, RoomSpec(rows=1, racks_per_row=2), NodeSpec())


def test_dense_mode_dominance_randomized(ft36_catalog):
    rng = random.Random(20250809)
    for _ in range(25):
        nodes = rng.randint(20, 420)
        target = winner_for(nodes, ft36_catalog)
        room = RoomSpec(
            rows=rng.randint(1, 3),
            racks_per_row=rng.randint(5, 12),
            rack_units_per_rack=rng.choice([24, 42, 48]),
            rack_power_budget=rng.choice([None, 20_000.0]),
        )
        node_spec = NodeSpec(rack_units=rng.choice([1, 2]), power=rng.choice([0.0, 350.0]))
        placement = rng.choice(["first_racks_contiguous", "center", "distributed"])
        try:
            relaxed = plan_racks(target, room, node_spec, dense=False, core_placement=placement)
        except PlacementError:
            continue
        dense = plan_racks(target, room, node_spec, dense=True, core_placement=placement)
        assert dense.racks_used <= relaxed.racks_used
        for layout in (dense, relaxed):
            assert layout_nodes(layout) == nodes
            assert layout_switches(layout) == target.switch_count
            assert_budgets(layout, room)


def test_fit_max_nodes_two_racks(ft36_catalog):
    fit = fit_max_nodes(84, ft36_catalog, Fraction(1))
    assert fit.node_count == 76
    assert fit.design.edge_count == 5
    assert fit.design.core_count == 3


def test_fit_max_nodes_impossible():
    catalog = single_model_catalog(make_switch(36, 1, rack_units=40, source_id="huge"))
    with pytest.raises(PlacementError):
        fit_max_nodes(30, catalog, Fraction(1))


@pytest.mark.parametrize("capacity, node_units", [(0, 1), (1, 1), (2, 1), (3, 2)])
def test_fit_max_nodes_below_two_nodes(ft36_catalog, capacity, node_units):
    with pytest.raises(PlacementError, match=f"^no node count fits in {capacity}U$"):
        fit_max_nodes(capacity, ft36_catalog, Fraction(1), NodeSpec(rack_units=node_units))


def test_negative_capacity_is_bad_input(ft36_catalog, monkeypatch):
    built = fit_max_nodes(84, ft36_catalog, Fraction(1)).design
    monkeypatch.setattr(placement, "SearchPlan", None)  # a search would end in a TypeError
    with pytest.raises(ValueError, match="^capacity must not be negative, got -1U$"):
        fit_max_nodes(-1, ft36_catalog, Fraction(1))
    with pytest.raises(ValueError, match="^current capacity must not be negative, got -5U$"):
        expansion_plan(-5, 10, ft36_catalog, Fraction(1))
    with pytest.raises(ValueError, match="^extra capacity must not be negative, got -5U$"):
        expansion_audit(built, -5)


@pytest.mark.parametrize("value", [10.5, 84.0, True, "84", None])
def test_capacities_must_be_integers(ft36_catalog, monkeypatch, value):
    """A float, bool or other non-integer capacity raises ValueError before any search."""
    built = fit_max_nodes(84, ft36_catalog, Fraction(1)).design
    monkeypatch.setattr(placement, "SearchPlan", None)  # a search would end in a TypeError
    calls = [
        ("capacity", lambda: fit_max_nodes(value, ft36_catalog, Fraction(1))),
        ("current capacity", lambda: expansion_plan(value, 126, ft36_catalog, Fraction(1))),
        ("target capacity", lambda: expansion_plan(84, value, ft36_catalog, Fraction(1))),
        ("extra capacity", lambda: expansion_audit(built, value)),
    ]
    for label, call in calls:
        with pytest.raises(ValueError, match=f"^{label} must be an integer, got {value!r}$"):
            call()


def test_expansion_plan_two_to_three_racks(ft36_catalog):
    plan = expansion_plan(84, 126, ft36_catalog, Fraction(1))
    assert plan.target_max_nodes == 115
    assert plan.edge_count == 7
    assert plan.core_count == 4
    assert plan.spare_core_ports == 18
    upfront, deferred = plan.variants
    assert upfront.name == "all_switches_upfront"
    assert upfront.phases[0].node_count == 73
    assert deferred.name == "core_first"
    assert deferred.phases[0].node_count == 75
    assert deferred.phases[0].edge_switches == 5
    # deferring edge switches never hosts fewer initial nodes
    assert deferred.phases[0].node_count >= upfront.phases[0].node_count
    assert max(variant.phases[0].node_count for variant in plan.variants) == 75
    assert plan.baseline.node_count == 76


def test_expansion_plan_rejects_shrinking():
    catalog = single_model_catalog(make_switch(36, 1, source_id="s"))
    with pytest.raises(ValueError):
        expansion_plan(84, 42, catalog, Fraction(1))


def test_expansion_audit_naive_baseline(ft36_catalog):
    baseline = fit_max_nodes(84, ft36_catalog, Fraction(1))
    audit = expansion_audit(baseline.design, 42)
    assert audit.via_spare_edge_ports == 14
    assert audit.via_new_edge_switches == 18
    assert audit.new_edge_switch_count == 1
    assert audit.max_added_nodes == 32
    assert baseline.node_count + audit.max_added_nodes == 108
    assert audit.wasted_units == 9


def test_expansion_audit_saturated_network(ft36_catalog):
    full = winner_for(648, ft36_catalog)
    audit = expansion_audit(full, 42)
    assert audit.max_added_nodes == 0
    assert audit.wasted_units == 42


def test_expansion_audit_zero_spare_core_ports(ft36_catalog):
    # 647 nodes: the last edge switch has one free node port, but every core
    # port is spoken for once its own uplink demand is wired
    nearly_full = winner_for(648, ft36_catalog)
    audit = expansion_audit(nearly_full, 10)
    assert audit.via_new_edge_switches == 0


def test_expansion_audit_tops_up_only_the_last_edge_switch():
    """Current behaviour, pinned: on an even spread the audit understates growth.

    With 8-port 1U edge switches and one 16-port 2U core at blocking 3/2,
    24U hold 17 nodes spread (4, 4, 3, 3, 3). The audit tops up only the last
    edge switch and reaches 19 nodes in 34U, leaving 7U unusable. Under its
    own wiring rules, topping up all three 3-node switches and then adding a
    one-node edge switch reaches 21 nodes in 5U.
    """
    e8 = make_switch(8, 100_000, source_id="e8")
    c16 = make_switch(16, 300_000, source_id="c16", rack_units=2)
    baseline = fit_max_nodes(24, Catalog(edge_set=(e8,), core_set=(c16,)), Fraction(3, 2))
    built = baseline.design
    distribution = node_distribution(built)
    assert (baseline.node_count, distribution, built.core_count) == (17, (4, 4, 3, 3, 3), 1)
    audit = expansion_audit(built, 10)
    assert (audit.via_spare_edge_ports, audit.via_new_edge_switches, audit.new_edge_switch_count) == (1, 1, 1)
    assert (baseline.node_count + audit.max_added_nodes, audit.wasted_units) == (19, 7)

    # the audit's rules, applied to every underfilled switch: each is wired for its own nodes only
    blocking = built.split.resulting_blocking
    spare_core = c16.ports - sum(fewest_uplinks(nodes, blocking) for nodes in distribution)
    topped_up = sum(4 - nodes for nodes in distribution)
    spare_core -= sum(fewest_uplinks(4, blocking) - fewest_uplinks(nodes, blocking) for nodes in distribution)
    new_switch_nodes = spare_core * blocking.numerator // blocking.denominator
    assert (topped_up, new_switch_nodes) == (3, 1)
    assert topped_up + e8.rack_units + new_switch_nodes == 5  # of the 10U added
    assert baseline.node_count + topped_up + new_switch_nodes == 21


def exhaustive_growth(design_, extra_units, node_spec):
    """Most nodes an as-built network accepts in extra_units under the audit's wiring rules, trying every way.

    Each edge switch is wired with the fewest uplinks its own nodes need.
    Any underfilled switch may take more nodes while its ports and the spare
    core ports last, and then whole edge switches are added, each with any
    node count its ports allow.
    """
    blocking = design_.split.resulting_blocking
    ports, edge_units, node_units = design_.edge_config.ports, design_.edge_config.rack_units, node_spec.rack_units

    def uplinks(nodes):
        return -(-nodes * blocking.denominator // blocking.numerator)

    def fits(nodes):
        return nodes + uplinks(nodes) <= ports

    distribution = node_distribution(design_)
    spare = design_.core_count * design_.core_config.ports - sum(uplinks(nodes) for nodes in distribution)

    @lru_cache(maxsize=None)
    def new_switches(units, spare):
        """Most nodes whole new edge switches take in units with spare core ports."""
        return max(
            (nodes + new_switches(units - edge_units - nodes * node_units, spare - uplinks(nodes))
             for nodes in range(1, ports)
             if fits(nodes) and uplinks(nodes) <= spare
             and edge_units + nodes * node_units <= units),
            default=0,
        )

    best = 0
    # every top-up of every switch that its ports allow
    for added in product(*([more for more in range(ports) if fits(nodes + more)] for nodes in distribution)):
        units = extra_units - sum(added) * node_units
        wired = spare - sum(uplinks(nodes + more) - uplinks(nodes) for nodes, more in zip(distribution, added))
        if units >= 0 and wired >= 0:
            best = max(best, sum(added) + new_switches(units, wired))
    return best


@settings(max_examples=80, deadline=None)
@given(
    st.integers(4, 20),
    st.integers(4, 40),
    st.sampled_from((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(3))),
    st.sampled_from((1, 2)),
    st.sampled_from((1, 2)),
    st.integers(0, 40),
    st.data(),
)
def test_expansion_audit_matches_exhaustive_count_on_baseline_splits(
    edge_ports, core_ports, blocking, edge_units, node_units, extra, data
):
    """On a baseline split only the last edge switch is underfilled, so topping it up alone loses nothing.

    The designs are built with prefer_expandability, which packs every edge
    switch full but the last, and with more nodes than any one switch has
    ports, so each is a fat tree.
    """
    catalog = Catalog(
        edge_set=(make_switch(edge_ports, 100_000, source_id="e", rack_units=edge_units),),
        core_set=(make_switch(core_ports, 300_000, source_id="c", rack_units=2),),
    )
    request = DesignRequest(node_count=2, blocking_factor=blocking, prefer_expandability=True)
    reach = SearchPlan(request, catalog).max_reachable
    low = max(edge_ports, core_ports) + 1
    if reach < low:
        return
    nodes = data.draw(st.integers(low, min(reach, low + 80)), label="nodes")
    built = design(DesignRequest(node_count=nodes, blocking_factor=blocking, prefer_expandability=True), catalog).winner
    assert built.kind == "fat_tree" and not built.uniform_distribution
    node_spec = NodeSpec(rack_units=node_units)
    assert expansion_audit(built, extra, node_spec).max_added_nodes == exhaustive_growth(built, extra, node_spec)


def test_expansion_audit_requires_fat_tree(ft36_catalog):
    star = winner_for(30, ft36_catalog)
    assert star.kind == "star"
    with pytest.raises(PlacementError):
        expansion_audit(star, 42)


def reference_try_spread(switch, node_count, spec, racks, room):
    """The dense spread with every budget term written out, over whatever racks it is given."""
    placements = []
    switch_done = False
    remaining = node_count
    for rack in racks:
        free = rack.free_units
        weight_left = float("inf") if room.rack_weight_budget is None else room.rack_weight_budget - rack.used_weight
        power_left = float("inf") if room.rack_power_budget is None else room.rack_power_budget - rack.used_power
        fits = free >= switch.rack_units and weight_left >= switch.weight and power_left >= switch.power
        if not switch_done and fits:
            placements.append((rack, switch))
            switch_done = True
            free -= switch.rack_units
            weight_left -= switch.weight
            power_left -= switch.power
        if remaining > 0:
            chunk = free // spec.rack_units
            if spec.weight > 0 and weight_left != float("inf"):
                chunk = min(chunk, int(weight_left / spec.weight))
            if spec.power > 0 and power_left != float("inf"):
                chunk = min(chunk, int(power_left / spec.power))
            chunk = min(remaining, max(0, chunk))
            if chunk > 0:
                placements.append((rack, placement._nodes(switch.block_id, spec, chunk)))
                remaining -= chunk
        if switch_done and remaining == 0:
            return placements
    return None


def reference_plan_racks(design_, room, node_spec, *, dense, core_placement, reserve):
    """plan_racks whose dense spread walks every rack visited so far, full ones included."""
    edge = design_.edge_config
    blocks = []
    for i, count in enumerate(node_distribution(design_)):
        block_id = f"block-{i + 1:02d}"
        switch = placement._switch("edge_switch", f"{block_id} switch ({edge.config_id})", edge, block_id)
        blocks.append((switch, placement._nodes(block_id, node_spec, count)))
    placement._check_room_capacity(design_, room, blocks, reserve)
    racks = placement._serpentine_racks(room)
    for i, units in enumerate(reserve):
        label = f"reserved-{i + 1:02d}"
        if units > room.rack_units_per_rack:
            raise placement._larger_than_rack(label, units, room)
        reserved = placement.PlacedItem(kind="reserved", rack_units=units, label=label)
        if placement._first_fit(racks, room, reserved) is None:
            raise PlacementError(f"no rack can hold {label} ({units}U)")
    placement._place_core_switches(design_, room, racks, core_placement)
    spread_ids = []
    cursor = 0
    for switch, nodes in blocks:
        units = switch.rack_units + nodes.rack_units
        if not dense and units > room.rack_units_per_rack:
            raise placement._larger_than_rack(switch.block_id, units, room)
        placed = False
        while not placed:
            rack = racks[cursor]
            if placement._fits(rack, room, switch, nodes):
                rack.add(switch)
                if nodes.node_count:
                    rack.add(nodes)
                placed = True
            elif dense:
                plan = reference_try_spread(switch, nodes.node_count, node_spec, racks[: cursor + 1], room)
                if plan is not None:
                    for target, item in plan:
                        target.add(item)
                    spread_ids.append(switch.block_id)
                    placed = True
            if not placed:
                cursor += 1
                if cursor >= len(racks):
                    raise PlacementError(f"{switch.block_id} ({units}U) does not fit: room exhausted")
    last_used = max((i for i, rack in enumerate(racks) if rack.items), default=-1)
    kept = racks[: last_used + 1]
    for rack in kept:
        rack.items.sort(key=lambda item: item.kind == "node_block")
    return placement.RackLayout(room=room, racks=tuple(kept), spread_blocks=tuple(spread_ids))


def plan_racks_offering_only_usable_racks(target, room, node_spec, **options):
    """plan_racks, checking that each spread is offered no rack behind the current one that can take nothing."""
    spread = placement._try_spread

    def checked_spread(switch, node_count, spec, racks, room_):
        assert all(placement._spread_can_use(rack, room_, switch, spec) for rack in racks[:-1])
        return spread(switch, node_count, spec, racks, room_)

    with mock.patch.object(placement, "_try_spread", checked_spread):
        return plan_racks(target, room, node_spec, **options)


def assert_plans_like_the_reference(target, room, node_spec, **options):
    """plan_racks gives the reference's whole layout, or raises its error; a layout places everything once."""
    try:
        expected = reference_plan_racks(target, room, node_spec, **options)
    except PlacementError as error:
        with pytest.raises(PlacementError) as raised:
            plan_racks_offering_only_usable_racks(target, room, node_spec, **options)
        assert str(raised.value) == str(error)
        return None
    layout = plan_racks_offering_only_usable_racks(target, room, node_spec, **options)
    assert layout == expected
    # every node and switch is placed once, within each rack's units, and the racks come in serpentine order
    assert block_totals(layout, "node_count") == list(node_distribution(target))
    switches = [item.label for rack in layout.racks for item in rack.items if item.kind.endswith("_switch")]
    assert len(switches) == len(set(switches)) == target.switch_count
    assert all(rack.used_units <= rack.capacity_units for rack in layout.racks)
    walk = [(row, column) for row in range(room.rows)
            for column in (range(room.racks_per_row) if row % 2 == 0 else range(room.racks_per_row - 1, -1, -1))]
    assert [(rack.index, rack.row, rack.position) for rack in layout.racks] == [
        (index, *walk[index]) for index in range(len(layout.racks))
    ]
    return layout


@st.composite
def placement_cases(draw):
    """(design, room, node spec, options) for a one-edge-model, one-core-model catalog, rooms sized near the load."""
    pick = lambda *values: draw(st.sampled_from(values))  # noqa: E731
    edge = make_switch(pick(6, 8, 12, 24, 36), 100_000, source_id="e", rack_units=pick(0, 1, 1, 2),
                       weight=pick(0.0, 1.5, 21.3), power=pick(0.0, 90.0, 152.5))
    core = make_switch(pick(12, 36, 48), 300_000, source_id="c", rack_units=pick(0, 1, 3),
                       weight=pick(0.0, 10.0), power=pick(0.0, 200.0))
    nodes = draw(st.integers(2, 160))
    try:
        target = winner_for(nodes, Catalog(edge_set=(edge,), core_set=(core,)), pick(Fraction(1), Fraction(2)))
    except DesignError:
        assume(False)
    spec = NodeSpec(rack_units=pick(1, 1, 2, 3), weight=pick(0.0, 5.0, 8.2, 32.2), power=pick(0.0, 150.0, 333.3))
    rack_units = pick(6, 8, 12, 24, 42)
    reserve = tuple(draw(st.lists(st.integers(1, rack_units), max_size=2)))
    switches = (target.edge_config, target.edge_count), (target.core_config, target.core_count)
    need = {
        attribute: nodes * getattr(spec, attribute)
        + sum(count * getattr(config, attribute) for config, count in switches if config is not None)
        for attribute in ("rack_units", "weight", "power")
    }
    need["rack_units"] += sum(reserve)
    racks = -(-need["rack_units"] // rack_units)
    budgets = {}
    for name, attribute in (("rack_weight_budget", "weight"), ("rack_power_budget", "power")):
        per_node = getattr(spec, attribute)
        if per_node and draw(st.booleans()):
            # a whole number of nodes, or nodes and a switch, fill the budget to the last kilogram or watt
            budget = per_node * draw(st.integers(2, 24)) + pick(0.0, getattr(edge, attribute), 0.1)
            budgets[name] = budget
            racks = max(racks, int(need[attribute] / budget) + 1)
    racks += draw(st.integers(0, 4))
    rows = draw(st.integers(1, 3))
    room = RoomSpec(rows=rows, racks_per_row=-(-racks // rows), rack_units_per_rack=rack_units, **budgets)
    options = {"dense": draw(st.booleans()), "core_placement": pick(*placement.CORE_PLACEMENTS), "reserve": reserve}
    return target, room, spec, options


@settings(max_examples=200, deadline=None)
@given(placement_cases())
def test_plan_racks_matches_the_walk_over_every_visited_rack(case):
    """Differential oracle: skipping racks that can take neither the edge switch nor a node changes no layout."""
    target, room, spec, options = case
    assert_plans_like_the_reference(target, room, spec, **options)


def test_a_full_rack_stays_in_the_walk_for_a_switch_of_no_size():
    """A 0U, 0 kg, 0 W edge switch still fits a full rack, so the spread must keep offering it the first one."""
    edge = make_switch(12, 100_000, source_id="e", rack_units=0)
    core = make_switch(24, 300_000, source_id="c", rack_units=0)
    target = winner_for(36, Catalog(edge_set=(edge,), core_set=(core,)))
    assert target.kind == "fat_tree" and node_distribution(target) == (6,) * 6
    room = RoomSpec(rows=1, racks_per_row=6, rack_units_per_rack=10)
    layout = assert_plans_like_the_reference(target, room, NodeSpec(), dense=True,
                                             core_placement="first_racks_contiguous", reserve=())
    first = layout.racks[0]
    assert first.free_units == 0
    assert [item.label for item in first.items if item.kind == "edge_switch"] == [
        "block-01 switch (e)", "block-03 switch (e)", "block-05 switch (e)"
    ]
    assert layout.spread_blocks == ("block-03", "block-05")


def test_weight_boundary_spread_keeps_its_layout():
    """The 225.4 kg repro: the spread's float weight rule, not _fits', decides which racks it still walks."""
    edge = make_switch(24, 100_000, source_id="e24", weight=21.3)
    core = make_switch(36, 300_000, source_id="c36")
    target = winner_for(112, Catalog(edge_set=(edge,), core_set=(core,)))
    room = RoomSpec(rows=1, racks_per_row=60, rack_weight_budget=225.4)
    spec = NodeSpec(weight=32.2)
    layout = assert_plans_like_the_reference(target, room, spec, dense=True,
                                             core_placement="first_racks_contiguous", reserve=())
    # int(225.4 / 32.2) is 7, and 7 nodes weigh 225.40000000000003, which _fits refuses an empty rack
    third = layout.racks[2]
    assert [item.label for item in third.items] == ["block-02 nodes x7"]
    assert third.used_weight == 225.40000000000003 > room.rack_weight_budget
    assert not placement._fits(placement.Rack(0, 0, 0, 42), room, placement._nodes("block-02", spec, 7))
