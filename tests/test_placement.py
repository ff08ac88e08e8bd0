import random
from fractions import Fraction

import pytest

from fattree_design.designer import DesignRequest, design
from fattree_design.estimator import single_model_catalog
from fattree_design.placement import (
    NodeSpec,
    PlacementError,
    RoomSpec,
    building_blocks,
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


def test_building_blocks_last_one_underfilled(ft36_catalog):
    blocks = building_blocks(winner_for(60, ft36_catalog), NodeSpec())
    assert [b.node_count for b in blocks] == [18, 18, 18, 6]
    assert blocks[0].rack_units == 19
    assert blocks[-1].rack_units == 7


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

    edge = make_switch(36, 100, source_id="e", roles=("edge",))
    core = make_switch(36, 100, source_id="c", rack_units=0, roles=("core",))
    target = winner_for(198, Catalog(edge_set=(edge,), core_set=(core,)))
    assert [b.rack_units for b in building_blocks(target, NodeSpec())] == [19] * 11
    room = RoomSpec(rows=1, racks_per_row=8)
    dense = plan_racks(target, room, NodeSpec(), dense=True)
    assert dense.racks_used == 5
    assert len(dense.spread_blocks) == 1
    relaxed = plan_racks(target, room, NodeSpec(), dense=False)
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
    assert layout.unplaced == ()
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
    ],
)
def test_footprint_and_room_reject_out_of_range_values(build):
    with pytest.raises(ValueError, match="must"):
        build()


def test_oversized_indivisible_item_rejected(ft36_catalog):
    target = winner_for(60, ft36_catalog)
    room = RoomSpec(rows=1, racks_per_row=10)
    with pytest.raises(PlacementError, match="larger than a 42U rack"):
        plan_racks(target, room, NodeSpec(), reserve=(45,))


def test_direct_connect_designs_are_not_placeable(ft36_catalog):
    from fattree_design.designer import BladeFormFactor, trivial_direct_connect
    from fattree_design.catalog import Catalog

    encl = make_switch(32, 1_100_000, source_id="encl32", roles=("edge",))
    catalog = Catalog(edge_set=(encl,), core_set=(make_switch(36, 1, source_id="c"),))
    request = DesignRequest(
        node_count=32,
        form_factor=BladeFormFactor(16, 750_000, "encl32"),
    )
    direct = trivial_direct_connect(request, catalog)
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


def test_expansion_plan_two_to_three_racks(ft36_catalog):
    plan = expansion_plan(84, 126, ft36_catalog, Fraction(1))
    assert plan.target_max_nodes == 115
    assert plan.edge_count == 7
    assert plan.core_count == 4
    assert plan.spare_core_ports == 18
    upfront, deferred = plan.variants
    assert upfront.name == "all_switches_upfront"
    assert upfront.initial_nodes == 73
    assert deferred.name == "core_first"
    assert deferred.initial_nodes == 75
    assert deferred.phases[0].edge_switches == 5
    # deferring edge switches never hosts fewer initial nodes
    assert deferred.initial_nodes >= upfront.initial_nodes
    assert plan.initial_nodes == 75
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


def test_expansion_audit_requires_fat_tree(ft36_catalog):
    star = winner_for(30, ft36_catalog)
    assert star.kind == "star"
    with pytest.raises(PlacementError):
        expansion_audit(star, 42)
