from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fattree_design import designer
from fattree_design.catalog import Catalog, bundled_catalog_path, load_catalog_file
from fattree_design.designer import (
    DEFAULT_CABLE_COST,
    BladeFormFactor,
    ConstraintSet,
    CoreStage,
    DesignInfeasibleError,
    DesignRequest,
    InsufficientRadixError,
    cable_count,
    core_layers,
    design,
    edge_count,
    edge_port_split,
    bundle_widths,
    node_distribution,
    request_from_document,
)
from fattree_design.catalog import ModularSwitchFamily, expand_modular

from fattree_design.estimator import single_model_catalog

from conftest import make_switch


@pytest.mark.parametrize(
    "ports,blocking,expected",
    [
        (36, Fraction(1), (18, 18, Fraction(1))),
        (36, Fraction(2), (24, 12, Fraction(2))),
        (36, Fraction(11), (33, 3, Fraction(11))),
        (32, Fraction(1), (16, 16, Fraction(1))),
    ],
)
def test_edge_port_split(ports, blocking, expected):
    assert edge_port_split(ports, blocking) == expected


def test_edge_port_split_infeasible_blocking():
    # even one node port would exceed the allowed ratio
    assert edge_port_split(8, Fraction(1, 8)) is None


@given(st.integers(2, 4096), st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=64))
def test_edge_port_split_matches_the_fraction_formula(ports, blocking):
    """The integer floor gives the node ports of p * b / (1 + b) in Fraction arithmetic, below a blocking of 1 too."""
    to_nodes = int(ports * blocking / (1 + blocking))
    expected = (to_nodes, ports - to_nodes, Fraction(to_nodes, ports - to_nodes)) if to_nodes else None
    assert edge_port_split(ports, blocking) == expected


@pytest.mark.parametrize(
    "nodes,ports_to_nodes,expected",
    [(60, 18, 4), (1200, 24, 50), (18, 18, 1), (280, 33, 9)],
)
def test_edge_count(nodes, ports_to_nodes, expected):
    assert edge_count(nodes, ports_to_nodes) == expected


@pytest.mark.parametrize(
    "edges,uplinks,core_ports,bundle,cores",
    [
        (4, 18, 36, 9, 2),
        (9, 3, 36, 3, 1),
        (14, 16, 90, 6, 3),
        (50, 12, 108, 2, 6),
        (14, 16, 36, 2, 8),
    ],
)
def test_core_stage(edges, uplinks, core_ports, bundle, cores):
    layer, = core_layers(edges, uplinks, (core_ports,))
    assert layer is not None
    stage = CoreStage(*layer)
    assert (stage.bundle_width, stage.core_count) == (bundle, cores)


def test_core_stage_unsuitable_switch():
    assert core_layers(37, 18, (36,)) == [None]


def test_core_layers_validates_inputs():
    for uplinks in (0, -3):
        with pytest.raises(ValueError, match="ports_to_core must be positive"):
            core_layers(4, uplinks, ())
        with pytest.raises(ValueError, match="ports_to_core must be positive"):
            core_layers(4, uplinks, (36,))
    with pytest.raises(ValueError, match="edge_switches must be positive"):
        core_layers(0, 18, (36,))


@pytest.mark.parametrize(
    "nodes,edges,uplinks,blade,expected",
    [
        (60, 4, 18, False, 132),
        (224, 14, 16, True, 224),
        (0, 0, 0, False, 0),
    ],
)
def test_cable_count(nodes, edges, uplinks, blade, expected):
    assert cable_count(nodes, edges, uplinks, blade) == expected


def test_bundle_widths_cover_all_uplinks():
    for edges in range(1, 40):
        for uplinks in range(1, 40):
            for core_ports in range(edges, 130, 7):
                layer, = core_layers(edges, uplinks, (core_ports,))
                assert layer is not None
                stage = CoreStage(*layer)
                widths = bundle_widths(uplinks, stage)
                assert sum(widths) == uplinks
                assert all(1 <= w <= stage.bundle_width for w in widths)
                # the busiest core switch still has a port per edge switch link
                assert edges * max(widths) <= core_ports


def blade_request(nodes, capacity=16, pass_through=None, **kwargs):
    return DesignRequest(
        node_count=nodes,
        form_factor=BladeFormFactor(
            enclosure_capacity=capacity,
            enclosure_cost=750_000,
            embedded_edge_switch_id="encl32",
            pass_through_cost=pass_through,
        ),
        **kwargs,
    )


def ranked_of_kind(request, catalog, kind):
    """design()'s candidate of this kind (the ranking keeps each trivial kind's best variant), or None."""
    return next((c for c in design(request, catalog).candidates if c.kind == kind), None)


def ranked_direct_connect(request, catalog):
    return ranked_of_kind(request, catalog, "direct_connect")


def ranked_star(request, catalog):
    return ranked_of_kind(request, catalog, "star")


@pytest.fixture
def blade_catalog(ft36):
    encl = make_switch(32, 1_100_000, source_id="encl32")
    return Catalog(edge_set=(encl,), core_set=(ft36,))


def test_direct_connect_two_enclosures(blade_catalog):
    result = ranked_direct_connect(blade_request(32), blade_catalog)
    assert result is not None
    assert result.kind == "direct_connect"
    assert result.edge_count == 2
    assert result.cable_count == 16
    assert not result.pass_through
    # two embedded switches plus sixteen cross cables
    assert result.metrics.cost == 2 * 1_100_000 + 16 * 8000


def test_direct_connect_prefers_cheap_pass_through(blade_catalog):
    result = ranked_direct_connect(blade_request(32, pass_through=400_000), blade_catalog)
    assert result is not None
    assert result.pass_through
    assert result.edge_count == 1
    assert result.metrics.cost == 1_100_000 + 400_000 + 16 * 8000


def test_direct_connect_needs_exactly_two_enclosures(blade_catalog):
    assert ranked_direct_connect(blade_request(48), blade_catalog) is None
    assert ranked_direct_connect(blade_request(10), blade_catalog) is None
    rack_mounted = DesignRequest(node_count=32)
    assert ranked_direct_connect(rack_mounted, blade_catalog) is None


def test_direct_connect_ranks_before_an_equal_star(blade_catalog):
    # one switch and a free panel with free cables costs what a star on that switch costs:
    # the keys tie exactly, and the direct interconnect keeps its place ahead of the star
    report = design(blade_request(20, pass_through=0, avg_cable_cost=0), blade_catalog)
    ranked = [(c.kind, c.edge_config.config_id, c.objective, c.switch_count) for c in report.candidates[:2]]
    assert ranked == [("direct_connect", "encl32", 1_100_000, 1), ("star", "encl32", 1_100_000, 1)]


def test_star_single_switch(ft36_catalog):
    result = ranked_star(DesignRequest(node_count=36), ft36_catalog)
    assert result is not None
    assert result.kind == "star"
    assert result.cable_count == 36
    assert result.metrics.cost == 1_100_000 + 36 * 8000


def test_star_no_switch_large_enough(ft36_catalog):
    assert ranked_star(DesignRequest(node_count=37), ft36_catalog) is None


def test_star_picks_cheapest_sufficient_config():
    family = ModularSwitchFamily(
        id="mod108",
        chassis_cost=2_500_000,
        chassis_rack_units=7,
        chassis_power=0,
        chassis_weight=0,
        fabric_board_cost=900_000,
        fabric_boards_required=3,
        line_card_cost=1_300_000,
        ports_per_line_card=18,
        max_line_cards=6,
    )
    configs = {c.ports: c for c in expand_modular(family)}
    catalog = Catalog(edge_set=(configs[90],), core_set=(configs[108],))
    result = ranked_star(DesignRequest(node_count=100), catalog)
    assert result is not None
    assert result.edge_config.config_id == "mod108:108p"


def test_star_blade_needs_no_cables(blade_catalog):
    result = ranked_star(blade_request(16), blade_catalog)
    assert result is not None
    assert result.cable_count == 0


def uniform_candidates(node_count, edge_switches, edge_ports, core_ports, prefer_expandability=False):
    """design()'s fat-tree candidates that spread the nodes evenly, for one edge and one core model."""
    edge = make_switch(edge_ports, 500_000, source_id="edge")
    core = make_switch(core_ports, 300_000, source_id="core")
    request = DesignRequest(node_count=node_count, prefer_expandability=prefer_expandability)
    fat_trees = [c for c in design(request, Catalog(edge_set=(edge,), core_set=(core,))).candidates
                 if c.kind == "fat_tree"]
    assert {c.edge_count for c in fat_trees} == {edge_switches}
    return [c for c in fat_trees if c.uniform_distribution]


def test_uniform_variant_usually_absent():
    # evenly spreading 60 nodes over four 36-port switches still needs 2 cores
    assert uniform_candidates(60, 4, 36, 36) == []


def test_uniform_variant_gated_by_expandability_preference():
    assert uniform_candidates(7, 2, 12, 4, prefer_expandability=True) == []


def test_uniform_variant_saves_a_core_switch():
    [variant] = uniform_candidates(7, 2, 12, 4)
    split, stage = variant.split, variant.core_stage
    assert split.ports_to_nodes == 4 and split.ports_to_core == 4
    assert stage.core_count == 2  # baseline needs 3
    assert split.resulting_blocking <= Fraction(1)


def test_design_flags_uniform_candidate():
    edge = make_switch(12, 500_000, source_id="e12")
    core = make_switch(4, 300_000, source_id="c4")
    report = design(DesignRequest(node_count=7), Catalog(edge_set=(edge,), core_set=(core,)))
    fat_trees = [c for c in report.candidates if c.kind == "fat_tree"]
    uniform = [c for c in fat_trees if c.uniform_distribution]
    assert len(uniform) == 1
    assert uniform[0].core_count == 2
    baseline = [c for c in fat_trees if not c.uniform_distribution][0]
    assert baseline.core_count == 3
    assert uniform[0].objective < baseline.objective
    spread = node_distribution(uniform[0])
    assert spread == (4, 3)


def test_design_worked_example_one(ft36_catalog):
    winner = design(DesignRequest(node_count=60), ft36_catalog).winner
    assert winner.kind == "fat_tree"
    assert winner.edge_count == 4
    assert winner.core_count == 2
    assert winner.core_stage.bundle_width == 9
    assert winner.cable_count == 132
    assert winner.max_supported_nodes == 648
    assert node_distribution(winner) == (18, 18, 18, 6)


def test_design_insufficient_radix(ft36_catalog):
    with pytest.raises(InsufficientRadixError) as info:
        design(DesignRequest(node_count=2000), ft36_catalog)
    assert info.value.max_supported_nodes == 648
    assert "insufficient radix" in str(info.value)


def test_design_infeasible_constraints(ft36_catalog):
    request = DesignRequest(
        node_count=60, constraints=ConstraintSet(max_network_cost=100)
    )
    with pytest.raises(DesignInfeasibleError) as info:
        design(request, ft36_catalog)
    assert "max_network_cost" in info.value.binding_constraints


def test_design_deterministic_tie_break():
    first = make_switch(36, 1_100_000, source_id="aaa")
    second = make_switch(36, 1_100_000, source_id="bbb")
    catalog = Catalog(edge_set=(first, second), core_set=(first, second))
    report = design(DesignRequest(node_count=60), catalog)
    assert report.winner.edge_config.source_id == "aaa"
    assert report.winner.core_config.source_id == "aaa"
    again = design(DesignRequest(node_count=60), catalog)
    assert [c.objective for c in report.candidates] == [c.objective for c in again.candidates]


def test_zero_cost_catalog_objective_is_cable_cost():
    free = make_switch(36, 0, source_id="free")
    catalog = Catalog(edge_set=(free,), core_set=(free,))
    report = design(DesignRequest(node_count=30), catalog)
    # star on the free switch: 30 node cables only
    assert report.winner.kind == "star"
    assert report.winner.objective == 30 * 8000


SIZE_CONSTRAINED_CORES = Catalog(
    edge_set=(make_switch(36, 1_100_000, source_id="ft36"),),
    core_set=(
        make_switch(144, 10_000_000, source_id="m144", rack_units=10),
        make_switch(
            144,
            14_000_000,
            source_id="big324",
            rack_units=16,
            configured_line_cards=8,
            expandable_ports=180,
        ),
    ),
)


def test_constraint_filter_on_equipment_size():
    # the partially populated big chassis is never even tried under a size cap
    request = DesignRequest(
        node_count=1000,
        constraints=ConstraintSet(max_network_rack_units=146),
    )
    report = design(request, SIZE_CONSTRAINED_CORES)
    core_ids = {c.core_config.source_id for c in report.candidates if c.core_config}
    assert core_ids == {"m144"}
    assert any(core_id == "big324:144p" for _, core_id, _ in report.rejected)


def test_constraint_filter_on_spare_ports():
    request = DesignRequest(
        node_count=1000,
        constraints=ConstraintSet(min_spare_core_ports=1000),
    )
    report = design(request, SIZE_CONSTRAINED_CORES)
    core_ids = {c.core_config.source_id for c in report.candidates if c.core_config}
    assert core_ids == {"big324"}


def test_no_constraints_keeps_both_core_options():
    report = design(DesignRequest(node_count=1000), SIZE_CONSTRAINED_CORES)
    core_ids = {c.core_config.source_id for c in report.candidates if c.core_config}
    assert core_ids == {"m144", "big324"}
    assert report.winner.core_config.source_id == "m144"  # cheaper


def test_check_constraints_reports_both_values(ft36_catalog):
    request = DesignRequest(node_count=60)
    report = design(request, ft36_catalog)
    winner = report.winner
    power_limit = ConstraintSet(max_network_power=100)
    # the winner is the only design, so the limit leaves none
    with pytest.raises(DesignInfeasibleError, match="binding: max_network_power$"):
        design(replace(request, constraints=power_limit), ft36_catalog)
    metrics = winner.metrics
    limits = designer._active_limits(power_limit)
    # a plain (constraint, limit, actual) record, worded by the one violation text
    violations = designer._violations(limits, metrics.rack_units, 0, metrics.power, metrics.cost)
    assert len(violations) == 1
    constraint, limit, actual = violations[0]
    assert (constraint, limit) == ("max_network_power", 100)
    assert actual == winner.metrics.power
    assert "max_network_power" in designer.violation_text(*violations[0])
    assert report.rejected == ()


def kinds_kept(nodes, catalog, min_spare):
    request = DesignRequest(node_count=nodes, constraints=ConstraintSet(min_spare_core_ports=min_spare))
    try:
        return {c.kind for c in design(request, catalog).candidates}
    except DesignInfeasibleError:
        return set()


def test_spare_core_ports_accounting(ft36_catalog):
    # two cores of 36 ports, 72 uplinks wired: no spare port
    assert kinds_kept(60, ft36_catalog, 0) == {"fat_tree"}
    assert kinds_kept(60, ft36_catalog, 1) == set()
    # a 36-port star for 30 nodes has 6 spare ports
    assert "star" in kinds_kept(30, ft36_catalog, 6)
    assert "star" not in kinds_kept(30, ft36_catalog, 7)


def test_blade_design_counts_core_rack_units_only(blade_catalog):
    report = design(blade_request(224), blade_catalog)
    winner = report.winner
    assert winner.edge_count == 14
    assert winner.core_count == 8
    # embedded edge switches take no rack space of their own
    assert winner.metrics.rack_units == 8


def test_cost_monotonic_in_node_count(ft36_catalog):
    previous = 0
    for nodes in range(2, 161):
        cost = design(DesignRequest(node_count=nodes), ft36_catalog).winner.metrics.cost
        assert cost >= previous, f"cost decreased at {nodes} nodes"
        previous = cost


def test_switch_count_steps_every_half_port_count(ft36_catalog):
    # with one 36-port model and no blocking, the switch count is constant on
    # each run of 18 node counts past the star region (expandability
    # preference pins the maximal-fill layout; uniform spreading can shave a
    # core switch at a few points inside a step)
    for step_start in range(37, 160, 18):
        counts = {
            design(
                DesignRequest(node_count=nodes, prefer_expandability=True), ft36_catalog
            ).winner.switch_count
            for nodes in range(step_start, min(step_start + 18, 161))
        }
        assert len(counts) == 1


def test_design_validates_request(ft36_catalog):
    with pytest.raises(ValueError, match="node_count"):
        design(DesignRequest(node_count=1), ft36_catalog)
    with pytest.raises(ValueError, match="blocking"):
        design(DesignRequest(node_count=4, blocking_factor=Fraction(0)), ft36_catalog)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"node_count": 60.5}, "node_count must be an integer, got 60.5"),
        ({"node_count": 60.0}, "node_count must be an integer, got 60.0"),
        ({"node_count": True}, "node_count must be an integer, got True"),
        ({"node_count": "60"}, "node_count must be an integer, got '60'"),
        ({"node_count": -3}, "node_count must be at least 2"),
        ({"blocking_factor": 2}, "blocking factor must be a Fraction, got 2"),
        ({"blocking_factor": 1.5}, "blocking factor must be a Fraction, got 1.5"),
        ({"blocking_factor": Fraction(-1, 2)}, "blocking factor must be positive"),
        ({"avg_cable_cost": 1.5}, r"avg_cable_cost must be an integer \(minor units\), got 1.5"),
        ({"avg_cable_cost": False}, r"avg_cable_cost must be an integer \(minor units\), got False"),
        ({"avg_cable_cost": -1}, r"avg_cable_cost must not be negative, got -1 \(minor units\)"),
        ({"constraints": None}, "constraints must be a ConstraintSet, got None"),
        ({"form_factor": "x"}, "form_factor must be a BladeFormFactor or a NodeSpec, got 'x'"),
        ({"prefer_expandability": "no"}, "prefer_expandability must be a boolean, got 'no'"),
    ],
)
def test_design_request_checks_its_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DesignRequest(**{"node_count": 60, **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"enclosure_capacity": 0}, "blade enclosure_capacity must be an integer of at least 1, got 0"),
        ({"enclosure_capacity": True}, "blade enclosure_capacity must be an integer of at least 1, got True"),
        ({"enclosure_capacity": 16.0}, "blade enclosure_capacity must be an integer of at least 1, got 16.0"),
        ({"enclosure_cost": -1}, r"blade enclosure_cost must not be negative, got -1 \(minor units\)"),
        ({"pass_through_cost": -1}, r"blade pass_through_cost must not be negative, got -1 \(minor units\)"),
        ({"enclosure_cost": 1.5}, r"blade enclosure_cost must be an integer \(minor units\), got 1.5"),
        ({"enclosure_cost": True}, r"blade enclosure_cost must be an integer \(minor units\), got True"),
        ({"enclosure_cost": "x"}, r"blade enclosure_cost must be an integer \(minor units\), got 'x'"),
        ({"enclosure_cost": None}, r"blade enclosure_cost must be an integer \(minor units\), got None"),
        ({"pass_through_cost": 0.5}, r"blade pass_through_cost must be an integer \(minor units\), got 0.5"),
        ({"embedded_edge_switch_id": 5}, "blade embedded_edge_switch_id must be a string, got 5"),
        ({"embedded_edge_switch_id": None}, "blade embedded_edge_switch_id must be a string, got None"),
        # the id is checked last, so an input with several faults keeps its first message
        ({"enclosure_capacity": 0, "embedded_edge_switch_id": 5},
         "blade enclosure_capacity must be an integer of at least 1, got 0"),
    ],
)
def test_blade_form_factor_checks_its_fields(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BladeFormFactor(**{"enclosure_capacity": 16, "enclosure_cost": 0, "embedded_edge_switch_id": "e", **fields})
    assert BladeFormFactor(1, 0, "e", pass_through_cost=0).pass_through_cost == 0


def test_edge_port_split_validates_inputs():
    with pytest.raises(ValueError):
        edge_port_split(1, Fraction(1))
    with pytest.raises(ValueError):
        edge_port_split(36, Fraction(-1))


def test_request_document_round_trip():
    document = {
        "nodes": 224,
        "blocking": "1",
        "form_factor": {
            "kind": "blade",
            "enclosure_capacity": 16,
            "enclosure_cost": 750_000,
            "embedded_edge_switch_id": "encl32",
        },
        "avg_cable_cost": 8000,
        "constraints": {"max_network_rack_units": 20},
        "prefer_expandability": True,
    }
    request = request_from_document(document)
    assert request.node_count == 224
    assert request.blades == request.form_factor
    assert request.constraints.max_network_rack_units == 20
    assert request.prefer_expandability
    plain = request_from_document({"nodes": 60})
    assert plain.blades is None and plain.blocking_factor == Fraction(1)
    with pytest.raises(ValueError, match="form factor"):
        request_from_document({"nodes": 3, "form_factor": {"kind": "mainframe"}})


@pytest.mark.parametrize(
    "document, message",
    [
        ({"nodes": 60.7}, "nodes: 60.7 is not of type 'integer'"),
        ({"nodes": 60, "blocking": 1.5}, "blocking: 1.5 is not of type 'string', 'integer'"),
        ({"nodes": 60, "form_factor": {"node_power": float("nan")}}, "form_factor/node_power: nan is not a finite number"),
        (
            {"nodes": 60, "form_factor": {"kind": "blade", "enclosure_capacity": 16}},
            "form_factor: 'embedded_edge_switch_id' is a required property",
        ),
        (
            {"nodes": "60", "blockng": "2", "constraints": {"max_network_units": 10}},
            "(root): Additional properties are not allowed ('blockng' was unexpected)",
        ),
    ],
)
def test_request_violation_names_its_path(document, message):
    with pytest.raises(ValueError) as raised:
        request_from_document(document)
    assert str(raised.value) == f"request document violation at {message}"


@pytest.mark.parametrize(
    "limits",
    [
        {"max_network_rack_units": "ten"},
        {"max_network_rack_units": 9.5},
        {"min_spare_core_ports": True},
        {"max_network_power": False},
        {"max_network_power": "100"},
        {"max_network_cost": 100.0},
    ],
)
def test_constraint_set_rejects_non_numeric_limits(limits):
    with pytest.raises(ValueError, match="constraint"):
        ConstraintSet(**limits)


@pytest.mark.parametrize("limit", [float("nan"), float("inf"), float("-inf")])
def test_constraint_set_rejects_non_finite_limits(limit):
    with pytest.raises(ValueError, match="constraint max_network_power must be a finite number"):
        ConstraintSet(max_network_power=limit)


def test_constraint_set_accepts_numeric_limits():
    limits = ConstraintSet(max_network_rack_units=9, min_spare_core_ports=0,
                           max_network_power=1500.5, max_network_cost=10**9)
    assert limits.max_network_power == 1500.5
    assert ConstraintSet(max_network_power=1500).max_network_power == 1500
    assert ConstraintSet(max_network_cost=10**400).max_network_cost == 10**400


def test_every_pair_uses_the_fewest_edge_switches():
    """A pair's edge count is ceil(N / ports_to_nodes), even where one more switch costs less.

    At blocking 3/2 a 48-port edge switch has 28 node ports. 140 nodes take
    5 edge switches and 3 cores; 141 nodes take 6 edge switches with the even
    spread and 2 cores, which costs less and would serve 140 nodes too, so the
    winner's cost falls from 140 to 141 nodes.
    """
    sm00 = make_switch(48, 576_000, source_id="sm00", power=156.4, rack_units=1, weight=12.6)
    catalog = single_model_catalog(sm00)
    found = {}
    for nodes in (140, 141):
        report = design(DesignRequest(node_count=nodes, blocking_factor=Fraction(3, 2)), catalog)
        winner = report.winner
        found[nodes] = (winner.metrics.cost, winner.edge_count, winner.core_count, winner.uniform_distribution)
        for candidate in report.candidates:
            if candidate.kind == "fat_tree" and not candidate.uniform_distribution:
                assert candidate.edge_count == -(-nodes // candidate.split.ports_to_nodes)
    assert found == {140: (6_528_000, 5, 3, False), 141: (6_504_000, 6, 2, True)}


def test_even_spread_that_frees_no_core_switch_is_dropped():
    """Current behaviour, pinned: the even spread is kept only when it frees a core switch.

    On the demo catalog 37 nodes win with 3x ft36 edge + 2x ft36 core, 18
    uplinks per edge switch and 91 cables, at $62,280. The even spread over the
    same 3 switches (13, 12 and 12 nodes, 13 uplinks each) needs the same 2
    cores and only 76 cables, so it would cost $61,080, but it saves no core
    switch and is never listed.
    """
    report = design(DesignRequest(node_count=37), load_catalog_file(bundled_catalog_path("demo_catalog")))
    winner = report.winner
    assert (winner.edge_config.config_id, winner.core_config.config_id) == ("ft36", "ft36")
    assert (winner.edge_count, winner.core_count, winner.split.ports_to_core, winner.cable_count) == (3, 2, 18, 91)
    assert (winner.metrics.cost, winner.uniform_distribution) == (6_228_000, False)
    assert not any(candidate.uniform_distribution for candidate in report.candidates)
    ft36 = winner.edge_config
    assert core_layers(3, 13, [ft36.ports]) == core_layers(3, 18, [ft36.ports]) == [(12, 2)]
    spread_cables = cable_count(37, 3, 13, blade=False)
    assert spread_cables == 76
    assert 5 * ft36.cost + spread_cables * DEFAULT_CABLE_COST == 6_108_000
