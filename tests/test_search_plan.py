"""The winner-only ranking against design(), and fit_max_nodes and the sweep against full-search oracles."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fattree_design.catalog import (
    Catalog,
    ModularSwitchFamily,
    SwitchConfig,
    bundled_catalog_path,
    expand_modular,
    load_catalog,
    load_catalog_file,
)
from fattree_design.designer import (
    DEFAULT_CABLE_COST,
    BladeFormFactor,
    ConstraintSet,
    DesignError,
    DesignRequest,
    NodeSpec,
    SearchPlan,
    design,
)
from fattree_design.estimator import single_model_catalog, sweep_lower_bound
from fattree_design.placement import CapacityFit, PlacementError, fit_max_nodes

DEMO = load_catalog_file(bundled_catalog_path("demo_catalog"))

# Two edge-only or dual-role monoliths, a cheap 4-port core and a dual-role
# modular family (4, 8 and 12 ports): stars win up to 12 nodes, uniform
# variants win at several node counts, and the family's 12-port chassis
# wins as core past 60 nodes at blocking 1.
SMALL = load_catalog(json.dumps({
    "currency": "USD",
    "monolithic": [
        {"id": "e12", "name": "", "ports": 12, "cost": 500000, "power": 60, "rack_units": 1,
         "weight": 4.0, "roles": ["edge"]},
        {"id": "c4", "name": "", "ports": 4, "cost": 100000, "power": 20, "rack_units": 1,
         "weight": 1.0, "roles": ["core"]},
        {"id": "s10", "name": "", "ports": 10, "cost": 300000, "power": 40, "rack_units": 1,
         "weight": 3.0, "roles": ["edge", "core"]},
    ],
    "modular": [
        {"id": "m", "chassis_cost": 900000, "chassis_rack_units": 3, "chassis_power": 100,
         "chassis_weight": 20.0, "fabric_board_cost": 50000, "fabric_boards_required": 2,
         "line_card_cost": 150000, "ports_per_line_card": 4, "max_line_cards": 3,
         "roles": ["edge", "core"]},
    ],
}))
CATALOGS = {"demo": (DEMO, ("ft36",)), "small": (SMALL, ("e12", "s10"))}
BLOCKINGS = (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(3))


def design_key(candidate):
    core_id = candidate.core_config.config_id if candidate.core_config else ""
    return (candidate.objective, candidate.switch_count, candidate.metrics.rack_units,
            candidate.edge_config.config_id, core_id)


def assert_scan_matches_design(request, catalog):
    """winner(N) against design()'s winner: the same ranking key, then the same whole design."""
    plan = SearchPlan(request, catalog)
    try:
        expected = design(request, catalog).winner
    except DesignError as error:
        with pytest.raises(type(error)) as raised:
            plan.winner(request.node_count)
        assert str(raised.value) == str(error)
        return
    winner = plan.winner(request.node_count)
    assert design_key(winner) == design_key(expected)
    assert winner == expected


@st.composite
def requests(draw):
    name = draw(st.sampled_from(sorted(CATALOGS)))
    catalog, embedded_ids = CATALOGS[name]
    form_factor = NodeSpec()
    if draw(st.booleans()):
        form_factor = BladeFormFactor(
            enclosure_capacity=draw(st.integers(2, 20)),
            enclosure_cost=0,
            embedded_edge_switch_id=draw(st.sampled_from(embedded_ids)),
            pass_through_cost=draw(st.sampled_from((None, 0, 250000))),
        )
    request = DesignRequest(
        node_count=draw(st.integers(2, 3000 if name == "demo" else 160)),
        blocking_factor=draw(st.sampled_from(BLOCKINGS)),
        form_factor=form_factor,
        avg_cable_cost=draw(st.sampled_from((0, DEFAULT_CABLE_COST, 40000))),
        prefer_expandability=draw(st.booleans()),
    )
    return request, catalog


@st.composite
def tied_catalogs(draw):
    """Small catalogs drawn from few prices and sizes, so that ranking ties are common."""
    switches = []
    for i in range(draw(st.integers(1, 5))):
        roles = draw(st.sampled_from((("edge",), ("core",), ("edge", "core"))))
        switches.append((SwitchConfig(
            source_id=f"sw{i}",
            ports=draw(st.sampled_from((4, 6, 8, 12, 16))),
            cost=draw(st.sampled_from((0, 100000, 200000))),
            power=0.0,
            rack_units=draw(st.sampled_from((1, 2))),
            weight=0.0,
        ), roles))
    return Catalog(
        edge_set=tuple(s for s, roles in switches if "edge" in roles),
        core_set=tuple(s for s, roles in switches if "core" in roles),
    )


@st.composite
def many_core_catalogs(draw):
    """Catalogs of 10 to 40 configurations, most of them cores, priced spread, all zero or all equal.

    Many cores per edge group give the winner-only ranking's per-core cost
    floor something to skip, and zero and equal prices give the cost ties
    that its strict comparison must pass on to the full ranking key.
    """
    pricing = draw(st.sampled_from(("spread", "zero", "equal")))
    shared = draw(st.integers(1, 500000))

    def price(spread_max=2000000):
        if pricing == "spread":
            return draw(st.integers(0, spread_max))
        return 0 if pricing == "zero" else shared

    family = ModularSwitchFamily(
        id="m",
        chassis_cost=price(),
        chassis_rack_units=draw(st.integers(1, 4)),
        chassis_power=0.0,
        chassis_weight=0.0,
        # under equal prices the chassis alone carries the price, so every line-card count costs the same
        fabric_board_cost=price() if pricing == "spread" else 0,
        fabric_boards_required=draw(st.integers(1, 2)),
        line_card_cost=price(400000) if pricing == "spread" else 0,
        ports_per_line_card=draw(st.sampled_from((4, 8, 12))),
        max_line_cards=draw(st.integers(2, 8)),
    )
    roles = frozenset(draw(st.sampled_from((("core",), ("edge", "core")))))
    switches = [(config, roles) for config in expand_modular(family)]
    for i in range(draw(st.integers(max(1, 10 - len(switches)), 40 - len(switches)))):
        # the first monolith is an edge switch, so every catalog has an edge group
        roles = ("edge",) if i == 0 else draw(st.sampled_from((("core",), ("core",), ("edge",), ("edge", "core"))))
        switches.append((SwitchConfig(
            source_id=f"sw{i:02d}",
            ports=draw(st.sampled_from((4, 6, 8, 12, 16, 24, 32, 36, 48, 64))),
            cost=price(),
            power=0.0,
            rack_units=draw(st.sampled_from((1, 2))),
            weight=0.0,
        ), roles))
    return Catalog(
        edge_set=tuple(s for s, roles in switches if "edge" in roles),
        core_set=tuple(s for s, roles in switches if "core" in roles),
    )


# A 16-port star sets the best cost before the one edge group, whose floor lies
# below it; two of its three cores lift that floor above it and are skipped.
STAR_BOUNDED = Catalog(
    edge_set=(SwitchConfig("e8", 8, 100000, 0.0, 1, 0.0),),
    core_set=(
        SwitchConfig("c8", 8, 100000, 0.0, 1, 0.0),
        SwitchConfig("c8dear", 8, 10000000, 0.0, 1, 0.0),
        SwitchConfig("s16", 16, 2000000, 0.0, 1, 0.0),
    ),
)


def test_per_core_floor_keeps_the_design_winner():
    """The winner-only ranking skips single cores that cannot win, and still finds design()'s winner.

    The plan's cores_skipped counts the cores that the per-core floor skips
    inside an edge group the ranking entered, before sizing them. The pinned
    example reaches that skip whatever the random draws are.
    """
    skipped_inside_a_group = []

    @settings(max_examples=60, deadline=None)
    @example(STAR_BOUNDED, [10], Fraction(1), 0)
    @given(
        many_core_catalogs(),
        st.lists(st.integers(2, 1500), min_size=1, max_size=4),
        st.sampled_from(BLOCKINGS),
        st.sampled_from((0, DEFAULT_CABLE_COST)),
    )
    def check(catalog, node_counts, blocking, cable_cost):
        for nodes in node_counts:
            for expandable in (False, True):
                request = DesignRequest(
                    node_count=nodes,
                    blocking_factor=blocking,
                    avg_cable_cost=cable_cost,
                    prefer_expandability=expandable,
                )
                assert_scan_matches_design(request, catalog)
            plan = SearchPlan(request, catalog)
            try:
                plan.winner(nodes)
            except DesignError:
                continue
            stats = plan.stats
            skipped_inside_a_group.append(stats.cores_skipped > 0)
            assert (
                stats.pairs_considered + stats.spread_variants
                == stats.pairs_skipped + stats.candidates_rejected + stats.candidates_ranked
            )

    check()
    assert any(skipped_inside_a_group)


@settings(max_examples=150, deadline=None)
@given(requests())
def test_scan_key_equals_design_winner(case):
    request, catalog = case
    assert_scan_matches_design(request, catalog)


@settings(max_examples=150, deadline=None)
@given(
    tied_catalogs(),
    st.integers(2, 120),
    st.sampled_from(BLOCKINGS),
    st.sampled_from((0, DEFAULT_CABLE_COST, 40000)),
)
def test_scan_key_equals_design_winner_under_ties(catalog, nodes, blocking, cable_cost):
    request = DesignRequest(node_count=nodes, blocking_factor=blocking, avg_cable_cost=cable_cost)
    assert_scan_matches_design(request, catalog)


@pytest.mark.parametrize(
    "nodes, blocking, kind, uniform",
    [
        (9, Fraction(1), "star", False),
        (16, Fraction(1), "fat_tree", True),
        (22, Fraction(3), "fat_tree", True),
        (65, Fraction(1), "fat_tree", False),
    ],
)
def test_scan_covers_star_and_uniform_winners(nodes, blocking, kind, uniform):
    request = DesignRequest(node_count=nodes, blocking_factor=blocking)
    winner = design(request, SMALL).winner
    assert (winner.kind, winner.uniform_distribution) == (kind, uniform)
    assert_scan_matches_design(request, SMALL)


def test_scan_breaks_cost_ties_like_design():
    # free switches and cables: every pairing costs 0, so switch count decides
    few = SwitchConfig("few", 4, 0, 0.0, 1, 0.0)
    many = SwitchConfig("many", 16, 0, 0.0, 1, 0.0)
    catalog = Catalog(edge_set=(few, many), core_set=(many,))
    assert_scan_matches_design(DesignRequest(node_count=20, avg_cable_cost=0), catalog)


def test_scan_rejects_constrained_requests():
    plan = SearchPlan(DesignRequest(node_count=60, constraints=ConstraintSet(max_network_rack_units=9)), DEMO)
    with pytest.raises(ValueError):
        plan.winner(60)


def reference_fit_max_nodes(capacity_units, catalog, blocking, node_spec=NodeSpec()):
    """fit_max_nodes as a plain descending loop of full design() searches."""
    for nodes in range(capacity_units // node_spec.rack_units, 1, -1):
        request = DesignRequest(node_count=nodes, blocking_factor=blocking, form_factor=node_spec)
        try:
            winner = design(request, catalog).winner
        except DesignError:
            continue
        if nodes * node_spec.rack_units + winner.metrics.rack_units <= capacity_units:
            return CapacityFit(capacity_units=capacity_units, node_count=nodes, design=winner)
    raise PlacementError(f"no node count fits in {capacity_units}U")


def test_fit_max_nodes_walk_starts_at_the_catalog_reach():
    # the demo catalog reaches 1,944 nodes at blocking 1, and no larger count has a design
    assert SearchPlan(DesignRequest(node_count=2), DEMO).max_reachable == 1944
    huge = fit_max_nodes(10**8, DEMO, Fraction(1))
    fitted = fit_max_nodes(2344, DEMO, Fraction(1))
    assert (huge.node_count, huge.design) == (fitted.node_count, fitted.design)
    assert (huge.node_count, huge.design.metrics.rack_units) == (1944, 234)


@pytest.mark.parametrize("name", sorted(CATALOGS))
@pytest.mark.parametrize("node_units", [1, 2])
def test_fit_max_nodes_matches_full_search(name, node_units):
    catalog, _ = CATALOGS[name]
    node_spec = NodeSpec(rack_units=node_units)
    for capacity in (3, 20, 42, 84, 126, 210):
        for blocking in (Fraction(1), Fraction(3, 2)):
            try:
                expected = reference_fit_max_nodes(capacity, catalog, blocking, node_spec)
            except PlacementError:
                with pytest.raises(PlacementError):
                    fit_max_nodes(capacity, catalog, blocking, node_spec)
                continue
            assert fit_max_nodes(capacity, catalog, blocking, node_spec) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(tied_catalogs(), many_core_catalogs()),
    st.integers(0, 160),
    st.sampled_from(BLOCKINGS),
    st.sampled_from((1, 2)),
)
def test_fit_max_nodes_matches_full_search_on_random_catalogs(catalog, capacity, blocking, node_units):
    """The whole CapacityFit, winner design included, equals the plain walk of design() searches."""
    node_spec = NodeSpec(rack_units=node_units)
    try:
        expected = reference_fit_max_nodes(capacity, catalog, blocking, node_spec)
    except PlacementError:
        with pytest.raises(PlacementError):
            fit_max_nodes(capacity, catalog, blocking, node_spec)
        return
    assert fit_max_nodes(capacity, catalog, blocking, node_spec) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(tied_catalogs(), many_core_catalogs()),
    st.sampled_from((0, DEFAULT_CABLE_COST, 40000)),
    st.data(),
)
def test_sweep_matches_design_on_random_switches(catalog, cable_cost, data):
    """Every sweep point's designed cost is design()'s winning cost for that node count."""
    config = data.draw(st.sampled_from(catalog.configs()))
    reach = config.ports * (config.ports // 2)  # the largest node count the estimate takes
    first = data.draw(st.integers(2, reach))
    last = data.draw(st.integers(first, min(reach, first + 30)))
    points = sweep_lower_bound(config, first, last, cable_cost)
    assert [point.node_count for point in points] == list(range(first, last + 1))
    for point in points:
        request = DesignRequest(node_count=point.node_count, avg_cable_cost=cable_cost)
        assert point.actual_cost == design(request, single_model_catalog(config)).winner.objective


def test_star_table_keeps_the_cheapest_star():
    """A wider switch that costs less is the star, not the narrowest switch that holds the nodes."""
    narrow = SwitchConfig("s8", 8, 500000, 0.0, 1, 0.0)
    wide = SwitchConfig("s16", 16, 200000, 0.0, 1, 0.0)
    catalog = Catalog(edge_set=(narrow, wide), core_set=(narrow,))
    for nodes in range(2, 17):
        request = DesignRequest(node_count=nodes)
        assert design(request, catalog).winner.edge_config == wide
        assert_scan_matches_design(request, catalog)


def test_core_layers_pair_with_their_cores_in_price_order():
    """Each core meets its own layer although the catalog lists the cores out of price order.

    The 8-port core is too narrow for ten edge switches and the 32-port one
    is not; paired with the other's layer, the cheap core would win.
    """
    catalog = Catalog(
        edge_set=(SwitchConfig("e8", 8, 100000, 0.0, 1, 0.0),),
        core_set=(SwitchConfig("c32", 32, 900000, 0.0, 2, 0.0), SwitchConfig("c8", 8, 100000, 0.0, 1, 0.0)),
    )
    for nodes in range(33, 61):
        request = DesignRequest(node_count=nodes)
        assert design(request, catalog).winner.core_config.config_id == "c32"
        assert_scan_matches_design(request, catalog)


def test_winner_builds_only_the_groups_its_floor_reaches(monkeypatch):
    """winner(N) builds an edge model's group only when no cheaper floor is left, not one group per model.

    Twelve edge models whose prices per port lie far apart: over a scan of
    2..400 nodes, the cheap models' designs set a best cost that every
    dear model's bound exceeds, so those are never built. Every group the
    walk visits was built.
    """
    edges = tuple(
        SwitchConfig(f"e{i:02d}", ports, 100000 * ports * (1 + (i * 5) % 12), 0.0, 1, 0.0)
        for i, ports in enumerate((8, 12, 16, 24, 32, 36, 48, 64, 8, 16, 24, 48))
    )
    catalog = Catalog(edge_set=edges, core_set=(SwitchConfig("c64", 64, 1500000, 0.0, 2, 0.0),))
    built = []
    edge_group = SearchPlan._edge_group

    def counted(self, node_count, config, ports_to_nodes, ports_to_core):
        built.append(config.config_id)
        return edge_group(self, node_count, config, ports_to_nodes, ports_to_core)

    monkeypatch.setattr(SearchPlan, "_edge_group", counted)
    plan = SearchPlan(DesignRequest(node_count=2), catalog)
    node_counts = range(2, 401)
    for nodes in node_counts:
        plan.winner(nodes)
    groups = len(edges) * len(node_counts)
    assert groups - plan.stats.groups_cut <= len(built) < groups // 4


def test_groups_are_visited_in_floor_order():
    """The walk takes the group with the lowest floor first, not the model with the lowest cost per node port.

    At 100 nodes the 32-port model costs less per node port (10 against 10.5)
    but needs 7 switches (1,120) where the 40-port one needs 5 (1,050). The
    40-port group goes first and wins at 1,052, below the 32-port group's
    floor of 1,121, so that group is cut without being visited.
    """
    catalog = Catalog(
        edge_set=(SwitchConfig("e32", 32, 160, 0.0, 1, 0.0), SwitchConfig("e40", 40, 210, 0.0, 1, 0.0)),
        core_set=(SwitchConfig("c64", 64, 1, 0.0, 1, 0.0),),
    )
    request = DesignRequest(node_count=100, avg_cable_cost=0)
    plan = SearchPlan(request, catalog)
    winner = plan.winner(100)
    assert (winner.edge_config.config_id, winner.objective) == ("e40", 1052)
    assert plan.stats.groups_cut == 1
    assert_scan_matches_design(request, catalog)


# (catalog, blocking, prefer expandability, blade form factor, last node count, SearchStats counters)
PINNED_SCANS = [
    ("demo", Fraction(1), False, None, 699, (4209, 477, 46, 0, 3778, 35, 432)),
    ("demo", Fraction(3), True, None, 699, (4308, 213, 0, 0, 4095, 35, 333)),
    ("small", Fraction(1), False, None, 169, (2888, 2696, 4, 0, 196, 244, 92)),
    ("small", Fraction(3, 2), True, None, 169, (2636, 2417, 0, 0, 219, 296, 84)),
    ("small", Fraction(1), False, BladeFormFactor(8, 0, "e12", 0), 169, (765, 617, 5, 0, 153, 15, 0)),
]


@pytest.mark.parametrize("name, blocking, expandable, blades, last, counters", PINNED_SCANS)
def test_scan_stats_are_pinned(name, blocking, expandable, blades, last, counters):
    """SearchStats after a winner-only scan of 2..last nodes, as commit 18c77958bc58 counted them.

    The counters were recorded at that commit, before the winner-only ranking
    got its own loop over price-ordered cores, so that any rewrite of the
    ranking keeps what each counter counts.
    """
    catalog, _ = CATALOGS[name]
    request = DesignRequest(
        node_count=2, blocking_factor=blocking, form_factor=blades or NodeSpec(), prefer_expandability=expandable
    )
    plan = SearchPlan(request, catalog)
    for nodes in range(2, last + 1):
        try:
            plan.winner(nodes)
        except DesignError:
            pass
    stats = plan.stats
    assert (
        stats.pairs_considered, stats.pairs_skipped, stats.spread_variants, stats.candidates_rejected,
        stats.candidates_ranked, stats.groups_cut, stats.cores_skipped,
    ) == counters
    assert not stats.rejections
