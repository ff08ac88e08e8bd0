"""design()'s ranking against an eager reference ranker, a reordered and a scaled catalog, and the lazy candidates."""

import json
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fattree_design import designer
from fattree_design.catalog import Catalog, bundled_catalog_path, load_catalog, load_catalog_file
from fattree_design.designer import (
    BladeFormFactor,
    ConstraintSet,
    CoreStage,
    DesignError,
    DesignInfeasibleError,
    DesignMetrics,
    DesignRequest,
    EdgeSplit,
    FatTreeDesign,
    InsufficientRadixError,
    NodeSpec,
    SearchPlan,
    SearchStats,
    cable_count,
    design,
    violation_text,
)
from fattree_design.report import design_report_document, render_design_text, to_json

DEMO = load_catalog_file(bundled_catalog_path("demo_catalog"))


def sort_key(candidate):
    return (
        candidate.objective,
        candidate.switch_count,
        candidate.metrics.rack_units,
        candidate.edge_config.config_id,
        candidate.core_config.config_id if candidate.core_config else "",
    )


def build(request, kind, edge_config, split, cables, core_config=None, stage=None,
          extra_cost=0, max_supported_nodes=0, **flags):
    core_count = stage.core_count if stage else 0
    mix = (core_config or designer._NO_CORE, core_count, cables)
    metrics = DesignMetrics(*designer._network_metrics(request, edge_config, split.edge_count, (mix,), extra_cost)[0])
    return FatTreeDesign(
        kind=kind,
        node_count=request.node_count,
        edge_config=edge_config,
        core_config=core_config,
        split=split,
        core_stage=stage,
        cable_count=cables,
        metrics=metrics,
        max_supported_nodes=max_supported_nodes,
        **flags,
    )


def build_fat_tree(request, edge_config, core_config, split, stage, uniform):
    cables = cable_count(request.node_count, split.edge_count, split.ports_to_core, request.blades is not None)
    return build(request, "fat_tree", edge_config, split, cables, core_config, stage,
                 max_supported_nodes=core_config.ports * split.ports_to_nodes, uniform_distribution=uniform)


def spare_ports(candidate):
    """Ports left for growth: unused switch ports plus line-card headroom."""
    nodes, edge = candidate.node_count, candidate.edge_config
    if candidate.kind == "fat_tree":
        core = candidate.core_config
        return candidate.core_count * (core.ports + core.expandable_ports) - (
            candidate.edge_count * candidate.split.ports_to_core
        )
    if candidate.kind == "star":
        return edge.ports - nodes + edge.expandable_ports
    # direct connect: a cross cable takes a port on both switches, or one switch port and a panel port
    used = nodes + 2 * candidate.cable_count if candidate.edge_count == 2 else nodes + candidate.cable_count
    return max(0, candidate.edge_count * edge.ports - used)


def violations(candidate, constraints):
    """(constraint, limit, actual) of each limit the candidate breaks, in field order."""
    metrics = candidate.metrics
    found = []
    for name, actual, broken in (
        ("max_network_rack_units", metrics.rack_units, lambda a, limit: a > limit),
        ("min_spare_core_ports", spare_ports(candidate), lambda a, limit: a < limit),
        ("max_network_power", metrics.power, lambda a, limit: a > limit),
        ("max_network_cost", metrics.cost, lambda a, limit: a > limit),
    ):
        limit = getattr(constraints, name)
        if limit is not None and broken(actual, limit):
            found.append((name, limit, actual))
    return found


def trivial_designs(request, catalog):
    """The best feasible direct interconnect of two enclosures and the best feasible star, each when one exists."""
    best = []
    blades, nodes = request.blades, request.node_count
    if blades and blades.enclosure_capacity < nodes <= 2 * blades.enclosure_capacity:
        wanted = blades.embedded_edge_switch_id
        edge = next(c for c in catalog.edge_set if wanted in (c.source_id, c.config_id))
        cables, capacity = edge.ports // 2, blades.enclosure_capacity
        variants = [build(request, "direct_connect", edge, EdgeSplit(capacity, cables, None, 2), cables,
                          max_supported_nodes=2 * capacity)]
        if blades.pass_through_cost is not None:
            variants.append(build(request, "direct_connect", edge, EdgeSplit(capacity, cables, None, 1),
                                  cables, extra_cost=blades.pass_through_cost, max_supported_nodes=2 * capacity,
                                  pass_through=True))
        feasible = [v for v in variants if not violations(v, request.constraints)]
        if feasible:
            best.append(min(feasible, key=lambda v: (v.objective, v.edge_count)))
    cables = 0 if blades else nodes
    stars = [
        build(request, "star", config, EdgeSplit(nodes, 0, None, 1), cables,
              max_supported_nodes=config.ports)
        for config in catalog.configs()
        if config.ports >= nodes
    ]
    feasible = [s for s in stars if not violations(s, request.constraints)]
    if feasible:
        best.append(min(feasible, key=lambda s: (s.objective, s.edge_config.ports, s.edge_config.config_id)))
    return best


def reference_pairs(request, catalog):
    """Every edge x core pair the rules allow, as (edge, core, split, core stage, uniform), in catalog order.

    Worked out here from the rules alone, with no help from the program's
    search: an edge switch gives nodes the most ports whose node:uplink ratio
    stays within the blocking factor, and never more than an enclosure has
    bays; enough such switches host every node; a core switch needs a port
    per edge switch, and each bundle takes as many links as its ports allow.
    The even spread puts the same number of nodes (give or take one) on
    every edge switch with the fewest uplinks the blocking allows. It is a
    candidate, after the baseline, only when it needs fewer uplinks and
    fewer core switches. Returns (pairs, the largest node count any design
    reaches).
    """
    nodes, blocking = request.node_count, request.blocking_factor
    edge_configs = catalog.edge_set
    reach = max(config.ports for config in catalog.configs())
    if request.blades:
        capacity, wanted = request.form_factor.enclosure_capacity, request.form_factor.embedded_edge_switch_id
        edge_configs = [next(c for c in catalog.edge_set if wanted in (c.source_id, c.config_id))]
        reach = max(reach, 2 * capacity)

    def core_layer(edges, uplinks, core):
        width = min(core.ports // edges, uplinks)
        return CoreStage(width, -(-uplinks // width)) if width else None

    pairs = []
    for edge in edge_configs:
        to_nodes = max((n for n in range(1, edge.ports) if Fraction(n, edge.ports - n) <= blocking), default=None)
        if to_nodes is None:
            continue
        uplinks = edge.ports - to_nodes
        if request.blades:
            to_nodes = min(to_nodes, capacity)
        reach = max(reach, max(core.ports for core in catalog.core_set) * to_nodes)
        edges = -(-nodes // to_nodes)
        split = EdgeSplit(to_nodes, uplinks, Fraction(to_nodes, uplinks), edges)
        per_switch = -(-nodes // edges)
        even_uplinks = math.ceil(per_switch / blocking)
        spread = EdgeSplit(per_switch, even_uplinks, Fraction(per_switch, even_uplinks), edges)
        for core in catalog.core_set:
            stage = core_layer(edges, uplinks, core)
            if stage is None:
                continue
            pairs.append((edge, core, split, stage, False))
            if request.prefer_expandability or even_uplinks >= uplinks:
                continue
            even = core_layer(edges, even_uplinks, core)
            if even is not None and even.core_count < stage.core_count:
                pairs.append((edge, core, spread, even, True))
    return pairs, reach


def eager_design(request, catalog):
    """Reference ranker: build every candidate, filter it with its own constraint check, sort all of them.

    A rejected trivial variant is dropped without a trace; a rejected pair
    is listed as an (edge id, core id, violations) record. Returns (ranked
    candidates, rejected) and raises what design() raises.
    """
    pairs, reach = reference_pairs(request, catalog)
    candidates, rejected = trivial_designs(request, catalog), []
    for edge, core, split, stage, uniform in pairs:
        candidate = build_fat_tree(request, edge, core, split, stage, uniform)
        broken = violations(candidate, request.constraints)
        if broken:
            rejected.append((edge.config_id, core.config_id, tuple(broken)))
        else:
            candidates.append(candidate)
    if not candidates:
        if rejected:
            raise DesignInfeasibleError(sorted({name for *_, broken in rejected for name, _, _ in broken}))
        raise InsufficientRadixError(request.node_count, reach)
    return sorted(candidates, key=sort_key), rejected


@st.composite
def catalogs(draw):
    """Catalog documents from small value pools, so that ties are common; some have modular families."""
    roles = st.sampled_from((["edge"], ["core"], ["edge", "core"]))
    monolithic = [
        {
            "id": f"s{i}", "name": "",
            "ports": draw(st.sampled_from((4, 6, 8, 12, 16, 24, 36, 48))),
            "cost": draw(st.sampled_from((0, 100000, 150000, 300000))),
            "power": draw(st.sampled_from((0, 20.5, 60))),
            "rack_units": draw(st.sampled_from((1, 2))),
            "weight": draw(st.sampled_from((0, 1.5))),
            "roles": draw(roles),
        }
        for i in range(draw(st.integers(1, 4)))
    ]
    modular = []
    for i in range(draw(st.integers(0, 2))):
        family = {
            "id": f"m{i}",
            "chassis_cost": draw(st.sampled_from((0, 500000))),
            "chassis_rack_units": draw(st.integers(1, 3)),
            "chassis_power": draw(st.sampled_from((0, 100))),
            "chassis_weight": draw(st.sampled_from((0, 10.0))),
            "fabric_board_cost": draw(st.sampled_from((0, 50000))),
            "fabric_boards_required": draw(st.integers(1, 2)),
            "line_card_cost": draw(st.sampled_from((0, 150000))),
            "ports_per_line_card": draw(st.sampled_from((2, 4, 8))),
            "max_line_cards": draw(st.integers(1, 4)),
            "roles": draw(roles),
        }
        if draw(st.booleans()):
            family["per_line_card_power"] = 12.5
        modular.append(family)
    entries = monolithic + modular
    if not any("edge" in entry["roles"] for entry in entries):
        entries[0]["roles"] = ["edge", *entries[0]["roles"]]
    if not any("core" in entry["roles"] for entry in entries):
        entries[-1]["roles"] = [*entries[-1]["roles"], "core"]
    document = {"currency": "USD", "monolithic": monolithic, "modular": modular}
    return load_catalog(json.dumps(document)), [e["id"] for e in entries if "edge" in e["roles"]]


@st.composite
def cases(draw):
    catalog, edge_ids = draw(catalogs())
    form_factor = NodeSpec()
    nodes = st.integers(2, 80)
    if draw(st.booleans()):
        form_factor = BladeFormFactor(
            enclosure_capacity=draw(st.integers(2, 20)),
            enclosure_cost=draw(st.sampled_from((0, 700000))),
            embedded_edge_switch_id=draw(st.sampled_from(edge_ids)),
            pass_through_cost=draw(st.sampled_from((None, 0, 250000))),
        )
        # two enclosures' worth, where the direct interconnect competes
        capacity = form_factor.enclosure_capacity
        nodes = nodes | st.integers(capacity + 1, 2 * capacity)
    maybe = lambda values: draw(st.sampled_from((None, *values)))  # noqa: E731
    constraints = ConstraintSet(
        max_network_rack_units=maybe((4, 12, 40)),
        min_spare_core_ports=maybe((0, 8, 64)),
        max_network_power=maybe((150.5, 1000, 5000.0)),
        max_network_cost=maybe((1_000_000, 5_000_000, 20_000_000)),
    )
    request = DesignRequest(
        node_count=draw(nodes),
        blocking_factor=draw(st.sampled_from((Fraction(1), Fraction(2), Fraction(3, 2), Fraction(3), Fraction(1, 2)))),
        form_factor=form_factor,
        avg_cable_cost=draw(st.sampled_from((0, 8000, 40000))),
        constraints=constraints if draw(st.booleans()) else ConstraintSet(),
        prefer_expandability=draw(st.booleans()),
    )
    return request, catalog


@settings(max_examples=200, deadline=None)
@given(cases())
def test_design_ranks_like_the_eager_reference(case):
    request, catalog = case
    try:
        expected, expected_rejected = eager_design(request, catalog)
    except DesignError as error:
        with pytest.raises(type(error)) as raised:
            design(request, catalog)
        assert str(raised.value) == str(error)
        return
    report = design(request, catalog)
    assert [sort_key(c) for c in report.candidates] == [sort_key(c) for c in expected]
    assert list(report.candidates) == expected
    assert report.rejected == tuple(expected_rejected)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_search_stats_add_up(case):
    """rank()'s counters against the reference's pairs and rejects: considered = skipped + kept + rejected."""
    request, catalog = case
    pairs, _ = reference_pairs(request, catalog)
    baseline = sum(1 for *_, uniform in pairs if not uniform)
    plan = SearchPlan(request, catalog)
    try:
        expected, expected_rejected = eager_design(request, catalog)
    except DesignError:
        # nothing ranked: every pair (if any) was rejected
        expected, expected_rejected = [], [None] * len(pairs)
        with pytest.raises(DesignError):
            plan.rank()
    else:
        plan.rank()
    stats = plan.stats
    assert stats.pairs_considered == len(plan.edges) * len(catalog.core_set)
    assert stats.pairs_skipped == stats.pairs_considered - baseline
    assert stats.spread_variants == len(pairs) - baseline
    assert stats.candidates_ranked == sum(candidate.kind == "fat_tree" for candidate in expected)
    assert stats.candidates_rejected == len(expected_rejected)
    if expected:
        assert stats.rejections == Counter(name for *_, broken in expected_rejected for name, _, _ in broken)
    assert (
        stats.pairs_considered + stats.spread_variants
        == stats.pairs_skipped + stats.candidates_rejected + stats.candidates_ranked
    )
    assert (stats.groups_cut, stats.cores_skipped) == (0, 0)  # the full ranking cuts nothing


def reference_stats(request, catalog):
    """design()'s SearchStats, derived as test_search_stats_add_up derives them; raises what design() raises."""
    expected, rejected = eager_design(request, catalog)
    pairs, _ = reference_pairs(request, catalog)
    baseline = sum(1 for *_, uniform in pairs if not uniform)
    considered = len(SearchPlan(request, catalog).edges) * len(catalog.core_set)
    return SearchStats(
        pairs_considered=considered,
        pairs_skipped=considered - baseline,
        spread_variants=len(pairs) - baseline,
        candidates_rejected=len(rejected),
        rejections=Counter(name for *_, broken in rejected for name, _, _ in broken),
        candidates_ranked=sum(candidate.kind == "fat_tree" for candidate in expected),
    )


@settings(max_examples=100, deadline=None)
@given(cases())
def test_design_report_carries_the_plan_stats(case):
    """design() puts its plan's counters on the report, outside its equality and repr."""
    request, catalog = case
    try:
        expected = reference_stats(request, catalog)
    except DesignError:
        return
    report = design(request, catalog)
    assert report.stats == expected
    assert "stats" not in repr(report)
    assert report == replace(report, stats=SearchStats())


def large_catalog():
    """A catalog built in code: 24 monolithic models over 8 port counts and 3 modular families, with tied prices.

    Its 41 core configurations have 11 port counts between them, and every fourth monolithic model is
    core-only, so a core layer serves many cores and many pairs tie on cost.
    """
    pool = (8, 12, 16, 24, 32, 36, 48, 64)
    monolithic = [
        {
            "id": f"s{i:02d}", "name": "",
            "ports": pool[i % 8],
            "cost": pool[i % 8] * (15000 + 5000 * (i % 3)),
            "power": 20.0 + 3.5 * pool[i % 8] + i % 4,
            "rack_units": 1 if pool[i % 8] <= 36 else 2,
            "weight": 3.0 + 0.5 * (i % 5),
            "roles": ["core"] if i % 4 == 3 else ["edge", "core"],
        }
        for i in range(24)
    ]
    family = {"chassis_rack_units": 5, "chassis_power": 300, "chassis_weight": 60.0, "fabric_board_cost": 400000,
              "fabric_boards_required": 2, "per_line_card_power": 30, "per_line_card_weight": 2.5, "roles": ["core"]}
    modular = [
        dict(family, id="x0", chassis_cost=2000000, line_card_cost=900000, ports_per_line_card=8, max_line_cards=8),
        dict(family, id="x1", chassis_cost=1500000, line_card_cost=1200000, ports_per_line_card=12, max_line_cards=5),
        dict(family, id="x2", chassis_cost=2000000, line_card_cost=1500000, ports_per_line_card=16, max_line_cards=4),
    ]
    return load_catalog({"currency": "USD", "monolithic": monolithic, "modular": modular})


LARGE = large_catalog()
BLADES = BladeFormFactor(enclosure_capacity=16, enclosure_cost=500000, embedded_edge_switch_id="s05",
                         pass_through_cost=0)


@pytest.mark.parametrize("request_", [
    DesignRequest(node_count=60),
    DesignRequest(node_count=700, blocking_factor=Fraction(3, 2)),
    DesignRequest(node_count=2200, blocking_factor=Fraction(3), avg_cable_cost=0),
    DesignRequest(node_count=300, blocking_factor=Fraction(1, 2)),
    DesignRequest(node_count=900, blocking_factor=Fraction(2), prefer_expandability=True),
    DesignRequest(node_count=500, constraints=ConstraintSet(max_network_rack_units=60, max_network_power=9000.0)),
    DesignRequest(node_count=24, form_factor=BLADES, avg_cable_cost=0),
    DesignRequest(node_count=400, form_factor=BLADES, blocking_factor=Fraction(2)),
    DesignRequest(node_count=500, constraints=ConstraintSet(max_network_rack_units=72)),
    DesignRequest(node_count=500, constraints=ConstraintSet(min_spare_core_ports=144)),
    DesignRequest(node_count=700, blocking_factor=Fraction(3, 2), constraints=ConstraintSet(min_spare_core_ports=196)),
    DesignRequest(node_count=500, constraints=ConstraintSet(max_network_power=7500)),
    DesignRequest(node_count=500, constraints=ConstraintSet(max_network_cost=49_792_000)),
    DesignRequest(node_count=500, constraints=ConstraintSet(
        max_network_rack_units=112, min_spare_core_ports=64, max_network_power=10464.0, max_network_cost=132_352_000)),
    DesignRequest(node_count=400, form_factor=BLADES, blocking_factor=Fraction(2),
                  constraints=ConstraintSet(max_network_rack_units=20, max_network_power=6000.5)),
    DesignRequest(node_count=900, blocking_factor=Fraction(2), prefer_expandability=True,
                  constraints=ConstraintSet(min_spare_core_ports=231, max_network_cost=136_684_000)),
], ids=["60", "700-3/2", "2200-3", "300-1/2", "900-2-expandable", "500-constrained", "24-blades", "400-blades",
        "500-max-ru", "500-min-spare", "700-3/2-min-spare", "500-max-power", "500-max-cost", "500-all-limits",
        "400-blades-constrained", "900-2-expandable-constrained"])
def test_large_catalog_ranks_like_the_eager_reference(request_):
    """The whole ranking, the rejected pairs and the counters, on a catalog where many cores share a port count.

    The constrained requests pin the limit filter's numbers: the reference prices each pair through
    _network_metrics and counts its spare ports from the built design.
    """
    assert len(LARGE.core_set) == 41 and len({core.ports for core in LARGE.core_set}) == 11
    expected, expected_rejected = eager_design(request_, LARGE)
    report = design(request_, LARGE)
    assert list(report.candidates) == expected
    assert report.rejected == tuple(expected_rejected)
    assert report.stats == reference_stats(request_, LARGE)
    if request_.constraints != ConstraintSet():
        assert report.rejected and report.candidates  # the limits cut some pairs, not all


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(2, 7))
def test_scaling_every_price_scales_the_ranking(case, k):
    """Metamorphic: k times every price and the cable cost gives k times every objective, in the same order."""
    request, catalog = case
    scale = lambda configs: tuple(replace(config, cost=k * config.cost) for config in configs)  # noqa: E731
    scaled_catalog = Catalog(scale(catalog.edge_set), scale(catalog.core_set))
    form_factor = request.form_factor
    if request.blades:
        pass_through = form_factor.pass_through_cost
        form_factor = replace(form_factor, enclosure_cost=k * form_factor.enclosure_cost,
                              pass_through_cost=None if pass_through is None else k * pass_through)
    limit = request.constraints.max_network_cost
    constraints = replace(request.constraints, max_network_cost=None if limit is None else k * limit)
    scaled = replace(request, form_factor=form_factor, avg_cable_cost=k * request.avg_cable_cost,
                     constraints=constraints)
    try:
        report = design(request, catalog)
    except DesignError as error:
        with pytest.raises(type(error)):
            design(scaled, scaled_catalog)
        return
    other = design(scaled, scaled_catalog)
    assert [k * candidate.objective for candidate in report.candidates] == [c.objective for c in other.candidates]
    identity = lambda c: (c.kind, c.edge_config.config_id, c.core_config and c.core_config.config_id,  # noqa: E731
                          c.uniform_distribution)
    assert list(map(identity, other.candidates)) == list(map(identity, report.candidates))


@pytest.fixture
def builds(monkeypatch):
    """Counts the designs built from ranking records."""
    calls = []
    build_ranked = designer._build_ranked

    def counting(*args, **kwargs):
        calls.append(args)
        return build_ranked(*args, **kwargs)

    monkeypatch.setattr(designer, "_build_ranked", counting)
    return calls


def test_candidates_are_built_when_read(builds, monkeypatch):
    """Ranking records hold plain numbers: each design, and its one EdgeSplit, is built when it is read."""
    splits = []
    edge_split = designer.EdgeSplit

    def counting(*args, **kwargs):
        splits.append(args)
        return edge_split(*args, **kwargs)

    monkeypatch.setattr(designer, "EdgeSplit", counting)
    report = design(DesignRequest(node_count=60), DEMO)
    assert report.winner.kind == "fat_tree"
    assert len(builds) == len(splits) == 1
    assert len(report.candidates) > 5
    assert len(builds) == len(splits) == 1
    assert report.winner is report.candidates[0]
    assert len(builds) == len(splits) == 1
    list(report.candidates)
    assert len(builds) == len(splits) == len(report.candidates)


@pytest.mark.parametrize("render", [
    lambda report: render_design_text(report, "USD", top=5),
    lambda report: design_report_document(report, "USD", top=5),
])
def test_rendering_the_top_5_builds_at_most_5_designs(builds, render):
    report = design(DesignRequest(node_count=60), DEMO)
    render(report)
    assert len(report.candidates) > 5
    assert len(builds) <= 5


def test_repeated_reads_return_the_same_objects():
    candidates = design(DesignRequest(node_count=60), DEMO).candidates
    count = len(candidates)
    assert candidates[-1] is candidates[count - 1]
    assert candidates[-2] is candidates[count - 2]
    sliced = candidates[1:4]
    assert isinstance(sliced, tuple) and len(sliced) == 3
    assert all(a is candidates[i] for i, a in enumerate(sliced, start=1))
    assert candidates[::-1][0] is candidates[-1]
    first, second = list(candidates), list(candidates)
    assert len(first) == count
    assert all(a is b for a, b in zip(first, second))
    assert candidates[-count] is candidates[0]
    with pytest.raises(IndexError):
        candidates[count]
    with pytest.raises(IndexError):
        candidates[-count - 1]


# Characters that JSON escapes, or writes as \uXXXX under ensure_ascii: quote, backslash, controls, non-ASCII.
ODD_ID_TEXT = st.text(st.sampled_from('"\\\x00\x1f\x7f\n/ aé✓\u2028\U0001f600'), max_size=3)


@st.composite
def rejecting_cases(draw):
    """cases() with limits at one ranked design's numbers, so that most draws reject pairs, and odd config ids."""
    request, catalog = draw(cases())
    names = {}

    def rename(config):
        if config.source_id not in names:
            names[config.source_id] = draw(ODD_ID_TEXT) + config.source_id + draw(ODD_ID_TEXT)
        return replace(config, source_id=names[config.source_id])

    catalog = Catalog(tuple(map(rename, catalog.edge_set)), tuple(map(rename, catalog.core_set)))
    form_factor = request.form_factor
    if request.blades:
        form_factor = replace(form_factor, embedded_edge_switch_id=names[request.blades.embedded_edge_switch_id])
    request = replace(request, form_factor=form_factor, constraints=ConstraintSet())
    try:
        ranked = design(request, catalog).candidates
    except DesignError:
        return request, catalog
    # that design meets these limits (unless it lacks the spare ports), and what costs or takes more is rejected
    metrics = ranked[draw(st.integers(0, min(3, len(ranked) - 1)))].metrics
    maybe = lambda value: draw(st.sampled_from((None, value, value, value)))  # noqa: E731
    constraints = ConstraintSet(
        max_network_rack_units=maybe(metrics.rack_units),
        min_spare_core_ports=draw(st.sampled_from((None, 0, 8))),
        max_network_power=maybe(metrics.power),
        max_network_cost=maybe(metrics.cost),
    )
    return replace(request, constraints=constraints), catalog


def reference_json(report, currency, top):
    """The report's JSON as json.dumps writes it with one dict per rejected pair."""
    document = design_report_document(report, currency, top)
    document["rejected_candidates"] = [
        {"edge": edge_id, "core": core_id, "violations": [violation_text(*v) for v in violations]}
        for edge_id, core_id, violations in report.rejected
    ]
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


@settings(max_examples=150, deadline=None)
@given(rejecting_cases(), st.sampled_from((None, 0, 3)))
def test_rejected_pairs_are_written_as_json_dumps_writes_them(case, top):
    request, catalog = case
    try:
        report = design(request, catalog)
    except DesignError:
        return
    assert to_json(design_report_document(report, "USD", top)) == reference_json(report, "USD", top)


def test_equal_violations_keep_their_own_text():
    """The writer words a violation tuple once, yet an equal one of another type or sign keeps its own text."""
    shared = ("max_network_power", 1, 2.5)
    records = (
        ("e0", "c0", (("max_network_rack_units", 0, 3), shared)),
        ("e0", "c1", (("max_network_rack_units", -0.0, 3), shared)),
        ("e1", "c0", (("max_network_power", 1.0, 2.5), ("min_spare_core_ports", 1, -0.0))),
        ("e1", "c1", (shared, ("min_spare_core_ports", 1.0, 0), ("max_network_rack_units", 0, 3))),
    )
    document = design_report_document(design(DesignRequest(node_count=60), DEMO), "USD", 1)
    document["rejected_candidates"] = records
    expected = dict(document, rejected_candidates=[
        {"edge": edge_id, "core": core_id, "violations": [violation_text(*v) for v in violations]}
        for edge_id, core_id, violations in records
    ])
    text = to_json(document)
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert '"max_network_rack_units: 3 exceeds limit -0"' in text
    assert '"min_spare_core_ports: -0 below minimum 1"' in text


@st.composite
def reordered_cases(draw):
    """(request, catalog, the same catalog reordered) from cases() or rejecting_cases().

    Half the catalogs give every switch one price, so that costs tie and the ranking rests on its tie-breaks.
    """
    request, catalog = draw(st.one_of(cases(), rejecting_cases()))
    if draw(st.booleans()):
        price = draw(st.sampled_from((0, 100000)))
        priced = lambda configs: tuple(replace(config, cost=price) for config in configs)  # noqa: E731
        catalog = Catalog(priced(catalog.edge_set), priced(catalog.core_set))
    edges, cores = draw(st.permutations(catalog.edge_set)), draw(st.permutations(catalog.core_set))
    reordered = Catalog(tuple(edges), tuple(cores))
    return request, catalog, reordered


@settings(max_examples=150, deadline=None)
@given(reordered_cases())
def test_catalog_order_does_not_change_the_answer(case):
    """Metamorphic: the same switches listed in another order give the same ranking, winner and rejected pairs."""
    request, catalog, reordered = case
    try:
        report = design(request, catalog)
    except DesignError as error:
        with pytest.raises(type(error)) as raised:
            design(request, reordered)
        assert str(raised.value) == str(error)
        return
    other = design(request, reordered)
    assert [sort_key(c) for c in other.candidates] == [sort_key(c) for c in report.candidates]
    assert other.winner == report.winner
    # rejected pairs are listed in edge x core order, so only the multiset stays the same
    assert Counter(other.rejected) == Counter(report.rejected)


def test_embedded_family_names_its_smallest_expansion():
    """A blade's embedded switch named by its family is the family's fewest-port expansion in any catalog order."""
    family = {
        "id": "enc", "chassis_cost": 0, "chassis_rack_units": 1, "chassis_power": 0, "chassis_weight": 0,
        "fabric_board_cost": 0, "fabric_boards_required": 1, "line_card_cost": 100000,
        "ports_per_line_card": 8, "max_line_cards": 3, "roles": ["edge"],
    }
    core = {"id": "core", "name": "", "ports": 48, "cost": 100000, "power": 0, "rack_units": 1, "weight": 0,
            "roles": ["core"]}
    catalog = load_catalog({"currency": "USD", "monolithic": [core], "modular": [family]})
    reversed_catalog = Catalog(catalog.edge_set[::-1], catalog.core_set)
    blades = BladeFormFactor(enclosure_capacity=8, enclosure_cost=0, embedded_edge_switch_id="enc")
    request = DesignRequest(node_count=12, form_factor=blades)
    for listed in (catalog, reversed_catalog):
        report = design(request, listed)
        assert {c.kind for c in report.candidates} == {"direct_connect", "fat_tree", "star"}
        assert {c.edge_config.config_id for c in report.candidates if c.kind != "star"} == {"enc:8p"}


def test_rejected_pairs_are_plain_records():
    """The count, the text report and the JSON write all read the one tuple of plain records."""
    constraints = ConstraintSet(max_network_rack_units=140, min_spare_core_ports=64)
    report = design(DesignRequest(node_count=1000, blocking_factor=Fraction(3, 2), constraints=constraints), DEMO)
    assert len(report.rejected) == 6
    assert "rejected by constraints: 6 candidate(s)" in render_design_text(report, "USD")
    assert to_json(design_report_document(report, "USD", top=5)).count('"violations"') == 6
    assert type(report.rejected) is tuple
    for edge_id, core_id, broken in report.rejected:
        assert isinstance(edge_id, str) and isinstance(core_id, str) and broken
        assert all(name in ("max_network_rack_units", "min_spare_core_ports") for name, _, _ in broken)
