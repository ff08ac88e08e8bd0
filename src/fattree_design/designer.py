"""Two-layer fat-tree design search.

Given a node count, a blocking factor, and an expanded switch catalog, the
search covers two trivial topologies (direct enclosure interconnect and a
single-switch star) plus the full edge-model x core-model grid. Every
candidate that survives the constraint filter is kept and ranked, so callers
can present alternatives instead of just the winner. A SearchPlan holds the
per-catalog state (edge splits, core list, star switches) once, and its
rank() is the one full ranking for every kind of network: for each edge
model it counts the edge switches and the even spread, sizes the core layer
once per distinct core port count, and writes each pair as one flat key,
(cost, switch count, rack units, edge id, core id, ref), in one list
comprehension. ``ref`` is an int that names the pair and rises in edge x core
order, the baseline before its even spread, after the star and
direct-connect records' negative refs, so a plain sort of the keys ranks
full ties in that order. Constrained requests check each pair from its key
and a per-core row of power and port counts, without pricing it in full.
design() keeps that whole ranking; a design's payload is rebuilt from its
ref, priced and checked against the key, and built through one builder,
only when it is read.

The node-count scans, fit_max_nodes, expansion_plan and sweep_lower_bound,
build their plan in one place, scan_plan(): an unconstrained request of
rack-mounted nodes. Every N from 2 to the plan's max_reachable has a
design, and they ask the plan's winner() for the winner alone at each N.
It starts from a table of the best star per port count and walks the edge
models once, in order of cost per node port, and stops at the first whose
bound exceeds the best cost found: N nodes at that cost per node port, plus
the cables and core switch every group needs. Before that it works out each
model's group through the same _edge_group as rank(), keys the group's
pairs through the same step, over the prefix of the cores in price order
whose price keeps the group's floor within the best cost, and keeps the
least key. It prices in full and builds only the winner.

All port arithmetic is exact integer/Fraction math; all money is integer
minor units.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter, itemgetter

from .catalog import Catalog, CatalogError, SwitchConfig, config_order, field_violation
from .money import Money, check_finite, check_money, check_number, parse_ratio

DEFAULT_CABLE_COST: Money = 8000  # average cable price, minor units


class DesignError(Exception):
    """Base class for design failures."""


class InsufficientRadixError(DesignError):
    """No switch combination can reach the requested node count."""

    def __init__(self, node_count: int, max_supported_nodes: int):
        self.node_count = node_count
        self.max_supported_nodes = max_supported_nodes
        super().__init__(
            f"insufficient radix: {node_count} nodes requested but the catalog "
            f"supports at most {max_supported_nodes}"
        )


class DesignInfeasibleError(DesignError):
    """Candidates exist, but every one violates an active constraint."""

    def __init__(self, binding_constraints: Sequence[str]):
        self.binding_constraints = tuple(binding_constraints)
        names = ", ".join(self.binding_constraints)
        super().__init__(f"no design satisfies the constraints; binding: {names}")


@dataclass(frozen=True)
class ConstraintSet:
    """Hard limits a candidate must satisfy to stay in the running."""

    max_network_rack_units: int | None = None
    min_spare_core_ports: int | None = None
    max_network_power: float | None = None
    max_network_cost: Money | None = None

    def __post_init__(self) -> None:
        for name, kinds, kind_text, unit in (
            ("max_network_rack_units", int, "an integer", ""),
            ("min_spare_core_ports", int, "an integer", ""),
            ("max_network_power", (int, float), "a finite number", ""),
            ("max_network_cost", int, "an integer", " (minor units)"),
        ):
            value = getattr(self, name)
            if value is None:
                continue
            # a NaN limit compares false with everything, so it would apply no limit
            non_finite = isinstance(value, float) and not math.isfinite(value)
            if isinstance(value, bool) or not isinstance(value, kinds) or non_finite:
                raise ValueError(f"constraint {name} must be {kind_text}{unit}, got {value!r}")
            # no pair meets a negative maximum, and a negative minimum would set no limit
            if value < 0:
                raise ValueError(f"constraint {name} must not be negative, got {value!r}{unit}")


@dataclass(frozen=True)
class BladeFormFactor:
    """Blade servers in enclosures with an embedded edge switch per enclosure."""

    enclosure_capacity: int
    enclosure_cost: Money
    embedded_edge_switch_id: str
    pass_through_cost: Money | None = None

    def __post_init__(self) -> None:
        capacity = self.enclosure_capacity
        if isinstance(capacity, bool) or not isinstance(capacity, int) or capacity < 1:
            raise ValueError(f"blade enclosure_capacity must be an integer of at least 1, got {capacity!r}")
        check_money("blade enclosure_cost", self.enclosure_cost)
        if self.pass_through_cost is not None:
            check_money("blade pass_through_cost", self.pass_through_cost)
        if not isinstance(self.embedded_edge_switch_id, str):
            raise ValueError(f"blade embedded_edge_switch_id must be a string, got {self.embedded_edge_switch_id!r}")

    def embeds(self, config: SwitchConfig) -> bool:
        """Whether config is the embedded edge switch, named by its family or configuration id."""
        return self.embedded_edge_switch_id in (config.source_id, config.config_id)


@dataclass(frozen=True)
class NodeSpec:
    """Footprint of one rack-mounted node, cabled to a standalone edge switch."""

    rack_units: int = 1
    weight: float = 0.0
    power: float = 0.0

    def __post_init__(self) -> None:
        check_finite("node", self)  # first, as NaN passes every range check
        check_number("node rack_units", self.rack_units, minimum=1)
        check_number("node weight", self.weight, minimum=0, integral=False)
        check_number("node power", self.power, minimum=0, integral=False)


FormFactor = BladeFormFactor | NodeSpec


@dataclass(frozen=True)
class DesignRequest:
    """Problem statement handed to the design search."""

    node_count: int
    blocking_factor: Fraction = Fraction(1)
    form_factor: FormFactor = NodeSpec()
    avg_cable_cost: Money = DEFAULT_CABLE_COST
    constraints: ConstraintSet = ConstraintSet()
    prefer_expandability: bool = False

    def __post_init__(self) -> None:
        check_number("node_count", self.node_count)
        if self.node_count < 2:
            raise ValueError("node_count must be at least 2")
        if not isinstance(self.blocking_factor, Fraction):
            raise ValueError(f"blocking factor must be a Fraction, got {self.blocking_factor!r}")
        if self.blocking_factor <= 0:
            raise ValueError("blocking factor must be positive")
        check_money("avg_cable_cost", self.avg_cable_cost)
        if not isinstance(self.form_factor, FormFactor):
            raise ValueError(f"form_factor must be a BladeFormFactor or a NodeSpec, got {self.form_factor!r}")
        if not isinstance(self.constraints, ConstraintSet):
            raise ValueError(f"constraints must be a ConstraintSet, got {self.constraints!r}")
        if not isinstance(self.prefer_expandability, bool):
            raise ValueError(f"prefer_expandability must be a boolean, got {self.prefer_expandability!r}")

    @property
    def blades(self) -> BladeFormFactor | None:
        return self.form_factor if isinstance(self.form_factor, BladeFormFactor) else None


@dataclass(frozen=True)
class EdgeSplit:
    """How one edge switch's ports are divided, and how many switches that implies."""

    ports_to_nodes: int
    ports_to_core: int
    resulting_blocking: Fraction | None
    edge_count: int


@dataclass(frozen=True)
class CoreStage:
    """Core layer sizing: links per edge-core bundle and core switch count."""

    bundle_width: int
    core_count: int


@dataclass
class SearchStats:
    """Counts of what a SearchPlan's rankings did over the plan's calls; stars and direct connects are not counted.

    A pair sized is skipped (too few core ports) or a candidate, as is each even spread kept, and a
    candidate is rejected or ranked: pairs_considered + spread_variants == pairs_skipped +
    candidates_rejected + candidates_ranked. The winner-only ranking skips a core by its cost floor
    before sizing the group.
    """

    pairs_considered: int = 0
    pairs_skipped: int = 0
    spread_variants: int = 0
    candidates_rejected: int = 0
    rejections: Counter = field(default_factory=Counter)  # per constraint name; a candidate may break several
    candidates_ranked: int = 0
    groups_cut: int = 0  # winner-only: edge groups cut by their cost floor, whether worked out or not
    cores_skipped: int = 0  # winner-only: cores skipped by the per-core floor


@dataclass(frozen=True)
class DesignMetrics:
    """Aggregate network metrics (switches plus cables; nodes excluded)."""

    cost: Money
    power: float
    rack_units: int
    weight: float


@dataclass(frozen=True)
class FatTreeDesign:
    """A solved network design."""

    kind: str  # "fat_tree" | "star" | "direct_connect"
    node_count: int
    edge_config: SwitchConfig
    core_config: SwitchConfig | None
    split: EdgeSplit
    core_stage: CoreStage | None
    cable_count: int
    metrics: DesignMetrics
    uniform_distribution: bool = False
    pass_through: bool = False
    max_supported_nodes: int = 0

    @property
    def objective(self) -> Money:
        """What the ranking minimises: the network's cost."""
        return self.metrics.cost

    @property
    def edge_count(self) -> int:
        return self.split.edge_count

    @property
    def core_count(self) -> int:
        return self.core_stage.core_count if self.core_stage else 0

    @property
    def switch_count(self) -> int:
        return self.edge_count + self.core_count


def violation_text(constraint: str, limit: float, actual: float) -> str:
    """The one wording of a broken limit, from its (constraint, limit, actual) record."""
    relation = "below minimum" if constraint == "min_spare_core_ports" else "exceeds limit"
    return f"{constraint}: {actual:g} {relation} {limit:g}"


@dataclass(frozen=True)
class DesignReport:
    """Winner plus the full ranked list of feasible alternatives.

    ``rejected`` holds each pair the constraints ruled out as a plain
    (edge id, core id, ((constraint, limit, actual), ...)) record, in edge x core order.
    ``stats`` holds the counts of the search that made the report; it takes no part in
    equality or repr.
    """

    request: DesignRequest
    winner: FatTreeDesign
    candidates: Sequence[FatTreeDesign]
    rejected: tuple
    stats: SearchStats | None = field(default=None, compare=False, repr=False)


def edge_port_split(edge_ports: int, blocking: Fraction) -> tuple[int, int, Fraction] | None:
    """Split an edge switch's ports between nodes and core uplinks.

    Node-facing ports get the largest share whose node:uplink ratio does not
    exceed the blocking factor. Returns None when the switch cannot host even
    one node at this blocking factor.
    """
    if edge_ports < 2:
        raise ValueError("edge switch needs at least 2 ports")
    if blocking <= 0:
        raise ValueError("blocking factor must be positive")
    # the floor of edge_ports * b / (1 + b), in integers
    ports_to_nodes = edge_ports * blocking.numerator // (blocking.numerator + blocking.denominator)
    if ports_to_nodes == 0:
        return None
    ports_to_core = edge_ports - ports_to_nodes
    assert ports_to_core >= 1
    return ports_to_nodes, ports_to_core, Fraction(ports_to_nodes, ports_to_core)


def edge_count(node_count: int, ports_to_nodes: int) -> int:
    """Edge switches needed to host all nodes."""
    if ports_to_nodes < 1:
        raise ValueError("ports_to_nodes must be positive")
    return -(-node_count // ports_to_nodes)


def core_layers(edge_switches: int, ports_to_core: int, core_ports: Iterable[int]) -> list[tuple[int, int] | None]:
    """(bundle width, core switch count) of one edge group's core layer per core port count; None where too few.

    Every edge switch reaches every core switch, so a core switch needs a port per edge switch; bundling
    then packs as many rounds of edge-to-core links as fit. This is the one core-sizing rule: a design's
    CoreStage is one of these layers.
    """
    if edge_switches < 1:
        raise ValueError("edge_switches must be positive")
    if ports_to_core < 1:
        raise ValueError("ports_to_core must be positive")
    layers = []
    for ports in core_ports:
        width = ports // edge_switches if ports < edge_switches * ports_to_core else ports_to_core
        layers.append((width, -(-ports_to_core // width)) if ports >= edge_switches else None)
    return layers


def bundle_widths(ports_to_core: int, stage: CoreStage) -> tuple[int, ...]:
    """Per-core-switch bundle width for one edge switch; sums to ports_to_core."""
    widths = [stage.bundle_width] * (stage.core_count - 1)
    widths.append(ports_to_core - (stage.core_count - 1) * stage.bundle_width)
    return tuple(widths)


def cable_count(node_count: int, edge_switches: int, ports_to_core: int, blade: bool) -> int:
    """Cables for a full edge-to-core fabric, plus node cables unless blades."""
    if min(node_count, edge_switches, ports_to_core) < 0:
        raise ValueError("cable_count inputs must be non-negative")
    inter_layer = edge_switches * ports_to_core
    return inter_layer if blade else node_count + inter_layer


def node_distribution(design: FatTreeDesign) -> tuple[int, ...]:
    """Nodes attached to each edge switch (per enclosure for direct connect)."""
    total, edges = design.node_count, design.edge_count
    if design.kind == "direct_connect":
        first = -(-total // 2)
        return (first, total - first)
    if design.uniform_distribution:
        base, extra = divmod(total, edges)
        return tuple(base + 1 if i < extra else base for i in range(edges))
    full = design.split.ports_to_nodes
    counts = [full] * (total // full)
    if total % full:
        counts.append(total % full)
    return tuple(counts)


def fewest_uplinks(nodes: int, blocking: Fraction) -> int:
    """Fewest uplinks that keep an edge switch's nodes:uplinks ratio within the blocking factor."""
    return -(-nodes * blocking.denominator // blocking.numerator)


def _even_split(node_count: int, edge_switches: int, blocking: Fraction, ports_to_core: int) -> tuple | None:
    """(nodes per switch, uplinks, switches): nodes spread evenly, each switch with the fewest uplinks allowed."""
    nodes_per_switch = -(-node_count // edge_switches)
    uplinks = fewest_uplinks(nodes_per_switch, blocking)
    if uplinks >= ports_to_core:
        return None  # the baseline's uplinks give the same core layer
    assert nodes_per_switch * blocking.denominator <= uplinks * blocking.numerator
    return nodes_per_switch, uplinks, edge_switches


def _kept_spreads(layers: Sequence, spread_layers: Sequence) -> list:
    """The even spread's core layer where the spread is kept, else None, over aligned baseline and spread layers.

    The one home of the rule that the even spread is kept only when it frees a core switch.
    """
    return [
        spread_layer if spread_layer is not None and spread_layer[1] < layer[1] else None
        for layer, spread_layer in zip(layers, spread_layers)
    ]


def _active_limits(constraints: ConstraintSet) -> tuple[tuple[int, str, float], ...]:
    """(place, name, limit) of each limit that is set, in field order, which is _violations' order of numbers."""
    named = ((at, field_.name, getattr(constraints, field_.name)) for at, field_ in enumerate(fields(constraints)))
    return tuple(limit for limit in named if limit[2] is not None)


def _violations(limits: tuple, rack_units: int, spare: int, power: float, cost: Money) -> list[tuple]:
    """(constraint, limit, actual) of each limit, from _active_limits, that these numbers break, in field order."""
    actuals = (rack_units, spare, power, cost)
    found = []  # a loop, not a comprehension: before Python 3.12 that would add a call per pair checked
    for at, name, limit in limits:
        actual = actuals[at]
        if actual < limit if name == "min_spare_core_ports" else actual > limit:
            found.append((name, limit, actual))
    return found


# Zero switches of this empty model add nothing: the core layer of a design that has none.
_NO_CORE = SwitchConfig("", 0, 0, 0.0, 0, 0.0)


def _edge_units(request: DesignRequest, edge_config: SwitchConfig, edge_switches: int) -> int:
    """Rack units of the edge switches.

    Blade edge switches live inside the enclosure and occupy no rack space of
    their own; their cost, power, and weight still count.
    """
    embedded = request.blades is not None and request.blades.embeds(edge_config)
    return 0 if embedded else edge_switches * edge_config.rack_units


def _network_metrics(
    request: DesignRequest, edge_config: SwitchConfig, edge_switches: int, core: SwitchConfig, cores: int,
    cables: int, extra_cost: Money = 0
) -> tuple[Money, float, int, float]:
    """(cost, power, rack units, weight) of the edge switches with so many core switches and cables.

    The one home of these formulas, in DesignMetrics order. The rankings'
    keys carry cost and rack units of their own, and every design built from
    a key is checked against these. The limit filter reads cost and rack
    units from the key and works out power as the same sum, edge switches'
    power plus core switches' power, so the limits see the numbers a built
    design reports.
    """
    return (
        edge_switches * edge_config.cost + extra_cost + cores * core.cost + cables * request.avg_cable_cost,
        edge_switches * edge_config.power + cores * core.power,
        _edge_units(request, edge_config, edge_switches) + cores * core.rack_units,
        edge_switches * edge_config.weight + cores * core.weight,
    )


def _build_ranked(request: DesignRequest, node_count: int, key: tuple, payload: tuple) -> FatTreeDesign:
    """The one builder of a design, for every kind, from a ranking's key and payload.

    Both rankings key every record on cost and rack units worked out from
    plain numbers, and price it in full only when they build it: here,
    through _network_metrics, which must give the key's numbers.
    """
    kind, edge_config, core_config, split, layer, cables, uniform, pass_through, max_supported_nodes = payload
    to_nodes, to_core, edges = split
    extra = request.blades.pass_through_cost if pass_through else 0
    metrics = _network_metrics(
        request, edge_config, edges, core_config or _NO_CORE, layer[1] if layer else 0, cables, extra
    )
    assert (metrics[0], metrics[2]) == (key[0], key[2]), "a ranking priced a design otherwise"
    return FatTreeDesign(
        kind=kind,
        node_count=node_count,
        edge_config=edge_config,
        core_config=core_config,
        split=EdgeSplit(to_nodes, to_core, Fraction(to_nodes, to_core) if kind == "fat_tree" else None, edges),
        core_stage=CoreStage(*layer) if layer else None,
        cable_count=cables,
        metrics=DesignMetrics(*metrics),
        uniform_distribution=uniform,
        pass_through=pass_through,
        max_supported_nodes=max_supported_nodes,
    )


class RankedCandidates(Sequence):
    """A full ranking's designs, each built from its key when first read and then cached.

    The ranking is a sorted list of flat keys, (cost, switch count, rack
    units, edge id, core id, ref). A negative ref names a star or
    direct-connect payload; any other names an edge x core pair, whose
    payload is rebuilt from the ref, its edge group and its core, only when
    that index is read. ``len()`` builds nothing, and
    ``report.winner is report.candidates[0]``.
    """

    def __init__(self, request: DesignRequest, keys: list, trivial: list, groups: list, cores: Sequence) -> None:
        self._request = request
        self._keys = keys  # in rank order
        self._trivial = trivial  # the star and direct-connect payloads, named by refs -len(trivial) to -1
        self._groups, self._cores = groups, cores  # rank()'s edge groups, in edge order, and the catalog's cores
        self._designs: list[FatTreeDesign | None] = [None] * len(keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self._keys))))
        built = self._designs[index]
        if built is None:
            key, request, span = self._keys[index], self._request, 2 * len(self._cores)  # an edge group's refs
            ref = key[5]
            payload = self._trivial[ref] if ref < 0 else _pair_payload(self._groups[ref // span], self._cores, ref)
            built = self._designs[index] = _build_ranked(request, request.node_count, key, payload)
        return built


def _pair_payload(group: tuple, cores: Sequence, ref: int) -> tuple:
    """The payload of the pair of one edge group that a ranking named ``ref``.

    Within an edge group's span of 2 x len(cores) refs, a core's baseline
    takes twice the core's place in ``cores`` and its even spread one more.
    """
    config, edges, baseline, cables, spread, spread_cables = group
    core_at, uniform = divmod(ref % (2 * len(cores)), 2)
    split, cables = (spread, spread_cables) if uniform else (baseline, cables)
    core = cores[core_at]
    layer, = core_layers(edges, split[1], (core.ports,))
    return "fat_tree", config, core, split, layer, cables, uniform == 1, False, core.ports * split[0]


def _pair_keys(rows: Sequence, layers: Sequence, edges: int, fixed: Money, edge_units: int, edge_id: str,
               ref: int) -> list:
    """The flat key of each pair of one edge group's split whose core layer exists, in core order.

    ``rows`` holds each core's (ref offset, place of its port count, price,
    rack units, id), ``layers`` the split's core layer per port count, and
    ``fixed`` the cost of the edge switches and cables.
    """
    return [
        (fixed + layer[1] * cost, edges + layer[1], edge_units + layer[1] * units, edge_id, core_id, ref + offset)
        for offset, ports_at, cost, units, core_id in rows
        if (layer := layers[ports_at]) is not None
    ]


# The winner-only ranking's best record before it has one: its infinite cost cuts nothing.
_NO_WINNER = ((math.inf,), None)


class SearchPlan:
    """Search state shared by every node count of one request shape.

    Built once per call of design(), or by scan_plan() once per node-count
    scan; only rank() reads the request's node count, and nothing outlives
    the call that built the plan. It holds each edge configuration's port
    split as a plain (config, ports to nodes, ports to core) tuple, with the
    blade-bay cap applied, the catalog's core set
    and the config union (the star switches), the limits the request sets,
    each computed once, plus the largest node count any design reaches, a
    row per core that maps it to its place among the distinct core port
    counts, and a cache of core layers, one per distinct core port count, per
    (edge switches, uplinks). Both rankings key an edge group's pairs through
    _group_keys, one flat key of cost, switch count, rack units, ids and ref
    per pair, without building its payload, and count what it did in
    ``stats``. rank() keys every edge group with every core in catalog order
    for the request's node count, filters the keys with the star and
    direct-connect ones and sorts them.

    The node-count scans ask a scan_plan()'s winner(N) for the winner alone.
    It keys only the prefix of the cores in price order that its cost floors
    leave, and keeps the least key. Its first call builds its tables, so a
    design() plan builds none: the core rows in price order, the star table,
    which holds for each port count the best star among the configurations
    with at least that many ports, and the edge models in order of cost per
    node port, along which the bound of a model's cost floor rises. A scan
    may share one plan between capacities.
    """

    def __init__(self, request: DesignRequest, catalog: Catalog) -> None:
        self.request = request
        self.limits = _active_limits(request.constraints)
        self.configs = catalog.configs()
        self.cores = catalog.core_set
        # Core layers are sized once per distinct core port count. Each core's row holds twice its place in the
        # catalog (its baseline's ref within an edge group), its port count's place, price, rack units and id.
        self.core_ports = sorted({core.ports for core in self.cores})
        place = {ports: at for at, ports in enumerate(self.core_ports)}
        self._core_rows = tuple(
            (2 * at, place[core.ports], core.cost, core.rack_units, core.config_id)
            for at, core in enumerate(self.cores)
        )
        # the limit filter's row per core, aligned with _core_rows: id, power, and ports with line-card headroom
        self._limit_rows = tuple(
            (core.config_id, core.power, core.ports + core.expandable_ports) for core in self.cores
        ) if self.limits else ()
        self.stats = SearchStats()
        reach = max((config.ports for config in self.configs), default=0)
        widest_core = max((config.ports for config in self.cores), default=0)
        blades = request.blades
        edge_configs = catalog.edge_set
        if blades is not None:
            reach = max(reach, 2 * blades.enclosure_capacity)
            # a family id names its smallest expansion, whatever order a catalog built in code lists them in
            edge_configs = sorted(filter(blades.embeds, catalog.edge_set), key=config_order)[:1]
            if not edge_configs:
                raise CatalogError(f"embedded edge switch {blades.embedded_edge_switch_id!r} not found in the edge set")
        self.embedded = edge_configs[0] if blades is not None else None
        edges = []
        for config in edge_configs:
            split_parts = edge_port_split(config.ports, request.blocking_factor)
            if split_parts is None:
                continue
            ports_to_nodes, ports_to_core, _ = split_parts
            if blades is not None and blades.enclosure_capacity < ports_to_nodes:
                # an enclosure cannot hold more blades than it has bays
                ports_to_nodes = blades.enclosure_capacity
            edges.append((config, ports_to_nodes, ports_to_core))
            reach = max(reach, widest_core * ports_to_nodes)
        self.edges = tuple(edges)
        self.max_reachable = reach
        self._layer_table: dict = {}  # core_layers() per (edge switches, uplinks)
        self._tables = None  # winner()'s, built by its first call

    def _trivial_records(self, node_count: int) -> list:
        """Records of the best direct-connect variant and the best star that pass the constraints.

        Direct connect keeps the lowest (cost, switch count), the star the
        lowest (cost, ports, config id). A variant that a constraint
        rejects is dropped silently: it never enters the rejected list.
        """
        request, limits = self.request, self.limits
        blades = request.blades
        # (tie-break, spare ports, switch, split, cables, pass-through, max nodes) per variant
        direct, stars = [], []
        if blades is not None and blades.enclosure_capacity < node_count <= 2 * blades.enclosure_capacity:
            config, capacity = self.embedded, blades.enclosure_capacity
            cables = config.ports // 2
            # a switch in each enclosure, or one switch cabled to a pass-through panel
            for switches in (2, 1) if blades.pass_through_cost is not None else (2,):
                # every port faces a node or a cross cable, and a cross cable uses a port on each switch
                spare = max(0, switches * config.ports - node_count - switches * cables)
                split = (capacity, cables, switches)
                direct.append(((switches,), spare, config, split, cables, switches == 1, 2 * capacity))
        split = (node_count, 0, 1)
        cables = 0 if blades is not None else node_count
        for config in self.configs:
            if config.ports >= node_count:
                spare = config.ports - node_count + config.expandable_ports
                stars.append(((config.ports, config.config_id), spare, config, split, cables, False, config.ports))
        records = []
        for kind, variants in (("direct_connect", direct), ("star", stars)):
            best = None
            for tie, spare, config, split, cables, pass_through, max_nodes in variants:
                switches, extra = split[2], blades.pass_through_cost if pass_through else 0
                cost, power, units, _ = _network_metrics(request, config, switches, _NO_CORE, 0, cables, extra)
                if limits and _violations(limits, units, spare, power, cost):
                    continue
                if best is None or (cost, *tie) < best[0]:
                    payload = (kind, config, None, split, None, cables, False, pass_through, max_nodes)
                    best = ((cost, *tie), ((cost, switches, units, config.config_id, ""), payload))
            if best is not None:
                records.append(best[1])
        return records

    def _edge_group(self, node_count: int, config: SwitchConfig, ports_to_nodes: int, ports_to_core: int) -> tuple:
        """(config, edge switches, baseline split, cables, even spread or None, its cables) of one edge configuration.

        The baseline split packs each edge switch full, and the even spread
        over as many switches is a variant only when it needs fewer uplinks
        per switch. A split is (ports to nodes, ports to core, edge switches),
        as a ranking record holds it.
        """
        request = self.request
        blade, blocking = request.blades is not None, request.blocking_factor
        edges = edge_count(node_count, ports_to_nodes)
        spread = None if request.prefer_expandability else _even_split(node_count, edges, blocking, ports_to_core)
        cables = cable_count(node_count, edges, ports_to_core, blade)
        spread_cables = cable_count(node_count, edges, spread[1], blade) if spread else cables
        return config, edges, (ports_to_nodes, ports_to_core, edges), cables, spread, spread_cables

    def _layers(self, edges: int, uplinks: int) -> list:
        """The core layer of each distinct core port count for edge switches with so many uplinks, cached."""
        at = edges, uplinks
        layers = self._layer_table.get(at)
        if layers is None:
            layers = self._layer_table[at] = core_layers(edges, uplinks, self.core_ports)
        return layers

    def _group_keys(self, group: tuple, ref: int, rows: Sequence) -> list:
        """The flat keys of one edge group's pairs with the cores of ``rows``, baselines before even spreads.

        ``rows`` holds _core_rows, or some of them, and ``ref`` is the edge
        group's first ref. The group's pairs are counted in ``stats``.
        """
        request, cable_cost = self.request, self.request.avg_cable_cost
        config, edges, baseline, cables, spread, spread_cables = group
        edge_cost, edge_units, edge_id = edges * config.cost, _edge_units(request, config, edges), config.config_id
        layers = self._layers(edges, baseline[1])
        pairs = _pair_keys(rows, layers, edges, edge_cost + cables * cable_cost, edge_units, edge_id, ref)
        baselines = len(pairs)
        if spread:
            spreads = _kept_spreads(layers, self._layers(edges, spread[1]))
            fixed = edge_cost + spread_cables * cable_cost
            pairs += _pair_keys(rows, spreads, edges, fixed, edge_units, edge_id, ref + 1)
        stats = self.stats
        stats.pairs_considered += len(rows)
        stats.pairs_skipped += len(rows) - baselines
        stats.spread_variants += len(pairs) - baselines
        return pairs

    def rank(self) -> tuple[RankedCandidates, tuple]:
        """Every design for the request's node count, ranked, plus the pairs the constraints rejected.

        Each star, direct-connect and kept pair is one flat key, (cost, switch
        count, rack units, edge id, core id, ref), and a plain sort ranks
        them. ref rises in the order the records are written, the star and
        direct-connect ones first with negative refs, then edge x core order
        with the baseline before its even spread, so it decides full ties
        only, in that order; rejected pairs are listed in the same order.
        Designs are built when read. Raises what design() raises.
        """
        request, limits = self.request, self.limits
        node_count = request.node_count
        records = self._trivial_records(node_count)
        keys = [(*key, ref) for ref, (key, _) in enumerate(records, -len(records))]
        rows, stride = self._core_rows, 2 * len(self.cores)
        stats, rejected, candidates, groups, seen = self.stats, [], 0, [], {}
        for at, edge in enumerate(self.edges):
            group = self._edge_group(node_count, *edge)
            groups.append(group)
            pairs = self._group_keys(group, at * stride, rows)
            candidates += len(pairs)
            keys += self._within_limits(group, pairs, rejected, seen) if limits else pairs
        stats.candidates_rejected += len(rejected)
        stats.candidates_ranked += candidates - len(rejected)

        if not keys:
            if rejected:
                raise DesignInfeasibleError(sorted({name for *_, violations in rejected for name, _, _ in violations}))
            raise InsufficientRadixError(node_count, self.max_reachable)
        keys.sort()
        trivial = [payload for _, payload in records]
        return RankedCandidates(request, keys, trivial, groups, self.cores), tuple(rejected)

    def _within_limits(self, group: tuple, pairs: list, rejected: list, seen: dict) -> list:
        """The keys, of one edge group's pairs, that meet the request's limits.

        Each pair is checked, in edge x core order with the baseline before
        its even spread, from numbers at hand: cost and rack units from its
        key, core switches as the key's switches less the edges, the core's
        place and the even-spread flag from its ref, and the core's limit row.
        Power is the sum _network_metrics works out. A pair that breaks a
        limit goes to ``rejected`` as (edge id, core id, violations) and is
        counted in ``stats.rejections``; equal violations share the one tuple
        that ``seen`` keeps for the rank() call, so that a report words each
        once.
        """
        config, edges, baseline, _, spread, _ = group
        pairs.sort(key=itemgetter(5))
        limits, rows, stride, first = self.limits, self._limit_rows, 2 * len(self.cores), len(rejected)
        edge_id, edge_power = config.config_id, edges * config.power
        used = (edges * baseline[1], edges * spread[1] if spread else 0)  # core ports taken, by the even-spread flag
        kept = []
        for key in pairs:
            ref = key[5]
            core_id, core_power, ports = rows[ref % stride >> 1]
            switches = key[1] - edges
            violations = _violations(
                limits, key[2], switches * ports - used[ref & 1], edge_power + switches * core_power, key[0]
            )
            if violations:
                # 1 == 1.0 but their texts differ, and power alone may be either, so its type is part of the
                # key; no broken limit reads a zero power, which might be -0.0, as no limit is negative. A loop,
                # as in _violations, and the list is the fresh one _violations returned.
                for at, violation in enumerate(violations):
                    violations[at] = seen.setdefault((violation, type(violation[2])), violation)
                rejected.append((edge_id, core_id, tuple(violations)))
            else:
                kept.append(key)
        self.stats.rejections.update(name for *_, violations in rejected[first:] for name, _, _ in violations)
        return kept

    def _winner_tables(self) -> tuple:
        """(core rows in price order, their prices, star ports, stars, rising).

        A stable sort orders the _core_rows by price, so each row still names
        its core's place in the catalog. The stars are the configurations'
        best star from each place on in port-count order, next to those port
        counts. ``rising`` holds each edge model as (cost, ports to nodes,
        edge index), in order of its cost per node port.
        """
        by_price = sorted(self._core_rows, key=itemgetter(2))
        by_ports = sorted(self.configs, key=attrgetter("ports"))
        # at each place, the best star, on the star's own tie-break, among the configurations from there on
        stars, best = [], None
        for config in reversed(by_ports):
            best = config if best is None else min(best, config, key=attrgetter("cost", "ports", "config_id"))
            stars.append(best)
        stars.reverse()
        # a cost per node port, scaled by a common multiple of the port counts, is an exact integer
        scale = math.lcm(*(to_nodes for _, to_nodes, _ in self.edges))
        rising = sorted(
            ((config.cost, to_nodes, index) for index, (config, to_nodes, _) in enumerate(self.edges)),
            key=lambda model: model[0] * (scale // model[1]),
        )
        return by_price, [row[2] for row in by_price], [config.ports for config in by_ports], stars, rising

    def winner(self, node_count: int) -> FatTreeDesign:
        """design()'s winner for node_count, for unconstrained rack-mounted requests; raises what design() raises.

        It starts from the star table's best star. The walk takes the edge
        models once, in order of cost per node port, ties in edge order, and
        stops at the first model whose bound exceeds the best cost found: N
        nodes at its cost per node port, rounded up, plus the cables all N
        nodes need at the least and one cheapest core switch. Before that it
        works out each model's group and keeps, before sizing any, the prefix
        of the cores in price order whose own price keeps the group's floor
        (edges, fewest cables, core switch) within the best cost; a group
        with none is cut. It keys those pairs through _group_keys as rank()
        does, and keeps the least key when it beats the best so far. The
        comparisons with the best cost are strict, so a pair that ties it
        still meets the full key, whose ref breaks a full tie as rank()'s
        sort does. Only the winner is priced in full and built.
        """
        from bisect import bisect_left, bisect_right  # here, so that importing the package never loads them

        request = self.request
        if self._tables is None:
            if self.limits or request.blades is not None:
                raise ValueError("the winner-only ranking serves unconstrained rack-mounted requests only")
            self._tables = self._winner_tables()
        by_price, core_costs, star_ports, stars, rising = self._tables
        cable_cost = request.avg_cable_cost
        best = _NO_WINNER  # the best record so far, as (key, payload)
        if (at := bisect_left(star_ports, node_count)) < len(stars):
            star = stars[at]
            key = (star.cost + node_count * cable_cost, 1, star.rack_units, star.config_id, "")
            best = key, ("star", star, None, (node_count, 0, 1), None, node_count, False, False, star.ports)

        # Every pairing has at least one core switch and no price is negative, so a pair costs at least its
        # edges, its fewest cables and its core switch. As each edge switch needs the fewest uplinks its own
        # nodes need, a group's cables are at least the node cables plus the fewest uplinks all N nodes need,
        # and its edges cost at least N x its model's cost per node port, rounded up, which rises along
        # `rising`: with one cheapest core switch that bounds the pairs of this model and of every later one.
        # With no core there is no pair, and the bound adds nothing for it.
        least_cables = node_count + fewest_uplinks(node_count, request.blocking_factor)
        fixed = least_cables * cable_cost + (core_costs[0] if core_costs else 0)
        visited, stride, stats = 0, 2 * len(self.cores), self.stats
        for cost, to_nodes, index in rising:
            if -(-node_count * cost // to_nodes) + fixed > best[0][0]:
                break
            group = self._edge_group(node_count, *self.edges[index])
            config, edges, *_, spread_cables = group
            # the group's floor less its core switch: the cores whose own price keeps it within the best cost
            edge_floor = edges * config.cost + spread_cables * cable_cost
            count = bisect_right(core_costs, best[0][0] - edge_floor)
            if not count:
                continue  # the group's floor, with the cheapest core, exceeds the best cost
            visited += 1
            pairs = self._group_keys(group, index * stride, by_price[:count])
            stats.cores_skipped += len(by_price) - count
            stats.candidates_ranked += len(pairs)
            if pairs and (pair := min(pairs)) < best[0]:
                best = pair, _pair_payload(group, self.cores, pair[5])
        stats.groups_cut += len(self.edges) - visited

        key, payload = best
        if payload is None:
            raise InsufficientRadixError(node_count, self.max_reachable)
        return _build_ranked(request, node_count, key, payload)


def design(request: DesignRequest, catalog: Catalog) -> DesignReport:
    """Full design search: trivial cases, the edge x core grid, and selection.

    Raises InsufficientRadixError when no switch pairing can reach the node
    count, and DesignInfeasibleError when pairings exist but constraints
    reject them all. Ties are broken deterministically: fewer switches, then
    fewer rack units, then config ids.
    """
    plan = SearchPlan(request, catalog)
    candidates, rejected = plan.rank()
    return DesignReport(
        request=request, winner=candidates[0], candidates=candidates, rejected=rejected, stats=plan.stats
    )


def scan_plan(catalog: Catalog, blocking: Fraction, node_spec: NodeSpec, avg_cable_cost: Money) -> SearchPlan:
    """The one search plan shape of the node-count scans, whose winner() takes each node count.

    The request's node count, 2, is a placeholder: only rank() reads it.
    """
    request = DesignRequest(
        node_count=2, blocking_factor=blocking, form_factor=node_spec, avg_cable_cost=avg_cable_cost
    )
    return SearchPlan(request, catalog)


def cluster_cost(design_: FatTreeDesign, request: DesignRequest, server_unit_cost: Money) -> Money:
    """Acquisition cost of the whole cluster: network, servers, and enclosures."""
    total = design_.metrics.cost + request.node_count * server_unit_cost
    if request.blades is not None:
        enclosures = -(-request.node_count // request.blades.enclosure_capacity)
        total += enclosures * request.blades.enclosure_cost
    return total


# A request document's fields; form_factor holds the fields of its kind.
_FORM_FACTORS = {
    "blade": {
        "kind": ("string", None, False),
        "enclosure_capacity": ("integer", None, True),
        "enclosure_cost": ("integer", None, False),
        "embedded_edge_switch_id": ("string", None, True),
        "pass_through_cost": ("integer", None, False),
    },
    "rack_mounted": {
        "kind": ("string", None, False),
        "node_rack_units": ("integer", None, False),
        "node_weight": ("number", None, False),
        "node_power": ("number", None, False),
    },
}
_REQUEST = {
    "nodes": ("integer", None, True),
    "blocking": (("string", "integer"), None, False),
    "avg_cable_cost": ("integer", None, False),
    # ConstraintSet checks the limits' types itself; the table only names them.
    "constraints": ({field_.name: (None, None, False) for field_ in fields(ConstraintSet)}, None, False),
    "prefer_expandability": ("boolean", None, False),
}


def request_from_document(document: dict) -> DesignRequest:
    """Build a DesignRequest from a parsed JSON document (money in minor units).

    Unknown keys and mistyped values raise ValueError naming the field at fault.
    """
    form_doc = document.get("form_factor", {}) if isinstance(document, dict) else {}
    kind = form_doc.get("kind", "rack_mounted") if isinstance(form_doc, dict) else "rack_mounted"
    if not isinstance(kind, str) or kind not in _FORM_FACTORS:
        raise ValueError(f"unknown form factor kind: {kind!r}")
    violation = field_violation(document, dict(_REQUEST, form_factor=(_FORM_FACTORS[kind], None, False)))
    if violation:
        raise ValueError(f"request document violation at {violation}")
    form_factor: FormFactor
    if kind == "blade":
        form_factor = BladeFormFactor(
            enclosure_capacity=form_doc["enclosure_capacity"],
            enclosure_cost=form_doc.get("enclosure_cost", 0),
            embedded_edge_switch_id=form_doc["embedded_edge_switch_id"],
            pass_through_cost=form_doc.get("pass_through_cost"),
        )
    else:
        form_factor = NodeSpec(
            rack_units=form_doc.get("node_rack_units", 1),
            weight=float(form_doc.get("node_weight", 0.0)),
            power=float(form_doc.get("node_power", 0.0)),
        )
    return DesignRequest(
        node_count=document["nodes"],
        blocking_factor=parse_ratio(str(document.get("blocking", "1"))),
        form_factor=form_factor,
        avg_cable_cost=document.get("avg_cable_cost", DEFAULT_CABLE_COST),
        constraints=ConstraintSet(**document.get("constraints", {})),
        prefer_expandability=document.get("prefer_expandability", False),
    )
