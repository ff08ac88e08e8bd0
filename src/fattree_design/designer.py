"""Two-layer fat-tree design search.

Given a node count, a blocking factor, and an expanded switch catalog, the
search covers two trivial topologies (direct enclosure interconnect and a
single-switch star) plus the full edge-model x core-model grid. Every
candidate that survives the constraint filter is kept and ranked, so callers
can present alternatives instead of just the winner.

All port arithmetic is exact integer/Fraction math; all money is integer
minor units.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .catalog import Catalog, CatalogError, SwitchConfig
from .money import Money, parse_ratio

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


@dataclass(frozen=True)
class BladeFormFactor:
    """Blade servers in enclosures with an embedded edge switch per enclosure."""

    enclosure_capacity: int
    enclosure_cost: Money
    embedded_edge_switch_id: str
    pass_through_cost: Money | None = None


@dataclass(frozen=True)
class NodeSpec:
    """Footprint of one rack-mounted node, cabled to a standalone edge switch."""

    rack_units: int = 1
    weight: float = 0.0
    power: float = 0.0

    def __post_init__(self) -> None:
        if self.rack_units < 1:
            raise ValueError(f"node rack_units must be at least 1, got {self.rack_units}")
        for name in ("weight", "power"):
            if getattr(self, name) < 0:
                raise ValueError(f"node {name} must not be negative, got {getattr(self, name):g}")


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

    @property
    def blade(self) -> bool:
        return isinstance(self.form_factor, BladeFormFactor)


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
    objective: Money
    metrics: DesignMetrics
    uniform_distribution: bool = False
    pass_through: bool = False
    max_supported_nodes: int = 0

    @property
    def edge_count(self) -> int:
        return self.split.edge_count

    @property
    def core_count(self) -> int:
        return self.core_stage.core_count if self.core_stage else 0

    @property
    def switch_count(self) -> int:
        return self.edge_count + self.core_count


@dataclass(frozen=True)
class ConstraintViolation:
    constraint: str
    limit: float
    actual: float

    def __str__(self) -> str:
        relation = "below minimum" if self.constraint == "min_spare_core_ports" else "exceeds limit"
        return f"{self.constraint}: {self.actual:g} {relation} {self.limit:g}"


@dataclass(frozen=True)
class RejectedCandidate:
    edge_id: str
    core_id: str | None
    violations: tuple[ConstraintViolation, ...]


@dataclass(frozen=True)
class DesignReport:
    """Winner plus the full ranked list of feasible alternatives."""

    request: DesignRequest
    winner: FatTreeDesign
    candidates: tuple[FatTreeDesign, ...]
    rejected: tuple[RejectedCandidate, ...] = ()


ObjectiveFn = Callable[[DesignMetrics], Money]


def evaluate_objective(metrics: DesignMetrics, objective: ObjectiveFn | None = None) -> Money:
    """Objective value of a candidate; defaults to total network acquisition cost."""
    if objective is None:
        return metrics.cost
    return objective(metrics)


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
    ports_to_nodes = int(edge_ports * blocking / (1 + blocking))
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


def core_stage(edge_switches: int, ports_to_core: int, core_ports: int) -> CoreStage | None:
    """Size the core layer, or None when the core switch has too few ports.

    Every edge switch must reach every core switch, so a core switch needs at
    least one port per edge switch; bundling then packs as many rounds of
    edge-to-core links as fit.
    """
    if ports_to_core < 1:
        raise ValueError("ports_to_core must be positive")
    if core_ports < edge_switches:
        return None
    bundle_width = min(core_ports // edge_switches, ports_to_core)
    core_count = -(-ports_to_core // bundle_width)
    return CoreStage(bundle_width=bundle_width, core_count=core_count)


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
    if design.kind == "star":
        return (total,)
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


def uniform_distribution_variant(
    node_count: int,
    edge_switches: int,
    blocking: Fraction,
    edge_ports: int,
    core_ports: int,
    prefer_expandability: bool = False,
) -> tuple[EdgeSplit, CoreStage] | None:
    """Re-size the core for evenly spread nodes; returned only when it saves switches.

    Spreading nodes evenly lowers the per-switch uplink demand, which in rare
    cases removes a core switch. The tighter packing leaves no contiguous free
    rack space, so it is skipped when the caller prefers expandability.
    """
    if prefer_expandability:
        return None
    baseline_split = edge_port_split(edge_ports, blocking)
    if baseline_split is None:
        return None
    _, ports_to_core, _ = baseline_split
    baseline = core_stage(edge_switches, ports_to_core, core_ports)
    if baseline is None:
        return None
    nodes_per_switch = -(-node_count // edge_switches)
    uplinks = -(-nodes_per_switch * blocking.denominator // blocking.numerator)
    assert Fraction(nodes_per_switch, uplinks) <= blocking
    variant = core_stage(edge_switches, uplinks, core_ports)
    if variant is None or variant.core_count >= baseline.core_count:
        return None
    split = EdgeSplit(
        ports_to_nodes=nodes_per_switch,
        ports_to_core=uplinks,
        resulting_blocking=Fraction(nodes_per_switch, uplinks),
        edge_count=edge_switches,
    )
    return split, variant


def check_constraints(candidate: FatTreeDesign, constraints: ConstraintSet) -> list[ConstraintViolation]:
    """Evaluate every active constraint; an empty list means the candidate passes."""
    violations = []
    if constraints.max_network_rack_units is not None:
        actual = candidate.metrics.rack_units
        if actual > constraints.max_network_rack_units:
            violations.append(
                ConstraintViolation("max_network_rack_units", constraints.max_network_rack_units, actual)
            )
    if constraints.min_spare_core_ports is not None:
        spare = spare_core_ports(candidate)
        if spare < constraints.min_spare_core_ports:
            violations.append(
                ConstraintViolation("min_spare_core_ports", constraints.min_spare_core_ports, spare)
            )
    if constraints.max_network_power is not None:
        if candidate.metrics.power > constraints.max_network_power:
            violations.append(
                ConstraintViolation("max_network_power", constraints.max_network_power, candidate.metrics.power)
            )
    if constraints.max_network_cost is not None:
        if candidate.metrics.cost > constraints.max_network_cost:
            violations.append(
                ConstraintViolation("max_network_cost", constraints.max_network_cost, candidate.metrics.cost)
            )
    return violations


def spare_core_ports(candidate: FatTreeDesign) -> int:
    """Ports still available for growth: unused switch ports plus line-card headroom."""
    if candidate.kind == "fat_tree":
        assert candidate.core_config is not None and candidate.core_stage is not None
        wired = candidate.edge_count * candidate.split.ports_to_core
        total = candidate.core_stage.core_count * candidate.core_config.ports
        return total - wired + candidate.core_stage.core_count * candidate.core_config.expandable_ports
    if candidate.kind == "star":
        free = candidate.edge_config.ports - candidate.node_count
        return free + candidate.edge_config.expandable_ports
    # direct connect: every port is either node- or cross-link-facing
    switch_ports = candidate.edge_count * candidate.edge_config.ports
    used = candidate.node_count + 2 * candidate.cable_count if candidate.edge_count == 2 else (
        candidate.node_count + candidate.cable_count
    )
    return max(0, switch_ports - used)


def _network_metrics(
    request: DesignRequest,
    edge_config: SwitchConfig,
    edge_switches: int,
    core_config: SwitchConfig | None,
    core_switches: int,
    cables: int,
    extra_cost: Money = 0,
) -> DesignMetrics:
    core_cost = core_switches * core_config.cost if core_config else 0
    core_power = core_switches * core_config.power if core_config else 0.0
    core_units = core_switches * core_config.rack_units if core_config else 0
    core_weight = core_switches * core_config.weight if core_config else 0.0
    # Blade edge switches live inside the enclosure and occupy no rack space
    # of their own; their cost, power, and weight still count.
    embedded = (
        isinstance(request.form_factor, BladeFormFactor)
        and edge_config.source_id == request.form_factor.embedded_edge_switch_id
    )
    edge_units = 0 if embedded else edge_switches * edge_config.rack_units
    return DesignMetrics(
        cost=edge_switches * edge_config.cost + core_cost + extra_cost + cables * request.avg_cable_cost,
        power=edge_switches * edge_config.power + core_power,
        rack_units=edge_units + core_units,
        weight=edge_switches * edge_config.weight + core_weight,
    )


def _fat_tree_candidate(
    request: DesignRequest,
    edge_config: SwitchConfig,
    core_config: SwitchConfig,
    split: EdgeSplit,
    stage: CoreStage,
    objective: ObjectiveFn | None,
    uniform: bool = False,
) -> FatTreeDesign:
    cables = cable_count(request.node_count, split.edge_count, split.ports_to_core, request.blade)
    metrics = _network_metrics(
        request, edge_config, split.edge_count, core_config, stage.core_count, cables
    )
    return FatTreeDesign(
        kind="fat_tree",
        node_count=request.node_count,
        edge_config=edge_config,
        core_config=core_config,
        split=split,
        core_stage=stage,
        cable_count=cables,
        objective=evaluate_objective(metrics, objective),
        metrics=metrics,
        uniform_distribution=uniform,
        max_supported_nodes=core_config.ports * split.ports_to_nodes,
    )


def trivial_direct_connect(
    request: DesignRequest, catalog: Catalog, objective: ObjectiveFn | None = None
) -> FatTreeDesign | None:
    """Two blade enclosures wired switch-to-switch, skipping the core layer.

    Applies only when exactly two enclosures are needed. When a pass-through
    panel is priced, the cheaper of the two-switch and switch-plus-panel
    variants is kept. Constraint-violating variants are dropped.
    """
    if not isinstance(request.form_factor, BladeFormFactor):
        return None
    blades = request.form_factor
    if not blades.enclosure_capacity < request.node_count <= 2 * blades.enclosure_capacity:
        return None
    edge_config = _embedded_edge_config(request, catalog)
    cross_cables = edge_config.ports // 2
    variants = []
    for use_pass_through in (False, True):
        if use_pass_through and blades.pass_through_cost is None:
            continue
        switches = 1 if use_pass_through else 2
        extra = blades.pass_through_cost if use_pass_through else 0
        metrics = _network_metrics(
            request, edge_config, switches, None, 0, cross_cables, extra_cost=extra
        )
        split = EdgeSplit(
            ports_to_nodes=blades.enclosure_capacity,
            ports_to_core=cross_cables,
            resulting_blocking=None,
            edge_count=switches,
        )
        variants.append(
            FatTreeDesign(
                kind="direct_connect",
                node_count=request.node_count,
                edge_config=edge_config,
                core_config=None,
                split=split,
                core_stage=None,
                cable_count=cross_cables,
                objective=evaluate_objective(metrics, objective),
                metrics=metrics,
                pass_through=use_pass_through,
                max_supported_nodes=2 * blades.enclosure_capacity,
            )
        )
    feasible = [v for v in variants if not check_constraints(v, request.constraints)]
    if not feasible:
        return None
    return min(feasible, key=lambda v: (v.objective, v.edge_count))


def trivial_star(
    request: DesignRequest, catalog: Catalog, objective: ObjectiveFn | None = None
) -> FatTreeDesign | None:
    """Single-switch star network when any catalog switch has enough ports."""
    stars = []
    for config in catalog.configs():
        if config.ports < request.node_count:
            continue
        cables = 0 if request.blade else request.node_count
        metrics = _network_metrics(request, config, 1, None, 0, cables)
        split = EdgeSplit(
            ports_to_nodes=request.node_count,
            ports_to_core=0,
            resulting_blocking=None,
            edge_count=1,
        )
        stars.append(
            FatTreeDesign(
                kind="star",
                node_count=request.node_count,
                edge_config=config,
                core_config=None,
                split=split,
                core_stage=None,
                cable_count=cables,
                objective=evaluate_objective(metrics, objective),
                metrics=metrics,
                max_supported_nodes=config.ports,
            )
        )
    feasible = [s for s in stars if not check_constraints(s, request.constraints)]
    if not feasible:
        return None
    return min(feasible, key=lambda s: (s.objective, s.edge_config.ports, s.edge_config.config_id))


def _embedded_edge_config(request: DesignRequest, catalog: Catalog) -> SwitchConfig:
    assert isinstance(request.form_factor, BladeFormFactor)
    wanted = request.form_factor.embedded_edge_switch_id
    for config in catalog.edge_set:
        if config.source_id == wanted or config.config_id == wanted:
            return config
    raise CatalogError(f"embedded edge switch {wanted!r} not found in the edge set")


def _edge_candidates(request: DesignRequest, catalog: Catalog) -> tuple[SwitchConfig, ...]:
    if request.blade:
        return (_embedded_edge_config(request, catalog),)
    return catalog.edge_set


def _candidate_sort_key(candidate: FatTreeDesign):
    return (
        candidate.objective,
        candidate.switch_count,
        candidate.metrics.rack_units,
        candidate.edge_config.config_id,
        candidate.core_config.config_id if candidate.core_config else "",
    )


def design(request: DesignRequest, catalog: Catalog, objective: ObjectiveFn | None = None) -> DesignReport:
    """Full design search: trivial cases, the edge x core grid, and selection.

    Raises InsufficientRadixError when no switch pairing can reach the node
    count, and DesignInfeasibleError when pairings exist but constraints
    reject them all. Ties are broken deterministically: fewer switches, then
    fewer rack units, then config ids.
    """
    if request.node_count < 2:
        raise ValueError("node_count must be at least 2")
    if request.blocking_factor <= 0:
        raise ValueError("blocking factor must be positive")

    candidates: list[FatTreeDesign] = []
    rejected: list[RejectedCandidate] = []
    max_reachable = 0

    direct = trivial_direct_connect(request, catalog, objective)
    if direct is not None:
        candidates.append(direct)
    star = trivial_star(request, catalog, objective)
    if star is not None:
        candidates.append(star)
    for config in catalog.configs():
        max_reachable = max(max_reachable, config.ports)
    if isinstance(request.form_factor, BladeFormFactor):
        max_reachable = max(max_reachable, 2 * request.form_factor.enclosure_capacity)

    blades = request.form_factor if request.blade else None
    for edge_config in _edge_candidates(request, catalog):
        split_parts = edge_port_split(edge_config.ports, request.blocking_factor)
        if split_parts is None:
            continue
        ports_to_nodes, ports_to_core, resulting = split_parts
        if blades is not None and blades.enclosure_capacity < ports_to_nodes:
            # an enclosure cannot hold more blades than it has bays
            ports_to_nodes = blades.enclosure_capacity
            resulting = Fraction(ports_to_nodes, ports_to_core)
        edges = edge_count(request.node_count, ports_to_nodes)
        for core_config in catalog.core_set:
            max_reachable = max(max_reachable, core_config.ports * ports_to_nodes)
            stage = core_stage(edges, ports_to_core, core_config.ports)
            if stage is None:
                continue
            split = EdgeSplit(ports_to_nodes, ports_to_core, resulting, edges)
            baseline = _fat_tree_candidate(request, edge_config, core_config, split, stage, objective)
            group = [baseline]
            variant = uniform_distribution_variant(
                request.node_count,
                edges,
                request.blocking_factor,
                edge_config.ports,
                core_config.ports,
                prefer_expandability=request.prefer_expandability,
            )
            if variant is not None:
                uniform_split, uniform_stage = variant
                group.append(
                    _fat_tree_candidate(
                        request, edge_config, core_config, uniform_split, uniform_stage, objective, uniform=True
                    )
                )
            for candidate in group:
                violations = check_constraints(candidate, request.constraints)
                if violations:
                    rejected.append(
                        RejectedCandidate(
                            edge_config.config_id, core_config.config_id, tuple(violations)
                        )
                    )
                else:
                    candidates.append(candidate)

    if not candidates:
        if rejected:
            binding = sorted({v.constraint for r in rejected for v in r.violations})
            raise DesignInfeasibleError(binding)
        raise InsufficientRadixError(request.node_count, max_reachable)

    ranked = tuple(sorted(candidates, key=_candidate_sort_key))
    return DesignReport(request=request, winner=ranked[0], candidates=ranked, rejected=tuple(rejected))


def cluster_cost(design_: FatTreeDesign, request: DesignRequest, server_unit_cost: Money) -> Money:
    """Acquisition cost of the whole cluster: network, servers, and enclosures."""
    total = design_.metrics.cost + request.node_count * server_unit_cost
    if isinstance(request.form_factor, BladeFormFactor):
        enclosures = -(-request.node_count // request.form_factor.enclosure_capacity)
        total += enclosures * request.form_factor.enclosure_cost
    return total


def request_from_document(document: Mapping) -> DesignRequest:
    """Build a DesignRequest from a parsed JSON document (money in minor units)."""
    form_doc = document.get("form_factor", {"kind": "rack_mounted"})
    kind = form_doc.get("kind", "rack_mounted")
    form_factor: FormFactor
    if kind == "blade":
        form_factor = BladeFormFactor(
            enclosure_capacity=int(form_doc["enclosure_capacity"]),
            enclosure_cost=int(form_doc.get("enclosure_cost", 0)),
            embedded_edge_switch_id=str(form_doc["embedded_edge_switch_id"]),
            pass_through_cost=(
                int(form_doc["pass_through_cost"]) if "pass_through_cost" in form_doc else None
            ),
        )
    elif kind == "rack_mounted":
        form_factor = NodeSpec(
            rack_units=int(form_doc.get("node_rack_units", 1)),
            weight=float(form_doc.get("node_weight", 0.0)),
            power=float(form_doc.get("node_power", 0.0)),
        )
    else:
        raise ValueError(f"unknown form factor kind: {kind!r}")
    constraints_doc = document.get("constraints", {})
    constraints = ConstraintSet(
        max_network_rack_units=constraints_doc.get("max_network_rack_units"),
        min_spare_core_ports=constraints_doc.get("min_spare_core_ports"),
        max_network_power=constraints_doc.get("max_network_power"),
        max_network_cost=constraints_doc.get("max_network_cost"),
    )
    blocking = document.get("blocking", "1")
    return DesignRequest(
        node_count=int(document["nodes"]),
        blocking_factor=parse_ratio(str(blocking)),
        form_factor=form_factor,
        avg_cable_cost=int(document.get("avg_cable_cost", DEFAULT_CABLE_COST)),
        constraints=constraints,
        prefer_expandability=bool(document.get("prefer_expandability", False)),
    )
