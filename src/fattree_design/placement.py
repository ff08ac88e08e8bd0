"""Rack placement heuristics and expansion planning.

Placement packs a solved design into racks under per-rack space, weight, and
power budgets. Every piece of equipment is a PlacedItem: reserved space, a
core switch, an edge switch, or a run of nodes. The unit of placement is the
building block, the pair of items made of one edge switch and the nodes
attached to it. Racks fill in serpentine row order; blocks go into the
current rack until it cannot take another, and in dense mode a block is
spread across the slack of already-visited racks as soon as that slack can
hold it, its nodes split into one item per rack. Reserved space and core
switches are placed before blocks, the cores at a configurable position.

Expansion planning sizes the core layer for the largest anticipated node
count so later phases only add edge switches and nodes, and the audit
quantifies how far a network built without that foresight can grow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .catalog import Catalog, SwitchConfig
from .designer import (
    DEFAULT_CABLE_COST,
    FatTreeDesign,
    NodeSpec,
    SearchPlan,
    design,  # noqa: F401  re-exported: perfbench's tracer wraps placement.design
    edge_count,
    fewest_uplinks,
    node_distribution,
    scan_plan,
)
from .money import Money, check_finite, check_number

CORE_PLACEMENTS = ("first_racks_contiguous", "center", "distributed")
MAX_RACK_POSITIONS = 10_000  # placement builds one Rack per position


class PlacementError(Exception):
    """Equipment cannot be placed within the room or capacity budgets."""


@dataclass(frozen=True)
class RoomSpec:
    """Machine-room geometry and per-rack budgets (None means unlimited)."""

    rows: int
    racks_per_row: int
    rack_units_per_rack: int = 42
    rack_weight_budget: float | None = None
    rack_power_budget: float | None = None

    def __post_init__(self) -> None:
        # a NaN budget compares false with every load, so it would apply no budget
        check_finite("room", self)
        for name in ("rows", "racks_per_row", "rack_units_per_rack"):
            check_number(f"room {name}", getattr(self, name), minimum=1)
        if self.rack_count > MAX_RACK_POSITIONS:
            raise ValueError(
                f"room rows x racks_per_row must be at most {MAX_RACK_POSITIONS} rack positions, got {self.rack_count}"
            )
        for name in ("rack_weight_budget", "rack_power_budget"):
            if (budget := getattr(self, name)) is not None:
                check_number(f"room {name}", budget, minimum=0, integral=False)

    @property
    def rack_count(self) -> int:
        return self.rows * self.racks_per_row


@dataclass(frozen=True)
class PlacedItem:
    kind: str  # "core_switch" | "edge_switch" | "node_block" | "reserved"
    rack_units: int
    label: str
    block_id: str | None = None
    node_count: int = 0
    weight: float = 0.0
    power: float = 0.0


@dataclass
class Rack:
    """A rack's items and their running totals; add() is the only code that adds to them."""

    index: int
    row: int
    position: int
    capacity_units: int
    items: list[PlacedItem] = field(default_factory=list, init=False)
    # start at int 0 and add in placement order, as sum() over items would
    used_units: int = field(default=0, init=False)
    used_weight: float = field(default=0, init=False)
    used_power: float = field(default=0, init=False)

    def add(self, item: PlacedItem) -> None:
        self.items.append(item)
        self.used_units += item.rack_units
        self.used_weight += item.weight
        self.used_power += item.power

    @property
    def free_units(self) -> int:
        return self.capacity_units - self.used_units


@dataclass(frozen=True)
class RackLayout:
    """Placed equipment; racks appear in serpentine fill order."""

    room: RoomSpec
    racks: tuple[Rack, ...]
    spread_blocks: tuple[str, ...]

    @property
    def racks_used(self) -> int:
        return sum(1 for rack in self.racks if rack.items)


def _serpentine_racks(room: RoomSpec) -> list[Rack]:
    racks = []
    index = 0
    for row in range(room.rows):
        columns = range(room.racks_per_row)
        if row % 2:
            columns = range(room.racks_per_row - 1, -1, -1)
        for column in columns:
            racks.append(Rack(index, row, column, room.rack_units_per_rack))
            index += 1
    return racks


def _fits(rack: Rack, room: RoomSpec, *items: PlacedItem) -> bool:
    """Whether rack takes items together; their load is added up before the rack's is added to it."""
    units = weight = power = 0
    for item in items:
        units += item.rack_units
        weight += item.weight
        power += item.power
    if rack.free_units < units:
        return False
    if room.rack_weight_budget is not None and rack.used_weight + weight > room.rack_weight_budget:
        return False
    if room.rack_power_budget is not None and rack.used_power + power > room.rack_power_budget:
        return False
    return True


def _first_fit(racks: Sequence[Rack], room: RoomSpec, item: PlacedItem) -> int | None:
    """Add item to the first of racks that fits it and return that rack's position in racks, or None."""
    for step, rack in enumerate(racks):
        if _fits(rack, room, item):
            rack.add(item)
            return step
    return None


def _switch(kind: str, label: str, config: SwitchConfig, block_id: str | None = None) -> PlacedItem:
    """A core switch, or the edge switch of block_id."""
    return PlacedItem(
        kind=kind, rack_units=config.rack_units, label=label, block_id=block_id,
        weight=config.weight, power=config.power,
    )


def _nodes(block_id: str, spec: NodeSpec, count: int) -> PlacedItem:
    """count nodes of block_id: the whole block, or one rack's chunk of a spread block."""
    return PlacedItem(
        kind="node_block", rack_units=count * spec.rack_units, label=f"{block_id} nodes x{count}",
        block_id=block_id, node_count=count, weight=count * spec.weight, power=count * spec.power,
    )


def _place_core_switches(
    design_: FatTreeDesign, room: RoomSpec, racks: list[Rack], core_placement: str
) -> None:
    """Place core switches per policy, falling back to any rack with room.

    "center" alternates over the room's middle column (the stacks face each
    other across the aisle); "distributed" round-robins over every rack;
    the default packs them contiguously from the first rack.
    """
    config = design_.core_config
    if config is None or design_.core_count == 0:
        return
    if core_placement == "center":
        column = (room.racks_per_row - 1) // 2
        primary = [rack for rack in racks if rack.position == column]
    elif core_placement == "distributed":
        primary = racks
    else:
        primary = []
    cursor = 0
    for i in range(design_.core_count):
        item = _switch("core_switch", f"core-{i + 1:02d} ({config.config_id})", config)
        # the policy's racks from the cursor on, then every rack from the first
        step = _first_fit(primary[cursor:] + primary[:cursor] + racks, room, item)
        if step is None:
            raise PlacementError(f"no rack can hold core switch {i + 1} ({config.rack_units}U)")
        if step < len(primary):
            cursor = (cursor + step + 1) % len(primary)


def _larger_than_rack(label: str, units: int, room: RoomSpec) -> PlacementError:
    return PlacementError(f"{label} ({units}U) is larger than a {room.rack_units_per_rack}U rack")


def _headroom(rack: Rack, room: RoomSpec) -> tuple[int, float, float]:
    """The rack's free units, and the weight and power its budgets have left (inf when unlimited)."""
    weight_left = room.rack_weight_budget - rack.used_weight if room.rack_weight_budget is not None else float("inf")
    power_left = room.rack_power_budget - rack.used_power if room.rack_power_budget is not None else float("inf")
    return rack.free_units, weight_left, power_left


def _takes(item: PlacedItem, free: int, weight_left: float, power_left: float) -> bool:
    """Whether item fits in this headroom, as a spread decides it (not as _fits adds it up)."""
    return free >= item.rack_units and weight_left >= item.weight and power_left >= item.power


def _node_room(spec: NodeSpec, free: int, weight_left: float, power_left: float) -> int:
    """How many nodes fit in this headroom."""
    chunk = free // spec.rack_units
    if spec.weight > 0 and weight_left != float("inf"):
        chunk = min(chunk, int(weight_left / spec.weight))
    if spec.power > 0 and power_left != float("inf"):
        chunk = min(chunk, int(power_left / spec.power))
    return max(0, chunk)


def _spread_can_use(rack: Rack, room: RoomSpec, switch: PlacedItem, spec: NodeSpec) -> bool:
    """Whether _try_spread could put anything into rack: the edge switch or one node.

    Every block has the same edge switch model and node spec, and racks only
    fill up, so a rack that can take neither now never can again.
    """
    headroom = _headroom(rack, room)
    return _takes(switch, *headroom) or _node_room(spec, *headroom) > 0


def _try_spread(
    switch: PlacedItem, node_count: int, spec: NodeSpec, racks: Sequence[Rack], room: RoomSpec
) -> list[tuple[Rack, PlacedItem]] | None:
    """Plan piecewise placement of a block into the given racks, or None.

    Each rack is visited once: the switch goes into the first rack with room
    for it, and each rack's nodes fill what that rack has left.
    """
    placements: list[tuple[Rack, PlacedItem]] = []
    switch_done = False
    remaining = node_count
    for rack in racks:
        free, weight_left, power_left = _headroom(rack, room)
        if not switch_done and _takes(switch, free, weight_left, power_left):
            placements.append((rack, switch))
            switch_done = True
            free -= switch.rack_units
            weight_left -= switch.weight
            power_left -= switch.power
        if remaining > 0:
            chunk = min(remaining, _node_room(spec, free, weight_left, power_left))
            if chunk > 0:
                placements.append((rack, _nodes(switch.block_id, spec, chunk)))
                remaining -= chunk
        if switch_done and remaining == 0:
            return placements
    return None


def _check_room_capacity(
    design_: FatTreeDesign, room: RoomSpec, blocks: list[tuple[PlacedItem, PlacedItem]], reserve: Sequence[int]
) -> None:
    deficits = []
    for unit, attribute, per_rack in (
        ("U", "rack_units", room.rack_units_per_rack),
        ("kg", "weight", room.rack_weight_budget),
        ("W", "power", room.rack_power_budget),
    ):
        if per_rack is None:
            continue
        need = sum(getattr(switch, attribute) + getattr(nodes, attribute) for switch, nodes in blocks)
        if unit == "U":
            need += sum(reserve)  # reserved space has no weight or power
        if design_.core_config is not None:
            need += design_.core_count * getattr(design_.core_config, attribute)
        have = room.rack_count * per_rack
        if need > have:
            # whole units print as integers; :g would turn 1000000 into 1e+06
            deficits.append(f"{need - have}U" if unit == "U" else f"{need - have:g}{unit}")
    if deficits:
        raise PlacementError(f"equipment exceeds room capacity by {', '.join(deficits)}")


def plan_racks(
    design_: FatTreeDesign,
    room: RoomSpec,
    node_spec: NodeSpec = NodeSpec(),
    *,
    dense: bool = False,
    core_placement: str = "first_racks_contiguous",
    reserve: Sequence[int] = (),
) -> RackLayout:
    """Pack a rack-mounted design into the room.

    Placement order: reserved space, then core switches (policy-controlled
    position), then building blocks into successive racks. A building block
    is two items, an edge switch and its nodes, and goes into one rack whole.
    In dense mode a block that no longer fits the current rack is spread
    across the slack of the racks visited so far whenever that slack can
    absorb it whole. The spread walks only the current rack and the racks
    behind it that can still take the edge switch or one node; skipping the
    others changes nothing it places.
    """
    _check_node_spec(node_spec)
    for units in reserve:
        check_number("reserved space", units)
        if units < 1:
            raise ValueError(f"reserved space must be at least 1U, got {units}")
    if core_placement not in CORE_PLACEMENTS:
        raise ValueError(f"unknown core placement policy: {core_placement!r}")
    if design_.kind == "direct_connect":
        raise PlacementError("direct-connect blade designs have no rack-mounted equipment to place")
    edge = design_.edge_config
    blocks = []
    for i, count in enumerate(node_distribution(design_)):  # the last block carries the remainder nodes
        block_id = f"block-{i + 1:02d}"
        switch = _switch("edge_switch", f"{block_id} switch ({edge.config_id})", edge, block_id)
        blocks.append((switch, _nodes(block_id, node_spec, count)))
    _check_room_capacity(design_, room, blocks, reserve)
    racks = _serpentine_racks(room)

    for i, units in enumerate(reserve):
        label = f"reserved-{i + 1:02d}"
        if units > room.rack_units_per_rack:
            raise _larger_than_rack(label, units, room)
        if _first_fit(racks, room, PlacedItem(kind="reserved", rack_units=units, label=label)) is None:
            raise PlacementError(f"no rack can hold {label} ({units}U)")
    _place_core_switches(design_, room, racks, core_placement)

    spread_ids: list[str] = []
    behind: list[Rack] = []  # dense mode: the racks behind the cursor that a spread can still use, in walk order
    cursor = 0
    for switch, nodes in blocks:
        units = switch.rack_units + nodes.rack_units
        if not dense and units > room.rack_units_per_rack:
            raise _larger_than_rack(switch.block_id, units, room)
        placed = False
        while not placed:
            rack = racks[cursor]
            if _fits(rack, room, switch, nodes):
                rack.add(switch)
                if nodes.node_count:
                    rack.add(nodes)
                placed = True
            elif dense:
                plan = _try_spread(switch, nodes.node_count, node_spec, [*behind, rack], room)
                if plan is not None:
                    for target, item in plan:
                        target.add(item)
                    spread_ids.append(switch.block_id)
                    placed = True
                    behind = [other for other in behind if _spread_can_use(other, room, switch, node_spec)]
            if not placed:
                if dense and _spread_can_use(rack, room, switch, node_spec):
                    behind.append(rack)
                cursor += 1
                if cursor >= len(racks):
                    raise PlacementError(f"{switch.block_id} ({units}U) does not fit: room exhausted")

    last_used = max((i for i, rack in enumerate(racks) if rack.items), default=-1)
    kept = racks[: last_used + 1]
    for rack in kept:
        rack.items.sort(key=lambda item: item.kind == "node_block")
    return RackLayout(room=room, racks=tuple(kept), spread_blocks=tuple(spread_ids))


# --- expansion planning -----------------------------------------------------


@dataclass(frozen=True)
class CapacityFit:
    """Largest node count whose network fits a rack-space budget."""

    capacity_units: int
    node_count: int
    design: FatTreeDesign


@dataclass(frozen=True)
class InstallPhase:
    capacity_units: int
    edge_switches: int
    node_count: int


@dataclass(frozen=True)
class InstallmentPlan:
    name: str
    phases: tuple[InstallPhase, ...]


@dataclass(frozen=True)
class ExpansionPlan:
    """Core layer sized for the target from day one; edges arrive in phases."""

    current_capacity_units: int
    target_capacity_units: int
    target_max_nodes: int
    edge_config: SwitchConfig
    core_config: SwitchConfig
    edge_count: int
    core_count: int
    spare_core_ports: int
    variants: tuple[InstallmentPlan, ...]
    baseline: CapacityFit


@dataclass(frozen=True)
class ExpansionAudit:
    max_added_nodes: int
    wasted_units: int
    via_spare_edge_ports: int
    via_new_edge_switches: int
    new_edge_switch_count: int


def fit_max_nodes(
    capacity_units: int,
    catalog: Catalog,
    blocking: Fraction,
    node_spec: NodeSpec = NodeSpec(),
    avg_cable_cost: Money = DEFAULT_CABLE_COST,
) -> CapacityFit:
    """Largest N such that N nodes plus their network fit in capacity_units.

    N walks down from the nodes the capacity holds, or from the largest
    node count any design of the catalog reaches if that is lower: every
    larger N has no design. One search plan's winner() gives design()'s
    winner for each N, and the first N whose winner fits returns it.
    """
    check_number("capacity", capacity_units)
    if capacity_units < 0:
        raise ValueError(f"capacity must not be negative, got {capacity_units}U")
    _check_node_spec(node_spec)
    return _fit(scan_plan(catalog, blocking, node_spec, avg_cable_cost), capacity_units)


def _check_node_spec(node_spec: object) -> None:
    """Raise ValueError unless node_spec is a NodeSpec: rack-mounted nodes, the only kind placement handles."""
    if not isinstance(node_spec, NodeSpec):
        raise ValueError(f"node_spec must be a NodeSpec, got {node_spec!r}")


def _fit(plan: SearchPlan, capacity_units: int) -> CapacityFit:
    """fit_max_nodes' walk, on a plan from scan_plan(); several capacities may share one plan."""
    node_units = plan.request.form_factor.rack_units
    for nodes in range(min(capacity_units // node_units, plan.max_reachable), 1, -1):
        # every N up to max_reachable has a design: a star, or the widest core over the edge model that reaches N
        winner = plan.winner(nodes)
        if nodes * node_units + winner.metrics.rack_units <= capacity_units:
            return CapacityFit(capacity_units=capacity_units, node_count=nodes, design=winner)
    raise PlacementError(f"no node count fits in {capacity_units}U")


def expansion_plan(
    current_capacity_units: int,
    target_capacity_units: int,
    catalog: Catalog,
    blocking: Fraction,
    node_spec: NodeSpec = NodeSpec(),
    avg_cable_cost: Money = DEFAULT_CABLE_COST,
) -> ExpansionPlan:
    """Size the network for the target capacity, then phase the installation.

    Two initial-phase variants are produced: install every switch up front,
    or install the full core but only as many edge switches as the initial
    nodes need (deferring the rest to the expansion stage).
    """
    check_number("current capacity", current_capacity_units)
    check_number("target capacity", target_capacity_units)
    if target_capacity_units < current_capacity_units:
        raise ValueError("target capacity must not shrink")
    if current_capacity_units < 0:
        raise ValueError(f"current capacity must not be negative, got {current_capacity_units}U")
    # one plan serves both fits, so the baseline reuses the target's tables
    _check_node_spec(node_spec)
    plan = scan_plan(catalog, blocking, node_spec, avg_cable_cost)
    target = _fit(plan, target_capacity_units)
    baseline = _fit(plan, current_capacity_units)
    final = target.design
    if final.kind != "fat_tree":
        raise PlacementError("expansion planning needs a two-layer design at the target size")
    assert final.core_config is not None and final.core_stage is not None

    switch_units = final.metrics.rack_units
    nodes_v1 = min(
        (current_capacity_units - switch_units) // node_spec.rack_units,
        target.node_count,
    )
    if nodes_v1 < 0:
        nodes_v1 = 0
    final_phase = InstallPhase(target_capacity_units, final.edge_count, target.node_count)
    all_upfront = InstallmentPlan(
        name="all_switches_upfront",
        phases=(InstallPhase(current_capacity_units, final.edge_count, nodes_v1), final_phase),
    )

    core_units = final.core_count * final.core_config.rack_units
    ports_to_nodes = final.split.ports_to_nodes
    edge_units = final.edge_config.rack_units
    best_nodes, best_edges = 0, 0
    upper = min(target.node_count, max(0, (current_capacity_units - core_units)) // node_spec.rack_units)
    for nodes in range(upper, -1, -1):
        edges = edge_count(nodes, ports_to_nodes)
        used = core_units + edges * edge_units + nodes * node_spec.rack_units
        if used <= current_capacity_units:
            best_nodes, best_edges = nodes, edges
            break
    core_first = InstallmentPlan(
        name="core_first",
        phases=(InstallPhase(current_capacity_units, best_edges, best_nodes), final_phase),
    )

    spare = final.core_count * final.core_config.ports - final.edge_count * final.split.ports_to_core
    return ExpansionPlan(
        current_capacity_units=current_capacity_units,
        target_capacity_units=target_capacity_units,
        target_max_nodes=target.node_count,
        edge_config=final.edge_config,
        core_config=final.core_config,
        edge_count=final.edge_count,
        core_count=final.core_count,
        spare_core_ports=spare,
        variants=(all_upfront, core_first),
        baseline=baseline,
    )


def expansion_audit(
    design_: FatTreeDesign, extra_capacity_units: int, node_spec: NodeSpec = NodeSpec()
) -> ExpansionAudit:
    """How many nodes an as-built network can still accept, and the space left over.

    Assumes the frugal wiring of a network built without expansion in mind:
    each edge switch has only the uplinks its own nodes need. Growth first
    tops up the underfilled edge switch, then adds whole edge switches while
    spare core ports remain.
    """
    check_number("extra capacity", extra_capacity_units)
    _check_node_spec(node_spec)
    if extra_capacity_units < 0:
        raise ValueError(f"extra capacity must not be negative, got {extra_capacity_units}U")
    if design_.kind != "fat_tree":
        raise PlacementError("expansion audit applies to two-layer designs")
    assert design_.core_config is not None and design_.core_stage is not None
    blocking = design_.split.resulting_blocking
    assert blocking is not None

    distribution = node_distribution(design_)
    wired_uplinks = sum(fewest_uplinks(nodes, blocking) for nodes in distribution)
    spare_core = design_.core_count * design_.core_config.ports - wired_uplinks

    capacity_left = extra_capacity_units
    ports_to_nodes = design_.split.ports_to_nodes
    edge_ports = design_.edge_config.ports

    last = distribution[-1]
    last_uplinks = fewest_uplinks(last, blocking)
    free_ports = edge_ports - last - last_uplinks
    via_spare = 0
    for extra in range(min(ports_to_nodes - last, capacity_left // node_spec.rack_units), -1, -1):
        new_uplinks = fewest_uplinks(last + extra, blocking) - last_uplinks
        if extra + new_uplinks <= free_ports and new_uplinks <= spare_core:
            via_spare = extra
            break
    spare_core -= fewest_uplinks(last + via_spare, blocking) - last_uplinks
    capacity_left -= via_spare * node_spec.rack_units

    via_new = 0
    new_switches = 0
    edge_units = design_.edge_config.rack_units
    while capacity_left >= edge_units + node_spec.rack_units and spare_core > 0:
        by_capacity = (capacity_left - edge_units) // node_spec.rack_units
        by_core = spare_core * blocking.numerator // blocking.denominator
        nodes = min(ports_to_nodes, by_capacity, by_core)
        if nodes <= 0:
            break
        new_switches += 1
        via_new += nodes
        spare_core -= fewest_uplinks(nodes, blocking)
        capacity_left -= edge_units + nodes * node_spec.rack_units

    return ExpansionAudit(
        max_added_nodes=via_spare + via_new,
        wasted_units=capacity_left,
        via_spare_edge_ports=via_spare,
        via_new_edge_switches=via_new,
        new_edge_switch_count=new_switches,
    )
