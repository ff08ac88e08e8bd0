"""Rack placement heuristics and expansion planning.

Placement packs a solved design into racks under per-rack space, weight, and
power budgets. The unit of placement is the building block: one edge switch
plus the nodes attached to it. Racks fill in serpentine row order; blocks go
into the current rack until it cannot take another, and in dense mode a block
is spread across the slack of already-visited racks as soon as that slack can
hold it. Core switches are placed before blocks, at a configurable position.

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
    DesignError,
    DesignRequest,
    FatTreeDesign,
    NodeSpec,
    design,
    node_distribution,
)
from .money import Money

CORE_PLACEMENTS = ("first_racks_contiguous", "center", "distributed")


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
        for name in ("rows", "racks_per_row", "rack_units_per_rack"):
            if getattr(self, name) < 1:
                raise ValueError(f"room {name} must be at least 1, got {getattr(self, name)}")

    @property
    def rack_count(self) -> int:
        return self.rows * self.racks_per_row


@dataclass(frozen=True)
class BuildingBlock:
    """An edge switch and the nodes connected to it, placed as a unit."""

    block_id: str
    edge_switch: SwitchConfig
    node_count: int
    node_spec: NodeSpec

    @property
    def rack_units(self) -> int:
        return self.edge_switch.rack_units + self.node_count * self.node_spec.rack_units

    @property
    def weight(self) -> float:
        return self.edge_switch.weight + self.node_count * self.node_spec.weight

    @property
    def power(self) -> float:
        return self.edge_switch.power + self.node_count * self.node_spec.power


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
    index: int
    row: int
    position: int
    capacity_units: int
    items: list[PlacedItem] = field(default_factory=list)

    @property
    def used_units(self) -> int:
        return sum(item.rack_units for item in self.items)

    @property
    def used_weight(self) -> float:
        return sum(item.weight for item in self.items)

    @property
    def used_power(self) -> float:
        return sum(item.power for item in self.items)

    @property
    def free_units(self) -> int:
        return self.capacity_units - self.used_units


@dataclass(frozen=True)
class RackLayout:
    """Placed equipment; racks appear in serpentine fill order."""

    room: RoomSpec
    racks: tuple[Rack, ...]
    spread_blocks: tuple[str, ...]
    unplaced: tuple[str, ...] = ()

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


def _fits(rack: Rack, room: RoomSpec, units: int, weight: float, power: float) -> bool:
    if rack.free_units < units:
        return False
    if room.rack_weight_budget is not None and rack.used_weight + weight > room.rack_weight_budget:
        return False
    if room.rack_power_budget is not None and rack.used_power + power > room.rack_power_budget:
        return False
    return True


def building_blocks(design_: FatTreeDesign, node_spec: NodeSpec) -> list[BuildingBlock]:
    """One block per edge switch; the last block carries the remainder nodes."""
    blocks = []
    for i, nodes in enumerate(node_distribution(design_)):
        blocks.append(
            BuildingBlock(
                block_id=f"block-{i + 1:02d}",
                edge_switch=design_.edge_config,
                node_count=nodes,
                node_spec=node_spec,
            )
        )
    return blocks


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
    elif core_placement == "first_racks_contiguous":
        primary = None
    else:
        raise ValueError(f"unknown core placement policy: {core_placement!r}")
    cursor = 0
    for i in range(design_.core_count):
        item = PlacedItem(
            kind="core_switch",
            rack_units=config.rack_units,
            label=f"core-{i + 1:02d} ({config.config_id})",
            weight=config.weight,
            power=config.power,
        )
        placed = False
        if primary is not None:
            for step in range(len(primary)):
                rack = primary[(cursor + step) % len(primary)]
                if _fits(rack, room, item.rack_units, item.weight, item.power):
                    rack.items.append(item)
                    cursor = (cursor + step + 1) % len(primary)
                    placed = True
                    break
        if not placed:
            for rack in racks:
                if _fits(rack, room, item.rack_units, item.weight, item.power):
                    rack.items.append(item)
                    placed = True
                    break
        if not placed:
            raise PlacementError(f"no rack can hold core switch {i + 1} ({config.rack_units}U)")


def _larger_than_rack(label: str, units: int, room: RoomSpec) -> PlacementError:
    return PlacementError(f"{label} ({units}U) is larger than a {room.rack_units_per_rack}U rack")


def _place_reserved(racks: list[Rack], room: RoomSpec, units: int, label: str) -> None:
    if units > room.rack_units_per_rack:
        raise _larger_than_rack(label, units, room)
    for rack in racks:
        if _fits(rack, room, units, 0.0, 0.0):
            rack.items.append(PlacedItem(kind="reserved", rack_units=units, label=label))
            return
    raise PlacementError(f"no rack can hold {label} ({units}U)")


def _switch_item(block: BuildingBlock) -> PlacedItem:
    switch = block.edge_switch
    return PlacedItem(
        kind="edge_switch",
        rack_units=switch.rack_units,
        label=f"{block.block_id} switch ({switch.config_id})",
        block_id=block.block_id,
        weight=switch.weight,
        power=switch.power,
    )


def _node_item(block: BuildingBlock, count: int) -> PlacedItem:
    spec = block.node_spec
    return PlacedItem(
        kind="node_block",
        rack_units=count * spec.rack_units,
        label=f"{block.block_id} nodes x{count}",
        block_id=block.block_id,
        node_count=count,
        weight=count * spec.weight,
        power=count * spec.power,
    )


def _try_spread(
    block: BuildingBlock, racks: Sequence[Rack], room: RoomSpec
) -> list[tuple[Rack, PlacedItem]] | None:
    """Plan piecewise placement of a block into the given racks, or None."""
    switch = block.edge_switch
    placements: list[tuple[Rack, PlacedItem]] = []
    used: dict[int, tuple[int, float, float]] = {}  # rack index -> tentative usage

    def headroom(rack: Rack) -> tuple[int, float, float]:
        extra_units, extra_weight, extra_power = used.get(rack.index, (0, 0.0, 0.0))
        free = rack.free_units - extra_units
        weight_left = (
            room.rack_weight_budget - rack.used_weight - extra_weight
            if room.rack_weight_budget is not None
            else float("inf")
        )
        power_left = (
            room.rack_power_budget - rack.used_power - extra_power
            if room.rack_power_budget is not None
            else float("inf")
        )
        return free, weight_left, power_left

    def reserve(rack: Rack, item: PlacedItem) -> None:
        extra_units, extra_weight, extra_power = used.get(rack.index, (0, 0.0, 0.0))
        used[rack.index] = (
            extra_units + item.rack_units,
            extra_weight + item.weight,
            extra_power + item.power,
        )
        placements.append((rack, item))

    switch_done = False
    remaining = block.node_count
    spec = block.node_spec
    for rack in racks:
        free, weight_left, power_left = headroom(rack)
        if (
            not switch_done
            and free >= switch.rack_units
            and weight_left >= switch.weight
            and power_left >= switch.power
        ):
            reserve(rack, _switch_item(block))
            switch_done = True
        if remaining > 0:
            free, weight_left, power_left = headroom(rack)
            chunk = free // spec.rack_units
            if spec.weight > 0 and weight_left != float("inf"):
                chunk = min(chunk, int(weight_left / spec.weight))
            if spec.power > 0 and power_left != float("inf"):
                chunk = min(chunk, int(power_left / spec.power))
            chunk = min(remaining, max(0, chunk))
            if chunk > 0:
                reserve(rack, _node_item(block, chunk))
                remaining -= chunk
        if switch_done and remaining == 0:
            return placements
    return None


def _check_room_capacity(
    design_: FatTreeDesign, room: RoomSpec, blocks: list[BuildingBlock], reserve: Sequence[int]
) -> None:
    deficits = []
    for unit, attribute, per_rack in (
        ("U", "rack_units", room.rack_units_per_rack),
        ("kg", "weight", room.rack_weight_budget),
        ("W", "power", room.rack_power_budget),
    ):
        if per_rack is None:
            continue
        need = sum(getattr(block, attribute) for block in blocks)
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
    position), then building blocks into successive racks. In dense mode a
    block that no longer fits the current rack is spread across the slack of
    the racks visited so far whenever that slack can absorb it whole.
    """
    if design_.kind == "direct_connect":
        raise PlacementError("direct-connect blade designs have no rack-mounted equipment to place")
    blocks = building_blocks(design_, node_spec)
    _check_room_capacity(design_, room, blocks, reserve)
    racks = _serpentine_racks(room)

    for i, units in enumerate(reserve):
        _place_reserved(racks, room, units, f"reserved-{i + 1:02d}")
    _place_core_switches(design_, room, racks, core_placement)

    spread_ids: list[str] = []
    cursor = 0
    for block in blocks:
        if not dense and block.rack_units > room.rack_units_per_rack:
            raise _larger_than_rack(block.block_id, block.rack_units, room)
        placed = False
        while not placed:
            rack = racks[cursor]
            if _fits(rack, room, block.rack_units, block.weight, block.power):
                rack.items.append(_switch_item(block))
                if block.node_count:
                    rack.items.append(_node_item(block, block.node_count))
                placed = True
            elif dense:
                plan = _try_spread(block, racks[: cursor + 1], room)
                if plan is not None:
                    for target, item in plan:
                        target.items.append(item)
                    spread_ids.append(block.block_id)
                    placed = True
            if not placed:
                cursor += 1
                if cursor >= len(racks):
                    raise PlacementError(
                        f"{block.block_id} ({block.rack_units}U) does not fit: room exhausted"
                    )

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

    @property
    def initial_nodes(self) -> int:
        return self.phases[0].node_count


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

    @property
    def initial_nodes(self) -> int:
        return max(variant.initial_nodes for variant in self.variants)


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
    """Largest N such that N nodes plus their network fit in capacity_units."""
    upper = capacity_units // node_spec.rack_units
    for nodes in range(upper, 1, -1):
        request = DesignRequest(
            node_count=nodes,
            blocking_factor=blocking,
            form_factor=node_spec,
            avg_cable_cost=avg_cable_cost,
        )
        try:
            winner = design(request, catalog).winner
        except DesignError:
            continue
        total = nodes * node_spec.rack_units + winner.metrics.rack_units
        if total <= capacity_units:
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
    if target_capacity_units < current_capacity_units:
        raise ValueError("target capacity must not shrink")
    target = fit_max_nodes(target_capacity_units, catalog, blocking, node_spec, avg_cable_cost)
    baseline = fit_max_nodes(current_capacity_units, catalog, blocking, node_spec, avg_cable_cost)
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
    all_upfront = InstallmentPlan(
        name="all_switches_upfront",
        phases=(
            InstallPhase(current_capacity_units, final.edge_count, nodes_v1),
            InstallPhase(target_capacity_units, final.edge_count, target.node_count),
        ),
    )

    core_units = final.core_count * final.core_config.rack_units
    ports_to_nodes = final.split.ports_to_nodes
    edge_units = final.edge_config.rack_units
    best_nodes, best_edges = 0, 0
    upper = min(target.node_count, max(0, (current_capacity_units - core_units)) // node_spec.rack_units)
    for nodes in range(upper, -1, -1):
        edges = -(-nodes // ports_to_nodes) if nodes else 0
        if edges > final.edge_count:
            continue
        used = core_units + edges * edge_units + nodes * node_spec.rack_units
        if used <= current_capacity_units:
            best_nodes, best_edges = nodes, edges
            break
    core_first = InstallmentPlan(
        name="core_first",
        phases=(
            InstallPhase(current_capacity_units, best_edges, best_nodes),
            InstallPhase(target_capacity_units, final.edge_count, target.node_count),
        ),
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
    if design_.kind != "fat_tree":
        raise PlacementError("expansion audit applies to two-layer designs")
    assert design_.core_config is not None and design_.core_stage is not None
    blocking = design_.split.resulting_blocking
    assert blocking is not None

    def uplinks_for(nodes: int) -> int:
        return -(-nodes * blocking.denominator // blocking.numerator)

    distribution = node_distribution(design_)
    wired_uplinks = sum(uplinks_for(nodes) for nodes in distribution)
    spare_core = design_.core_count * design_.core_config.ports - wired_uplinks

    capacity_left = extra_capacity_units
    ports_to_nodes = design_.split.ports_to_nodes
    edge_ports = design_.edge_config.ports

    last = distribution[-1]
    last_uplinks = uplinks_for(last)
    free_ports = edge_ports - last - last_uplinks
    via_spare = 0
    for extra in range(min(ports_to_nodes - last, capacity_left // node_spec.rack_units), -1, -1):
        new_uplinks = uplinks_for(last + extra) - last_uplinks
        if extra + new_uplinks <= free_ports and new_uplinks <= spare_core:
            via_spare = extra
            break
    spare_core -= uplinks_for(last + via_spare) - last_uplinks
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
        spare_core -= uplinks_for(nodes)
        capacity_left -= edge_units + nodes * node_spec.rack_units

    return ExpansionAudit(
        max_added_nodes=via_spare + via_new,
        wasted_units=capacity_left,
        via_spare_edge_ports=via_spare,
        via_new_edge_switches=via_new,
        new_edge_switch_count=new_switches,
    )
