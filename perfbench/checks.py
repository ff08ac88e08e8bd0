"""Output checks written independently of the code under test.

Prices, port counts and budgets are recomputed from the generated catalog
documents and inputs, never from the program's own catalog objects, and
every check raises ``CheckFailure`` on the first broken invariant.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

DEFAULT_CABLE_COST = 8000


class CheckFailure(Exception):
    """An output broke an invariant the benchmark checks."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def price_table(catalog: dict) -> dict[str, dict]:
    """Every purchasable configuration of a catalog document, by config id."""
    table = {}
    for m in catalog["monolithic"]:
        table[m["id"]] = {
            "source": m["id"], "ports": m["ports"], "cost": m["cost"], "power": m["power"],
            "rack_units": m["rack_units"], "weight": m["weight"], "expandable": 0,
        }
    for f in catalog["modular"]:
        base = f["chassis_cost"] + f["fabric_boards_required"] * f["fabric_board_cost"]
        for cards in range(1, f["max_line_cards"] + 1):
            ports = cards * f["ports_per_line_card"]
            table[f"{f['id']}:{ports}p"] = {
                "source": f["id"], "ports": ports,
                "cost": base + cards * f["line_card_cost"],
                "power": f["chassis_power"] + cards * f.get("per_line_card_power", 0),
                "rack_units": f["chassis_rack_units"],
                "weight": f["chassis_weight"] + cards * f.get("per_line_card_weight", 0),
                "expandable": (f["max_line_cards"] - cards) * f["ports_per_line_card"],
            }
    return table


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def check_candidate(c, request: dict, prices: dict) -> None:
    """Port arithmetic, recomputed cost and the request's constraints for one design."""
    nodes = request["nodes"]
    blocking = Fraction(request.get("blocking", "1"))
    cable_cost = request.get("avg_cable_cost", DEFAULT_CABLE_COST)
    form = request.get("form_factor", {"kind": "rack_mounted"})
    blade = form.get("kind") == "blade"
    expect(c.node_count == nodes, f"design for {c.node_count} nodes, {nodes} requested")
    edge = prices.get(c.edge_config.config_id)
    expect(edge is not None, f"unknown edge config {c.edge_config.config_id}")
    expect(edge["ports"] == c.edge_config.ports, "edge port count differs from the catalog")
    embedded = blade and edge["source"] == form["embedded_edge_switch_id"]
    edges = c.split.edge_count
    edge_units = 0 if embedded else edges * edge["rack_units"]
    if c.kind == "fat_tree":
        core = prices.get(c.core_config.config_id)
        expect(core is not None, f"unknown core config {c.core_config.config_id}")
        to_nodes, to_core = c.split.ports_to_nodes, c.split.ports_to_core
        bundle, cores = c.core_stage.bundle_width, c.core_stage.core_count
        expect(edges * to_nodes >= nodes, "edges x ports_to_nodes < N")
        expect(to_nodes + to_core <= edge["ports"], "edge switch ports oversubscribed")
        expect(bundle * edges <= core["ports"], "bundle x edges > core ports")
        expect(cores * bundle >= to_core, "core_count x bundle < ports_to_core")
        expect(Fraction(to_nodes, to_core) <= blocking, "resulting blocking above the requested factor")
        if blade:
            expect(to_nodes <= form["enclosure_capacity"], "more nodes per edge than enclosure bays")
        cables = edges * to_core + (0 if blade else nodes)
        cost = edges * edge["cost"] + cores * core["cost"] + cables * cable_cost
        units = edge_units + cores * core["rack_units"]
        power = edges * edge["power"] + cores * core["power"]
        spare = cores * core["ports"] - edges * to_core + cores * core["expandable"]
    elif c.kind == "star":
        expect(edges == 1 and c.core_config is None, "star with more than one switch")
        expect(edge["ports"] >= nodes, "star switch has fewer ports than nodes")
        cables = 0 if blade else nodes
        cost = edge["cost"] + cables * cable_cost
        units, power = edge_units, edge["power"]
        spare = edge["ports"] - nodes + edge["expandable"]
    elif c.kind == "direct_connect":
        expect(blade and embedded, "direct connect without embedded blade switches")
        bays = form["enclosure_capacity"]
        expect(bays < nodes <= 2 * bays, "direct connect outside two enclosures")
        cables = edge["ports"] // 2
        extra = form["pass_through_cost"] if c.pass_through else 0
        expect(edges == (1 if c.pass_through else 2), "direct connect switch count")
        cost = edges * edge["cost"] + extra + cables * cable_cost
        units, power = edge_units, edges * edge["power"]
        used = nodes + (2 * cables if edges == 2 else cables)
        spare = max(0, edges * edge["ports"] - used)
    else:
        raise CheckFailure(f"unknown design kind {c.kind!r}")
    expect(c.cable_count == cables, f"cable count {c.cable_count}, expected {cables}")
    expect(c.metrics.cost == cost, f"cost {c.metrics.cost}, recomputed {cost}")
    expect(c.objective == cost, "objective differs from network cost")
    expect(c.metrics.rack_units == units, f"rack units {c.metrics.rack_units}, recomputed {units}")
    expect(_close(c.metrics.power, power), f"power {c.metrics.power}, recomputed {power}")
    limits = request.get("constraints", {})
    if "max_network_rack_units" in limits:
        expect(units <= limits["max_network_rack_units"], "candidate breaks max_network_rack_units")
    if "max_network_power" in limits:
        expect(power <= limits["max_network_power"] + 1e-6, "candidate breaks max_network_power")
    if "max_network_cost" in limits:
        expect(cost <= limits["max_network_cost"], "candidate breaks max_network_cost")
    if "min_spare_core_ports" in limits:
        expect(spare >= limits["min_spare_core_ports"], "candidate breaks min_spare_core_ports")


def check_design(report, request: dict, prices: dict) -> None:
    """Every ranked candidate is valid and the winner costs no more than any of them."""
    expect(len(report.candidates) > 0, "empty candidate list")
    expect(report.winner is report.candidates[0], "winner is not the first ranked candidate")
    best = report.winner.objective
    for candidate in report.candidates:
        check_candidate(candidate, request, prices)
        expect(best <= candidate.objective, "a ranked candidate is cheaper than the winner")


def check_design_json(text: str, report, top: int) -> None:
    document = json.loads(text)
    expect(document["winner"]["metrics"]["cost"]["minor_units"] == report.winner.metrics.cost,
           "JSON report winner cost differs")
    expect(document["feasible_candidates"] == len(report.candidates), "JSON candidate count differs")
    expect(len(document["candidates"]) == min(top, len(report.candidates)), "JSON top-k length")


def infeasible_allowed(request: dict, reach: int) -> bool:
    """An infeasible answer is expected only under constraints or beyond the catalog's reach."""
    return bool(request.get("constraints")) or request["nodes"] > reach


_NODES_LABEL = re.compile(r"nodes x(\d+)$")


def check_layout(case: dict, design, layout, top_view: str, fronts: str, layout_json: str) -> None:
    """Every node placed; every rack within its unit, weight and power budgets."""
    room, node = case["room"], case["node"]
    racks = layout.racks
    expect(len(racks) <= room["rows"] * room["racks_per_row"], "more racks than the room holds")
    placed_nodes = cores = edges = 0
    reserved = []
    for rack in racks:
        units = sum(item.rack_units for item in rack.items)
        expect(units <= room["rack_units_per_rack"], f"rack {rack.index} over its units")
        expect(rack.capacity_units == room["rack_units_per_rack"], "rack capacity differs from the room")
        if room.get("rack_weight_budget") is not None:
            weight = sum(item.weight for item in rack.items)
            expect(weight <= room["rack_weight_budget"] + 1e-6, f"rack {rack.index} over its weight budget")
        if room.get("rack_power_budget") is not None:
            power = sum(item.power for item in rack.items)
            expect(power <= room["rack_power_budget"] + 1e-6, f"rack {rack.index} over its power budget")
        for item in rack.items:
            if item.kind == "node_block":
                placed_nodes += item.node_count
                expect(item.rack_units == item.node_count * node["rack_units"], "node block height")
            elif item.kind == "core_switch":
                cores += 1
            elif item.kind == "edge_switch":
                edges += 1
            elif item.kind == "reserved":
                reserved.append(item.rack_units)
    expect(placed_nodes == case["nodes"], f"{placed_nodes} of {case['nodes']} nodes placed")
    expect(cores == design.core_count, "core switches placed differ from the design")
    expect(edges == design.edge_count, "edge switches placed differ from the design")
    expect(sorted(reserved) == sorted(case["reserve"]), "reserved space differs from the request")
    expect(top_view.count("\n") == room["rows"], "top view row count")
    shown = sum(int(m.group(1)) for line in fronts.splitlines() if (m := _NODES_LABEL.search(line)))
    expect(shown == case["nodes"], "front views do not show every node")
    document = json.loads(layout_json)
    expect(document["racks_used"] == sum(1 for rack in racks if rack.items), "JSON racks_used")
    for rack_doc in document["racks"]:
        expect(rack_doc["used_units"] == sum(i["rack_units"] for i in rack_doc["items"]), "JSON rack units")


def check_growth(pair: dict, plan, audit, prices: dict) -> None:
    """Both sized networks fit their capacity and the audit accounts for every unit."""
    current, target = pair["current_units"], pair["target_units"]
    request = {"nodes": plan.baseline.node_count, "blocking": "1"}
    check_candidate(plan.baseline.design, request, prices)
    expect(plan.baseline.capacity_units == current, "baseline sized for the wrong capacity")
    expect(plan.baseline.node_count + plan.baseline.design.metrics.rack_units <= current,
           "baseline network does not fit today's capacity")
    edge, core = prices[plan.edge_config.config_id], prices[plan.core_config.config_id]
    to_nodes = edge["ports"] // 2
    to_core = edge["ports"] - to_nodes
    units = plan.edge_count * edge["rack_units"] + plan.core_count * core["rack_units"]
    expect(plan.target_max_nodes + units <= target, "target network does not fit the target capacity")
    expect(plan.edge_count * to_nodes >= plan.target_max_nodes, "target edges cannot host the nodes")
    # an even node spread may need fewer uplinks than the standard split
    expect(plan.core_count * core["ports"] - plan.edge_count * to_core <= plan.spare_core_ports
           <= plan.core_count * core["ports"], "spare core ports out of range")
    for variant in plan.variants:
        first, final = variant.phases[0], variant.phases[-1]
        expect(first.node_count <= final.node_count == plan.target_max_nodes, f"{variant.name} phases")
        expect(first.edge_switches * to_nodes >= first.node_count, f"{variant.name} first phase edges")
    extra = target - current
    used = audit.via_spare_edge_ports + audit.via_new_edge_switches
    used += audit.new_edge_switch_count * plan.baseline.design.edge_config.rack_units
    expect(audit.max_added_nodes == audit.via_spare_edge_ports + audit.via_new_edge_switches,
           "audit node total")
    expect(audit.wasted_units >= 0 and used + audit.wasted_units == extra, "audit does not account for the space")
