"""Report emission: JSON documents, text summaries, DOT wiring diagrams,
and ASCII rack views.

All emitters are deterministic: identical inputs produce byte-identical
output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .designer import (
    BladeFormFactor,
    DesignReport,
    FatTreeDesign,
    bundle_widths,
    node_distribution,
)
from .estimator import PerPortEstimate, SweepPoint, median_gap
from .money import format_money, fraction_text
from .placement import ExpansionAudit, ExpansionPlan, RackLayout


def _ratio_text(value: Fraction | None) -> str | None:
    if value is None:
        return None
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _money_doc(amount: int, currency: str) -> dict[str, Any]:
    return {"minor_units": amount, "text": format_money(amount, currency)}


def candidate_document(candidate: FatTreeDesign, currency: str) -> dict[str, Any]:
    core = None
    if candidate.core_config is not None and candidate.core_stage is not None:
        widths = bundle_widths(candidate.split.ports_to_core, candidate.core_stage)
        core = {
            "config": candidate.core_config.config_id,
            "ports": candidate.core_config.ports,
            "count": candidate.core_stage.core_count,
            "bundle_width": candidate.core_stage.bundle_width,
            "last_bundle_width": widths[-1],
        }
    return {
        "kind": candidate.kind,
        "nodes": candidate.node_count,
        "edge": {
            "config": candidate.edge_config.config_id,
            "ports": candidate.edge_config.ports,
            "count": candidate.edge_count,
        },
        "core": core,
        "ports_to_nodes": candidate.split.ports_to_nodes,
        "ports_to_core": candidate.split.ports_to_core,
        "resulting_blocking": _ratio_text(candidate.split.resulting_blocking),
        "cable_count": candidate.cable_count,
        "uniform_distribution": candidate.uniform_distribution,
        "pass_through": candidate.pass_through,
        "max_supported_nodes": candidate.max_supported_nodes,
        "objective": _money_doc(candidate.objective, currency),
        "metrics": {
            "cost": _money_doc(candidate.metrics.cost, currency),
            "power_watts": round(candidate.metrics.power, 6),
            "rack_units": candidate.metrics.rack_units,
            "weight_kg": round(candidate.metrics.weight, 6),
        },
    }


def design_report_document(report: DesignReport, currency: str, top: int | None = None) -> dict[str, Any]:
    request = report.request
    candidates = report.candidates if top is None else report.candidates[:top]
    form: dict[str, Any]
    if isinstance(request.form_factor, BladeFormFactor):
        form = {
            "kind": "blade",
            "enclosure_capacity": request.form_factor.enclosure_capacity,
            "embedded_edge_switch_id": request.form_factor.embedded_edge_switch_id,
        }
    else:
        form = {"kind": "rack_mounted", "node_rack_units": request.form_factor.rack_units}
    return {
        "request": {
            "nodes": request.node_count,
            "blocking": _ratio_text(request.blocking_factor),
            "form_factor": form,
            "avg_cable_cost": _money_doc(request.avg_cable_cost, currency),
            "prefer_expandability": request.prefer_expandability,
        },
        "winner": candidate_document(report.winner, currency),
        "candidates": [candidate_document(c, currency) for c in candidates],
        "feasible_candidates": len(report.candidates),
        "rejected_candidates": [
            {
                "edge": r.edge_id,
                "core": r.core_id,
                "violations": [str(v) for v in r.violations],
            }
            for r in report.rejected
        ],
    }


def render_design_text(report: DesignReport, currency: str, top: int = 5) -> str:
    lines = []
    request = report.request
    blocking = _ratio_text(request.blocking_factor)
    lines.append(f"design for {request.node_count} nodes, blocking factor {blocking}")
    for rank, candidate in enumerate(report.candidates[:top], start=1):
        marker = "winner" if rank == 1 else f"#{rank}"
        lines.append(f"{marker}: {_candidate_summary(candidate, currency)}")
        lines.extend(f"    {line}" for line in _candidate_detail(candidate, currency))
    extra = len(report.candidates) - top
    if extra > 0:
        lines.append(f"... {extra} more feasible candidate(s) not shown")
    if report.rejected:
        lines.append(f"rejected by constraints: {len(report.rejected)} candidate(s)")
    return "\n".join(lines) + "\n"


def _candidate_summary(candidate: FatTreeDesign, currency: str) -> str:
    cost = format_money(candidate.objective, currency)
    if candidate.kind == "star":
        return f"star on {candidate.edge_config.config_id} ({cost})"
    if candidate.kind == "direct_connect":
        variant = "switch + pass-through panel" if candidate.pass_through else "two switches"
        return f"direct connect, {variant} ({cost})"
    edge = f"{candidate.edge_count}x {candidate.edge_config.config_id}"
    core = f"{candidate.core_count}x {candidate.core_config.config_id}"
    uniform = ", uniform node spread" if candidate.uniform_distribution else ""
    return f"fat tree, {edge} edge + {core} core{uniform} ({cost})"


def _candidate_detail(candidate: FatTreeDesign, currency: str) -> list[str]:
    lines = []
    split = candidate.split
    if candidate.kind == "fat_tree":
        lines.append(
            f"ports per edge switch: {split.ports_to_nodes} to nodes, "
            f"{split.ports_to_core} to core (blocking {_ratio_text(split.resulting_blocking)})"
        )
        assert candidate.core_stage is not None
        widths = bundle_widths(split.ports_to_core, candidate.core_stage)
        bundle = f"bundle width {candidate.core_stage.bundle_width}"
        if widths[-1] != candidate.core_stage.bundle_width:
            bundle += f" (last {widths[-1]})"
        lines.append(f"{bundle}, cables {candidate.cable_count}")
    else:
        lines.append(f"cables {candidate.cable_count}")
    metrics = candidate.metrics
    lines.append(
        f"cost {format_money(metrics.cost, currency)}, power {metrics.power:g} W, "
        f"space {metrics.rack_units}U, weight {metrics.weight:g} kg"
    )
    lines.append(f"max supported nodes: {candidate.max_supported_nodes}")
    return lines


def emit_wiring(design_: FatTreeDesign) -> str:
    """DOT wiring diagram: nodes at the bottom, edge layer, then core layer.

    Inter-layer links are drawn one edge per bundle, labelled with the bundle
    width; unused ports are annotated on the last edge switch.
    """
    lines = [
        "graph network {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    distribution = node_distribution(design_)
    edge_names = [f"edge{i}" for i in range(len(distribution))]

    if design_.kind == "fat_tree":
        assert design_.core_config is not None and design_.core_stage is not None
        widths = bundle_widths(design_.split.ports_to_core, design_.core_stage)
        for j in range(design_.core_stage.core_count):
            lines.append(
                f'  core{j} [label="core {j + 1}\\n{design_.core_config.config_id}"];'
            )
    for i, attached in enumerate(distribution):
        if design_.kind == "star":
            label = f"switch\\n{design_.edge_config.config_id}"
        elif design_.kind == "direct_connect" and design_.pass_through and i == 1:
            label = "pass-through panel"
        else:
            label = f"edge {i + 1}\\n{design_.edge_config.config_id}"
        if design_.kind == "fat_tree" and i == len(distribution) - 1:
            unused = design_.edge_config.ports - attached - design_.split.ports_to_core
            if unused > 0:
                label += f"\\nunused ports: {unused}"
        lines.append(f'  {edge_names[i]} [label="{label}"];')
    lines.append("  node [shape=point, width=0.05];")
    node_index = 0
    attachments = []
    for i, attached in enumerate(distribution):
        for _ in range(attached):
            lines.append(f"  n{node_index};")
            attachments.append(f"  n{node_index} -- {edge_names[i]};")
            node_index += 1
    lines.extend(attachments)
    if design_.kind == "fat_tree":
        for i in range(len(distribution)):
            for j, width in enumerate(widths):
                lines.append(
                    f'  {edge_names[i]} -- core{j} [label="{width}", penwidth=2];'
                )
    elif design_.kind == "direct_connect" and len(edge_names) == 2:
        lines.append(
            f'  {edge_names[0]} -- {edge_names[1]} '
            f'[label="{design_.cable_count}", penwidth=2];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def estimate_document(estimate: PerPortEstimate, currency: str) -> dict[str, Any]:
    return {
        "nodes": estimate.node_count,
        "switch_config": estimate.config.config_id,
        "total_ports": estimate.total_ports,
        "switch_cost": _money_doc(int(estimate.switch_cost), currency),
        "quoted_switch_cost": _money_doc(estimate.quoted_switch_cost, currency),
        "cable_count": estimate.cable_count,
        "cable_cost": _money_doc(estimate.cable_cost, currency),
        "total_cost": _money_doc(estimate.est_cost, currency),
        "power_watts": fraction_text(estimate.power_watts),
        "quoted_power_watts": fraction_text(estimate.quoted_power_watts),
        "rack_units": fraction_text(estimate.rack_units),
        "weight_kg": fraction_text(estimate.weight_kg),
        "exact": estimate.exact,
        "bundle_factor": estimate.bundle_factor,
    }


def render_estimate_text(estimate: PerPortEstimate, currency: str) -> str:
    lines = [
        f"per-port estimate for {estimate.node_count} nodes on "
        f"{estimate.config.config_id} ({estimate.config.ports} ports)",
        f"  total switch ports: {estimate.total_ports} (three per node)",
        f"  switch cost: {format_money(int(estimate.switch_cost), currency)} exact, "
        f"{format_money(estimate.quoted_switch_cost, currency)} from quoted per-port price",
        f"  power: {fraction_text(estimate.power_watts)} W exact, "
        f"{fraction_text(estimate.quoted_power_watts)} W from quoted per-port figure",
        f"  rack space: {fraction_text(estimate.rack_units)}U",
        f"  weight: {fraction_text(estimate.weight_kg)} kg",
        f"  cables: {estimate.cable_count} ({format_money(estimate.cable_cost, currency)})",
        f"  total with cables: {format_money(estimate.est_cost, currency)}",
    ]
    if estimate.exact:
        lines.append(f"  estimate is exact here (bundle factor {estimate.bundle_factor})")
    else:
        lines.append("  estimate is a lower bound at this node count")
    return "\n".join(lines) + "\n"


def sweep_document(points: list[SweepPoint], currency: str) -> dict[str, Any]:
    return {
        "points": [
            {
                "nodes": p.node_count,
                "estimate": _money_doc(p.estimate_cost, currency),
                "actual": _money_doc(p.actual_cost, currency),
                "gap_percent": round(float(p.gap) * 100, 3),
                "exact": p.exact,
            }
            for p in points
        ],
        "median_gap_percent": round(float(median_gap(points)) * 100, 3),
    }


def render_sweep_text(points: list[SweepPoint], currency: str) -> str:
    lines = [f"{'nodes':>6} {'estimate':>14} {'actual':>14} {'gap':>7}"]
    for p in points:
        gap = f"{float(p.gap) * 100:.1f}%"
        mark = " =" if p.exact else ""
        lines.append(
            f"{p.node_count:>6} {format_money(p.estimate_cost, currency):>14} "
            f"{format_money(p.actual_cost, currency):>14} {gap:>7}{mark}"
        )
    lines.append(f"median gap: {float(median_gap(points)) * 100:.1f}%")
    return "\n".join(lines) + "\n"


def layout_document(layout: RackLayout) -> dict[str, Any]:
    return {
        "racks_used": layout.racks_used,
        "spread_blocks": list(layout.spread_blocks),
        "unplaced": list(layout.unplaced),
        "racks": [
            {
                "index": rack.index,
                "row": rack.row,
                "position": rack.position,
                "used_units": rack.used_units,
                "capacity_units": rack.capacity_units,
                "weight_kg": round(rack.used_weight, 6),
                "power_watts": round(rack.used_power, 6),
                "items": [
                    {
                        "kind": item.kind,
                        "rack_units": item.rack_units,
                        "label": item.label,
                        "block": item.block_id,
                        "nodes": item.node_count,
                    }
                    for item in rack.items
                ],
            }
            for rack in layout.racks
        ],
    }


def render_rack_fronts(layout: RackLayout) -> str:
    """Front view, one section per occupied rack, items top to bottom."""
    lines = []
    for rack in layout.racks:
        if not rack.items:
            continue
        lines.append(
            f"rack {rack.index + 1:02d} (row {rack.row + 1}, slot {rack.position + 1}): "
            f"{rack.used_units}/{rack.capacity_units}U"
        )
        for item in rack.items:
            lines.append(f"  {item.rack_units:>3}U  {item.label}")
        if rack.free_units:
            lines.append(f"  {rack.free_units:>3}U  (free)")
    return "\n".join(lines) + "\n"


def render_room_top_view(layout: RackLayout) -> str:
    """Top view of the room grid with per-rack fill, serpentine walk implied."""
    by_coord = {(rack.row, rack.position): rack for rack in layout.racks}
    room = layout.room
    lines = []
    for row in range(room.rows):
        cells = []
        for position in range(room.racks_per_row):
            rack = by_coord.get((row, position))
            if rack is None or not rack.items:
                cells.append(f"[{'empty':^12}]")
            else:
                cells.append(f"[{rack.index + 1:02d}: {rack.used_units:>3}/{rack.capacity_units}U]")
        lines.append(f"row {row + 1}: " + " ".join(cells))
    return "\n".join(lines) + "\n"


def expansion_document(plan: ExpansionPlan, audit: ExpansionAudit, currency: str) -> dict[str, Any]:
    baseline = plan.baseline
    return {
        "baseline": {
            "capacity_units": baseline.capacity_units,
            "nodes": baseline.node_count,
            "edge_switches": baseline.design.edge_count,
            "core_switches": baseline.design.core_count,
        },
        "baseline_audit": {
            "max_added_nodes": audit.max_added_nodes,
            "total_nodes": baseline.node_count + audit.max_added_nodes,
            "wasted_units": audit.wasted_units,
            "via_spare_edge_ports": audit.via_spare_edge_ports,
            "via_new_edge_switches": audit.via_new_edge_switches,
        },
        "expandable_plan": {
            "target_capacity_units": plan.target_capacity_units,
            "target_max_nodes": plan.target_max_nodes,
            "edge_config": plan.edge_config.config_id,
            "core_config": plan.core_config.config_id,
            "edge_switches": plan.edge_count,
            "core_switches": plan.core_count,
            "spare_core_ports": plan.spare_core_ports,
            "variants": [
                {
                    "name": variant.name,
                    "phases": [
                        {
                            "capacity_units": phase.capacity_units,
                            "edge_switches": phase.edge_switches,
                            "nodes": phase.node_count,
                        }
                        for phase in variant.phases
                    ],
                }
                for variant in plan.variants
            ],
        },
    }


def render_expansion_text(plan: ExpansionPlan, audit: ExpansionAudit) -> str:
    baseline = plan.baseline
    lines = [
        f"capacity today: {plan.current_capacity_units}U, "
        f"after expansion: {plan.target_capacity_units}U",
        "",
        f"baseline sized for today only: {baseline.node_count} nodes "
        f"({baseline.design.edge_count} edge + {baseline.design.core_count} core switches)",
        f"  grown into the new space it reaches {baseline.node_count + audit.max_added_nodes} nodes "
        f"({audit.via_spare_edge_ports} via spare edge ports, "
        f"{audit.via_new_edge_switches} via {audit.new_edge_switch_count} new edge switch(es)), "
        f"leaving {audit.wasted_units}U unusable",
        "",
        f"expandable plan sized for the target: {plan.target_max_nodes} nodes "
        f"({plan.edge_count} edge + {plan.core_count} core switches, "
        f"{plan.spare_core_ports} spare core ports)",
    ]
    for variant in plan.variants:
        first, final = variant.phases[0], variant.phases[-1]
        lines.append(
            f"  {variant.name}: start with {first.node_count} nodes and "
            f"{first.edge_switches} edge switch(es), "
            f"grow to {final.node_count} nodes with {final.edge_switches}"
        )
    return "\n".join(lines) + "\n"


def to_json(document: dict[str, Any]) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
