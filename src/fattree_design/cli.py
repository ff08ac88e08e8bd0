"""Command-line interface.

Subcommands: design, estimate, sweep, place, expand. Reports go to stdout as
JSON or text; wiring diagrams can be written as DOT files. Exit codes:
0 success, 2 no feasible design, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import CatalogError, load_catalog_file
from .designer import (
    BladeFormFactor,
    ConstraintSet,
    DesignError,
    DesignRequest,
    FormFactor,
    NodeSpec,
    design,
    request_from_document,
)
from .estimator import lower_bound_estimate, sweep_lower_bound
from .money import parse_money, parse_ratio
from .placement import (
    CORE_PLACEMENTS,
    PlacementError,
    RoomSpec,
    expansion_audit,
    expansion_plan,
    plan_racks,
)
from . import report as reporting

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2


def _add_catalog_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--catalog", required=True, metavar="FILE", help="catalog JSON file")


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fattree-design",
        description="Design cost-optimal two-layer fat-tree networks from a switch catalog.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="search for the cost-optimal network")
    _add_catalog_flag(p_design)
    p_design.add_argument("--request", metavar="FILE", help="design request as a JSON document")
    p_design.add_argument("--nodes", type=int, help="number of compute nodes")
    p_design.add_argument("--blocking", default="1", help="blocking factor, integer or p/q")
    p_design.add_argument("--cable-cost", default="80", help="average cable price, major units")
    p_design.add_argument("--blade", type=int, metavar="CAPACITY", help="blade enclosure capacity")
    p_design.add_argument("--enclosure-cost", default="0", help="enclosure price, major units")
    p_design.add_argument("--embedded-switch", metavar="ID", help="edge switch embedded in enclosures")
    p_design.add_argument("--pass-through-cost", help="pass-through panel price, major units")
    p_design.add_argument("--max-ru", type=int, help="cap on network rack units")
    p_design.add_argument("--min-spare-ports", type=int, help="required spare core ports")
    p_design.add_argument("--max-power", type=float, help="cap on network power, watts")
    p_design.add_argument("--max-cost", help="cap on network cost, major units")
    p_design.add_argument("--prefer-expandability", action="store_true")
    p_design.add_argument("--top", type=int, default=5, help="alternatives to report")
    p_design.add_argument("--dot", metavar="FILE", help="write the winner's wiring diagram")
    _add_format_flag(p_design)

    p_estimate = sub.add_parser("estimate", help="per-port lower-bound estimate")
    _add_catalog_flag(p_estimate)
    p_estimate.add_argument("--nodes", type=int, required=True)
    p_estimate.add_argument("--switch", required=True, metavar="ID")
    p_estimate.add_argument("--cable-cost", default="80")
    p_estimate.add_argument("--blade", action="store_true")
    _add_format_flag(p_estimate)

    p_sweep = sub.add_parser("sweep", help="estimate vs. designed cost over a node range")
    _add_catalog_flag(p_sweep)
    p_sweep.add_argument("--from", dest="first", type=int, required=True)
    p_sweep.add_argument("--to", dest="last", type=int, required=True)
    p_sweep.add_argument("--switch", required=True, metavar="ID")
    p_sweep.add_argument("--cable-cost", default="80")
    _add_format_flag(p_sweep)

    p_place = sub.add_parser("place", help="pack a design into racks")
    _add_catalog_flag(p_place)
    p_place.add_argument("--nodes", type=int, required=True)
    p_place.add_argument("--blocking", default="1")
    p_place.add_argument("--cable-cost", default="80")
    p_place.add_argument("--rows", type=int, required=True)
    p_place.add_argument("--racks-per-row", type=int, required=True)
    p_place.add_argument("--rack-units", type=int, default=42)
    p_place.add_argument("--rack-weight-budget", type=float)
    p_place.add_argument("--rack-power-budget", type=float)
    p_place.add_argument("--node-ru", type=int, default=1)
    p_place.add_argument("--node-weight", type=float, default=0.0)
    p_place.add_argument("--node-power", type=float, default=0.0)
    p_place.add_argument("--dense", action="store_true", help="spread blocks into slack")
    p_place.add_argument("--core-placement", choices=CORE_PLACEMENTS, default="first_racks_contiguous")
    p_place.add_argument(
        "--reserve", type=int, action="append", default=[], metavar="UNITS",
        help="reserve an indivisible chunk of rack space (repeatable)",
    )
    _add_format_flag(p_place)

    p_expand = sub.add_parser("expand", help="plan growth from current to target capacity")
    _add_catalog_flag(p_expand)
    p_expand.add_argument("--current-units", type=int, required=True, help="rack units available now")
    p_expand.add_argument("--target-units", type=int, required=True, help="rack units after expansion")
    p_expand.add_argument("--blocking", default="1")
    p_expand.add_argument("--cable-cost", default="80")
    p_expand.add_argument("--node-ru", type=int, default=1)
    _add_format_flag(p_expand)

    return parser


def _design_request(args: argparse.Namespace) -> DesignRequest:
    if args.request:
        document = json.loads(Path(args.request).read_text(encoding="utf-8"))
        return request_from_document(document)
    if args.nodes is None:
        raise ValueError("either --request or --nodes is required")
    if args.blade is not None:
        if not args.embedded_switch:
            raise ValueError("--blade requires --embedded-switch")
        form: FormFactor = BladeFormFactor(
            enclosure_capacity=args.blade,
            enclosure_cost=parse_money(args.enclosure_cost),
            embedded_edge_switch_id=args.embedded_switch,
            pass_through_cost=parse_money(args.pass_through_cost) if args.pass_through_cost else None,
        )
    else:
        form = NodeSpec()
    constraints = ConstraintSet(
        max_network_rack_units=args.max_ru,
        min_spare_core_ports=args.min_spare_ports,
        max_network_power=args.max_power,
        max_network_cost=parse_money(args.max_cost) if args.max_cost else None,
    )
    return DesignRequest(
        node_count=args.nodes,
        blocking_factor=parse_ratio(args.blocking),
        form_factor=form,
        avg_cable_cost=parse_money(args.cable_cost),
        constraints=constraints,
        prefer_expandability=args.prefer_expandability,
    )


def _cmd_design(args: argparse.Namespace) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be at least 1, got {args.top}")
    catalog = load_catalog_file(args.catalog)
    request = _design_request(args)
    result = design(request, catalog)
    if args.format == "json":
        document = reporting.design_report_document(result, catalog.currency, top=args.top)
        sys.stdout.write(reporting.to_json(document))
    else:
        sys.stdout.write(reporting.render_design_text(result, catalog.currency, top=args.top))
    if args.dot:
        Path(args.dot).write_text(reporting.emit_wiring(result.winner), encoding="utf-8")
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    catalog = load_catalog_file(args.catalog)
    config = catalog.find(args.switch)
    estimate = lower_bound_estimate(
        args.nodes, config, parse_money(args.cable_cost), blade=args.blade
    )
    if args.format == "json":
        sys.stdout.write(reporting.to_json(reporting.estimate_document(estimate, catalog.currency)))
    else:
        sys.stdout.write(reporting.render_estimate_text(estimate, catalog.currency))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    catalog = load_catalog_file(args.catalog)
    config = catalog.find(args.switch)
    points = sweep_lower_bound(config, args.first, args.last, parse_money(args.cable_cost))
    if args.format == "json":
        sys.stdout.write(reporting.to_json(reporting.sweep_document(points, catalog.currency)))
    else:
        sys.stdout.write(reporting.render_sweep_text(points, catalog.currency))
    return EXIT_OK


def _cmd_place(args: argparse.Namespace) -> int:
    catalog = load_catalog_file(args.catalog)
    node_spec = NodeSpec(rack_units=args.node_ru, weight=args.node_weight, power=args.node_power)
    room = RoomSpec(
        rows=args.rows,
        racks_per_row=args.racks_per_row,
        rack_units_per_rack=args.rack_units,
        rack_weight_budget=args.rack_weight_budget,
        rack_power_budget=args.rack_power_budget,
    )
    request = DesignRequest(
        node_count=args.nodes,
        blocking_factor=parse_ratio(args.blocking),
        form_factor=node_spec,
        avg_cable_cost=parse_money(args.cable_cost),
    )
    winner = design(request, catalog).winner
    layout = plan_racks(
        winner,
        room,
        node_spec,
        dense=args.dense,
        core_placement=args.core_placement,
        reserve=args.reserve,
    )
    if args.format == "json":
        sys.stdout.write(reporting.to_json(reporting.layout_document(layout)))
    else:
        sys.stdout.write(reporting.render_room_top_view(layout))
        sys.stdout.write("\n")
        sys.stdout.write(reporting.render_rack_fronts(layout))
    return EXIT_OK


def _cmd_expand(args: argparse.Namespace) -> int:
    catalog = load_catalog_file(args.catalog)
    blocking = parse_ratio(args.blocking)
    node_spec = NodeSpec(rack_units=args.node_ru)
    plan = expansion_plan(
        args.current_units,
        args.target_units,
        catalog,
        blocking,
        node_spec,
        parse_money(args.cable_cost),
    )
    extra = args.target_units - args.current_units
    audit = expansion_audit(plan.baseline.design, extra, node_spec)
    if args.format == "json":
        sys.stdout.write(reporting.to_json(reporting.expansion_document(plan, audit, catalog.currency)))
    else:
        sys.stdout.write(reporting.render_expansion_text(plan, audit))
    return EXIT_OK


_COMMANDS = {
    "design": _cmd_design,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "place": _cmd_place,
    "expand": _cmd_expand,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except DesignError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlacementError as exc:
        print(f"placement failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (CatalogError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())
