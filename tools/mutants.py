"""Mutation gate: each planted bug in the search, placement, reports or number checks must make its guarding tests fail.

Usage, from the repository root:

    python3 tools/mutants.py              # run every mutant; exit 1 if one survives
    python3 tools/mutants.py --self-test  # check that the gate reports a mutant no test can kill

Each mutant names a module of src/fattree_design, a piece of its text that must
occur there exactly once, the replacement, and the tests that guard it. For
each one the script copies src/, tests/ and pyproject.toml into a temporary
directory, plants the mutant in the copy and runs the guarding tests there
under a fixed hypothesis seed and the tests' "mutants" hypothesis profile,
which does not shrink a failing example. A mutant survives when those tests
pass. If a mutant's text is missing or occurs more than once, the script
stops before running anything: a refactor that moves the text must move the
mutant too.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0  # a fixed hypothesis seed, so that a run kills the same mutants every time
PER_CORE_TEST = "tests/test_search_plan.py::test_per_core_floor_keeps_the_design_winner"
RANKING_TESTS = "tests/test_ranking.py"
WRITER_TEST = "tests/test_ranking.py::test_rejected_pairs_are_written_as_json_dumps_writes_them"
ORDER_TEST = "tests/test_ranking.py::test_catalog_order_does_not_change_the_answer"
EAGER_TEST = "tests/test_ranking.py::test_design_ranks_like_the_eager_reference"
LARGE_TEST = "tests/test_ranking.py::test_large_catalog_ranks_like_the_eager_reference"
FIELD_TESTS = "tests/test_field_checks.py"
ESTIMATE_TEST = "tests/test_estimator.py::test_estimate_bounds_the_design_above_the_star_range"
SWEEP_TEST = "tests/test_estimator.py::test_sweep_estimate_matches_the_estimate"
AUDIT_TEST = "tests/test_placement.py::test_expansion_audit_matches_exhaustive_count_on_baseline_splits"
SPREAD_TEST = "tests/test_placement.py::test_plan_racks_matches_the_walk_over_every_visited_rack"
JSON_TEST = "tests/test_report.py::test_to_json_writes_what_json_dumps_writes"

# (module, exact text, replacement, guarding tests, what the mutant breaks)
MUTANTS = [
    ("designer.py", "count = bisect_right(core_costs, best[0][0] - edge_floor)",
     "count = bisect_left(core_costs, best[0][0] - edge_floor)",
     PER_CORE_TEST, "the per-core floor drops a core whose pair ties the best cost"),
    ("designer.py", "count = bisect_right(core_costs, best[0][0] - edge_floor)", "count = len(by_price)",
     PER_CORE_TEST, "the per-core floor skips no core"),
    ("designer.py", "+ fixed > best[0][0]:", "+ fixed >= best[0][0]:",
     PER_CORE_TEST, "the walk stops at an edge model whose bound ties the best cost"),
    ("designer.py", "if not count:", "if count < 0:",
     "tests/test_search_plan.py::test_built_group_whose_floor_exceeds_the_best_cost_is_cut",
     "an edge group whose floor exceeds the best cost is visited with no core, not cut"),
    ("designer.py", "fewest_uplinks(node_count, request.blocking_factor)", "node_count",
     PER_CORE_TEST, "the group bound counts a cable per node for the uplinks, above some groups' floor"),
    ("designer.py", "reach = max(reach, widest_core * ports_to_nodes)",
     "reach = max(reach, (widest_core + 1) * ports_to_nodes)",
     "tests/test_search_plan.py::test_scan_has_a_design_for_every_node_count_it_reaches",
     "a scan's reach counts one core switch more than the widest core serves, so its top node counts have no design"),
    ("designer.py", "by_price[:count])", "self._core_rows[:count])",
     PER_CORE_TEST, "the winner-only ranking cuts a prefix of the cores in catalog order, not in price order"),
    ("designer.py", "(pair := min(pairs))", "(pair := pairs[0])",
     PER_CORE_TEST, "the winner-only ranking keeps an edge group's first pair instead of its least"),
    ("designer.py", 'key=attrgetter("cost", "ports", "config_id")', 'key=attrgetter("ports", "cost", "config_id")',
     "tests/test_search_plan.py::test_star_table_keeps_the_cheapest_star",
     "the star table keeps the star with the fewest ports instead of the cheapest"),
    ("designer.py", "and request.blades.embeds(edge_config)",
     "and request.blades.embedded_edge_switch_id == edge_config.source_id",
     "tests/test_cli.py::test_embedded_switch_named_by_configuration_id_takes_no_rack_space",
     "an embedded switch named by its configuration id is charged rack space"),
    ("designer.py", "spread_layer[1] < layer[1]", "spread_layer[1] <= layer[1]",
     RANKING_TESTS, "the even spread is kept when it needs as many cores as the baseline"),
    ("designer.py", "width = ports // edge_switches if ports < edge_switches * ports_to_core else ports_to_core",
     "width = ports // edge_switches", RANKING_TESTS, "a bundle is wider than an edge switch's uplinks"),
    ("designer.py", "nodes_per_switch = -(-node_count // edge_switches)",
     "nodes_per_switch = node_count // edge_switches", RANKING_TESTS,
     "the even spread rounds nodes per switch down and leaves nodes out"),
    ("designer.py", "ports_to_nodes = blades.enclosure_capacity", "pass",
     RANKING_TESTS, "an edge switch serves more blades than its enclosure has bays"),
    ("designer.py", "None if request.prefer_expandability else ", "",
     RANKING_TESTS, "the even spread is tried although expandability is preferred"),
    ("designer.py", "edge_units + layer[1] * units, edge_id, core_id, ref + offset)",
     'edge_units + layer[1] * units, "", "", ref + offset)', ORDER_TEST,
     "pairs that tie on cost, switches and rack units are ranked in catalog order"),
    ("designer.py", "edge_units, edge_id, ref + 1)", "edge_units, edge_id, ref - 1)", RANKING_TESTS,
     "the even spread takes a lower ref than its baseline, one that names the previous core's spread"),
    ("designer.py", "at = edges, uplinks", "at = edges", RANKING_TESTS,
     "the core layer table is keyed by edge switches alone, so an even spread reads its baseline's layers"),
    ("designer.py", "(2 * at, place[core.ports], core.cost", "(2 * at, place[core.ports] - 1, core.cost", RANKING_TESTS,
     "a core reads the core layer of the neighbouring port count"),
    ("designer.py", "edge_cost + cables * cable_cost, edge_units", "edge_cost, edge_units", EAGER_TEST,
     "a baseline pair's key leaves out its cables' cost"),
    ("designer.py", "sorted(filter(blades.embeds, catalog.edge_set), key=config_order)[:1]",
     "list(filter(blades.embeds, catalog.edge_set))[:1]",
     "tests/test_ranking.py::test_embedded_family_names_its_smallest_expansion",
     "a blade's embedded switch named by its family is the family's first expansion in catalog order"),
    ("designer.py", "core.power, core.ports + core.expandable_ports)", "core.power, core.ports)", LARGE_TEST,
     "the limit filter counts a core switch's spare ports without its line-card headroom"),
    ("designer.py", "used = (edges * baseline[1], edges * spread[1] if spread else 0)",
     "used = (edges * baseline[1], edges * baseline[1] if spread else 0)", LARGE_TEST,
     "the limit filter counts an even spread's spare ports with the baseline's uplinks"),
    ("designer.py", "edge_power = config.config_id, edges * config.power", "edge_power = config.config_id, 0",
     LARGE_TEST, "the limit filter leaves the edge switches' power out of a pair's power"),
    ("designer.py", 'actual < limit if name == "min_spare_core_ports"',
     'actual <= limit if name == "min_spare_core_ports"', LARGE_TEST,
     "a pair with exactly the required spare core ports is rejected"),
    ("designer.py", 'if kind == "fat_tree" else None', "if to_core else None",
     "tests/test_goldens.py::test_trivial_topology_output_matches_golden",
     "a direct-connect design reports a resulting blocking"),
    ("estimator.py", "return 3 * node_count,", "return 2 * node_count,",
     ESTIMATE_TEST, "the per-port estimate counts two switch ports per node instead of three"),
    ("estimator.py", "if 1 < factor < half and half % factor == 0:", "if 1 < factor < half:",
     ESTIMATE_TEST, "a factor that does not divide half the port count marks the estimate exact"),
    ("estimator.py", "ports >= 4 and ports % 2 == 0", "ports >= 4", SWEEP_TEST,
     "the exactness guard passes an odd port count to exactness_condition, which raises"),
    ("report.py", "quote = encode_basestring_ascii", """quote = '"{}"'.format""", WRITER_TEST,
     "a config id in a rejected entry is written without JSON escapes"),
    ("report.py", r'"core": {quote(core_id)},\n      "edge": {quote(edge_id)}',
     r'"edge": {quote(edge_id)},\n      "core": {quote(core_id)}', WRITER_TEST,
     "a rejected entry's keys are written unsorted"),
    ("report.py", "for key in sorted(value):", "for key in value:", JSON_TEST,
     "the JSON writer writes a dict's keys in insertion order"),
    ("placement.py", "rack.used_weight + weight > room.rack_weight_budget",
     "rack.used_weight + weight >= room.rack_weight_budget",
     "tests/test_placement.py::test_block_that_fills_the_weight_budget_exactly_fits",
     "a block that fills a rack's weight budget exactly does not fit"),
    ("placement.py", "_node_room(spec, *headroom) > 0", "_node_room(spec, *headroom) > 1", SPREAD_TEST,
     "the dense spread stops walking a rack that can still take one node"),
    ("placement.py", "behind = [other for other in behind if _spread_can_use(other, room, switch, node_spec)]", "pass",
     SPREAD_TEST, "the dense spread keeps walking racks that a spread filled"),
    ("placement.py", "weight_left -= switch.weight", "pass", SPREAD_TEST,
     "the dense spread leaves its edge switch's weight out of what the rack has left for nodes"),
    ("placement.py", "min(ports_to_nodes - last, capacity_left", "min(ports_to_nodes - last - 1, capacity_left",
     AUDIT_TEST, "the audit tops up the last edge switch to one node short of full"),
    ("money.py", "if isinstance(value, bool) or not isinstance(value, int if integral",
     "if not isinstance(value, int if integral", FIELD_TESTS, "a bool passes as a library dataclass number"),
    ("money.py", "if isinstance(value, float) and not math.isfinite(value):", "if False:",
     FIELD_TESTS, "a NaN or infinite library dataclass number is accepted"),
]

# Rounding up by a different formula changes no answer, so no test can kill it.
EQUIVALENT = ("designer.py", "return -(-node_count // ports_to_nodes)",
              "return (node_count + ports_to_nodes - 1) // ports_to_nodes",
              "tests/test_designer.py", "none: the same ceiling")


def plant(source: str, text: str, replacement: str, module: str) -> str:
    count = source.count(text)
    if count != 1:
        raise SystemExit(f"mutant text occurs {count} times in {module}, not once: {text!r}")
    return source.replace(text, replacement)


def survives(mutant: tuple) -> bool:
    """Whether the guarding tests pass with the mutant planted in a copy of the tree."""
    module, text, replacement, guard, _ = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp) / "src" / "fattree_design" / module
        path.write_text(plant(path.read_text(encoding="utf-8"), text, replacement, module), encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   f"--hypothesis-seed={SEED}", "--hypothesis-profile=mutants", guard]
        # pyproject.toml's pythonpath puts the copy's src/ first on sys.path
        return subprocess.run(command, cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true", help="run an equivalent mutant, which must survive")
    args = parser.parse_args(argv)
    mutants = [EQUIVALENT] if args.self_test else MUTANTS
    for module, text, replacement, _, _ in mutants:  # every mutant applies before any test runs
        plant((ROOT / "src" / "fattree_design" / module).read_text(encoding="utf-8"), text, replacement, module)
    survivors = []
    for mutant in mutants:
        started = time.perf_counter()
        alive = survives(mutant)
        print(f"{'SURVIVED' if alive else 'killed  '}  {time.perf_counter() - started:5.1f}s  {mutant[4]}")
        if alive:
            survivors.append(mutant)
    if args.self_test:
        if not survivors:
            print("self-test failed: the gate killed a mutant that changes no answer")
            return 1
        print("self-test passed: the gate reports a mutant that no test kills")
        return 0
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
