"""fattree-design benchmark: one closed-loop client, one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload design_mix --seed 1 --seconds 20 --trace 0

Workloads: cli_cold, design_mix, growth_scan, rack_pack (see README.md in
this directory for what each measures and how to read the metrics). The
program under test is imported from ./src; outputs are checked by
perfbench/checks.py and, for cli_cold, against perfbench/goldens. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a traced run reports the per-layer ones. Lines before it name
every metric with its unit and give the run record.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
GOLDENS = HERE / "goldens"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Which layer groups a workload's own operations exercise. In a traced run,
# the metrics of every other group are read from one traced pass of the
# cold CLI commands in text format (the "probe"), so each layer has a
# reading in every traced run. cli_cold exercises every group itself.
OWN_GROUPS = {
    "cli_cold": {"cli", "catalog", "designer", "estimator", "fit", "racks", "report"},
    "design_mix": {"catalog", "designer", "report"},
    "growth_scan": {"catalog", "designer", "fit"},
    "rack_pack": {"catalog", "designer", "racks", "report"},
}
CLI_SUBCOMMANDS = ("design", "estimate", "sweep", "place", "expand")


def metric_group(name: str) -> str:
    if name.startswith("cli.") or name == "catalog.import_jsonschema_ms":
        return "cli"
    if name.startswith(("placement.fit", "placement.expansion")):
        return "fit"
    if name.startswith("placement."):
        return "racks"
    return name.split(".")[0]


# --- operation accounting ----------------------------------------------------


class Stats:
    """Latencies and outcomes of the operations of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.infeasible = 0
        self.failures: list[str] = []
        self.digest = hashlib.sha256()
        self.digested = 0
        self.passes = 0

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(text)

    def record(self, seconds: float, outcome: str, text: str, digest: bool) -> None:
        self.attempted += 1
        self.latencies.append(seconds)
        if outcome == "failed":
            self.fail(text)
            return
        if outcome == "infeasible":
            self.infeasible += 1
        if digest:
            self.digest.update(text.encode("utf-8"))
            self.digested += 1


def timed(stats: Stats, call, check, digest: bool, expected: tuple = ()) -> None:
    """Run one operation, then check its output; anything on stderr is a failure."""
    buffer = io.StringIO()
    with redirect_stderr(buffer):
        start = perf_counter()
        try:
            result, error = call(), None
        except expected as exc:
            result, error = None, exc
        except Exception:
            stats.record(perf_counter() - start, "failed", traceback.format_exc(limit=3), digest)
            return
        elapsed = perf_counter() - start
    if buffer.getvalue():
        stats.record(elapsed, "failed", f"stderr: {buffer.getvalue()[:200]}", digest)
        return
    try:
        text = check(result, error)
    except checks.CheckFailure as exc:
        stats.record(elapsed, "failed", f"check: {exc}", digest)
        return
    stats.record(elapsed, "infeasible" if error is not None else "ok", text, digest)


def more_passes(start: float, passes: int, seconds: float) -> bool:
    """Whether one more pass brings the run's length closer to ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / passes / 2 < seconds


def infeasible(error: Exception, expected: bool) -> str:
    """Digest text of an infeasible answer, which must be one the input allows."""
    checks.expect(expected, f"unexpected {type(error).__name__}: {error}")
    return f"{type(error).__name__}: {error}\n"


def closed_loop(stats: Stats, items: list, execute, pass_size: int, seconds: float) -> None:
    """One client, next operation after the previous one, for as many whole passes as fit ``seconds``.

    Whole passes keep the mix of every run the same. Outputs of the first
    pass go into the run's digest, which is the same for every run at one
    seed.
    """
    start = perf_counter()
    done = 0
    while True:
        execute(stats, items[done % len(items)], done < pass_size)
        done += 1
        if done % pass_size == 0:
            stats.passes += 1
            if not more_passes(start, stats.passes, seconds):
                return


# --- in-process workloads ----------------------------------------------------


def import_program():
    """Import fattree_design from ./src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import fattree_design

    if Path(fattree_design.__file__).resolve().parent != (SRC / "fattree_design").resolve():
        raise SystemExit(f"fattree_design imported from {fattree_design.__file__}, not from {SRC}")
    from fattree_design import catalog, designer, placement, report

    return {"catalog": catalog, "designer": designer, "placement": placement, "report": report}


class InProcess:
    """Shared parts of the workloads that call the library in this process.

    Subclasses set ``pass_size`` (inputs per pass) and ``passes`` (passes
    generated; a run that outlasts them starts over).
    """

    def __init__(self, fd: dict, seed: int) -> None:
        self.fd = fd
        self.seed = seed
        self.expected = (fd["designer"].DesignError, fd["placement"].PlacementError)

    def load(self, document: dict):
        return self.fd["catalog"].load_catalog(gen.catalog_text(document))

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, stats: Stats, item, digest: bool) -> None:
        raise NotImplementedError


class DesignMix(InProcess):
    """design() plus a top-5 JSON report over three catalogs and four blocking factors."""

    pass_size = 44
    passes = 20

    def setup(self) -> None:
        self.documents = {shape: gen.synthetic_catalog(shape, self.seed) for shape in gen.CATALOG_SHAPES}
        self.catalogs = {name: self.load(doc) for name, doc in self.documents.items()}
        self.prices = {name: checks.price_table(doc) for name, doc in self.documents.items()}
        self.items = gen.design_stream(self.seed, self.documents, self.passes)
        designer = self.fd["designer"]
        for catalog in self.catalogs.values():
            designer.design(designer.request_from_document({"nodes": 100}), catalog)

    def reach(self, name: str, request: dict) -> int:
        form = request.get("form_factor", {})
        edge_ports = None
        if form.get("kind") == "blade":
            edge_ports = self.prices[name][form["embedded_edge_switch_id"]]["ports"]
        return gen.node_reach(self.documents[name], Fraction(request["blocking"]), edge_ports,
                              form.get("enclosure_capacity"))

    def execute(self, stats: Stats, item, digest: bool) -> None:
        name, document = item
        designer, report = self.fd["designer"], self.fd["report"]
        catalog = self.catalogs[name]

        def call():
            result = designer.design(designer.request_from_document(document), catalog)
            return result, report.to_json(report.design_report_document(result, catalog.currency, top=5))

        def check(result, error):
            if error is not None:
                return infeasible(error, checks.infeasible_allowed(document, self.reach(name, document)))
            checks.check_design(result[0], document, self.prices[name])
            checks.check_design_json(result[1], result[0], 5)
            return result[1]

        timed(stats, call, check, digest, self.expected)


class GrowthScan(InProcess):
    """expansion_plan + expansion_audit on the ROADMAP-shaped catalog."""

    pass_size = len(gen.GROWTH_PAIRS)
    passes = 40

    def setup(self) -> None:
        document = gen.synthetic_catalog("roadmap", gen.GROWTH_CATALOG_SEED)
        self.catalog = self.load(document)
        self.prices = checks.price_table(document)
        self.items = gen.growth_pairs(self.seed, self.passes)
        designer = self.fd["designer"]
        designer.design(designer.request_from_document({"nodes": 100}), self.catalog)

    def execute(self, stats: Stats, pair, digest: bool) -> None:
        placement = self.fd["placement"]
        node = placement.NodeSpec(rack_units=1)
        blocking = Fraction(1)

        def call():
            plan = placement.expansion_plan(
                pair["current_units"], pair["target_units"], self.catalog, blocking, node
            )
            extra = pair["target_units"] - pair["current_units"]
            return plan, placement.expansion_audit(plan.baseline.design, extra, node)

        def check(result, error):
            if error is not None:
                return infeasible(error, isinstance(error, self.fd["placement"].PlacementError))
            plan, audit = result
            checks.check_growth(pair, plan, audit, self.prices)
            return json.dumps({
                "baseline": [plan.baseline.node_count, plan.baseline.design.edge_count,
                             plan.baseline.design.core_count],
                "target": [plan.target_max_nodes, plan.edge_config.config_id, plan.edge_count,
                           plan.core_config.config_id, plan.core_count, plan.spare_core_ports],
                "phases": [[[p.capacity_units, p.edge_switches, p.node_count] for p in v.phases]
                           for v in plan.variants],
                "audit": [audit.max_added_nodes, audit.wasted_units, audit.new_edge_switch_count],
            }) + "\n"

        timed(stats, call, check, digest, self.expected)


class RackPack(InProcess):
    """design() on the demo catalog, then plan_racks, text views and the JSON layout."""

    pass_size = 144
    passes = 30

    def setup(self) -> None:
        text = (SRC / "fattree_design" / "data" / "demo_catalog.json").read_text(encoding="utf-8")
        self.catalog = self.fd["catalog"].load_catalog(text)
        self.prices = checks.price_table(json.loads(text))
        self.items = gen.rack_cases(self.seed, self.passes)
        warm = Stats()
        for item in sorted(self.items[:self.pass_size], key=lambda case: case["nodes"])[:12]:
            self.execute(warm, item, False)

    def execute(self, stats: Stats, case, digest: bool) -> None:
        designer, placement, report = self.fd["designer"], self.fd["placement"], self.fd["report"]

        def call():
            result = designer.design(designer.request_from_document(case["request"]), self.catalog)
            layout = placement.plan_racks(
                result.winner,
                placement.RoomSpec(**case["room"]),
                placement.NodeSpec(**case["node"]),
                dense=case["dense"],
                core_placement=case["core_placement"],
                reserve=case["reserve"],
            )
            views = report.render_room_top_view(layout), report.render_rack_fronts(layout)
            return result, layout, views, report.to_json(report.layout_document(layout))

        def check(result, error):
            if error is not None:
                return infeasible(error, isinstance(error, self.fd["placement"].PlacementError))
            design, layout, (top, fronts), layout_json = result
            checks.check_design(design, case["request"], self.prices)
            checks.check_layout(case, design.winner, layout, top, fronts, layout_json)
            return top + fronts + layout_json

        timed(stats, call, check, digest, self.expected)


# --- cold CLI ------------------------------------------------------------------


def read_goldens() -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in GOLDENS.iterdir()}


def cli_op(stats: Stats, goldens: dict, name: str, argv: list[str], digest: bool, traced: dict | None = None) -> None:
    """One fresh interpreter per operation; stdout must match the golden byte for byte."""
    wiring = WORK / "wiring.dot"
    wiring.unlink(missing_ok=True)
    env = CHILD_ENV
    if traced is None:
        command = [sys.executable, "-m", "fattree_design", *argv]
    else:
        trace_file = WORK / "child-trace.json"
        trace_file.unlink(missing_ok=True)
        command = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"), *argv]
        env = dict(CHILD_ENV, PERFBENCH_TRACE_OUT=str(trace_file), PERFBENCH_SPAWN_T=repr(time()))
    start = perf_counter()
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, timeout=120)
    elapsed = perf_counter() - start
    stderr = done.stderr.decode("utf-8", "replace")
    if traced is not None:
        lines = stderr.splitlines()
        stderr = "\n".join(line for line in lines if not line.startswith("import time:"))
        if not trace_file.exists():
            stats.record(elapsed, "failed", f"{name}: no trace from the launcher: {stderr[:200]}", digest)
            return
        child = json.loads(trace_file.read_text(encoding="utf-8"))
        child["wall_ms"] = elapsed * 1000
        child["jsonschema_ms"] = sum(
            int(line.split("|")[1]) / 1000 for line in lines
            if line.startswith("import time:") and line.split("|")[2].strip() == "jsonschema"
        )
        traced.setdefault(argv[0], []).append(child)
    if done.returncode != 0:
        stats.record(elapsed, "failed", f"{name}: exit {done.returncode}: {stderr[:200]}", digest)
    elif stderr:
        stats.record(elapsed, "failed", f"{name}: stderr {stderr[:200]}", digest)
    elif done.stdout != goldens[f"{name}.out"]:
        stats.record(elapsed, "failed", f"{name}: stdout differs from the golden", digest)
    elif "--dot" in argv and (not wiring.exists() or wiring.read_bytes() != goldens["design-60.dot"]):
        stats.record(elapsed, "failed", f"{name}: wiring diagram differs from the golden", digest)
    else:
        stats.record(elapsed, "ok", name + "\n" + done.stdout.decode("utf-8"), digest)


def merge_children(children: dict[str, list[dict]]) -> tuple[list[list], dict]:
    """Concatenate the children's spans (re-basing parent indices) and counters."""
    merged: list[list] = []
    counts: Counter = Counter()
    for records in children.values():
        for child in records:
            offset = len(merged)
            for name, start, end, parent, _op, err in child["spans"]:
                merged.append([name, start, end, parent + offset if parent >= 0 else -1, offset, err])
            counts.update(child["counts"])
    return merged, counts


def cli_metrics(children: dict[str, list[dict]]) -> dict[str, float]:
    every = [child for records in children.values() for child in records]
    metrics = {
        "cli.startup_ms": statistics.median(c["startup_ms"] for c in every),
        "cli.import_ms": statistics.median(c["import_ms"] for c in every),
        "catalog.import_jsonschema_ms": statistics.median(c["jsonschema_ms"] for c in every),
    }
    for sub in CLI_SUBCOMMANDS:
        walls = [c["wall_ms"] for c in children.get(sub, [])]
        metrics[f"cli.{sub}.wall_ms"] = statistics.median(walls) if walls else 0.0
    return metrics


def traced_cli_pass(stats: Stats, goldens: dict, runs: list, archive: list) -> dict[str, float]:
    """One pass of CLI commands through the traced launcher; per-layer figures of the pass."""
    children: dict[str, list[dict]] = {}
    for name, argv in runs:
        cli_op(stats, goldens, name, argv, False, traced=children)
    merged, counts = merge_children(children)
    archive.append(merged)
    layers = spans.layer_summary(merged, counts)
    layers.update(cli_metrics(children))
    return layers


# --- runs ------------------------------------------------------------------------


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; shows host-speed drift beside the figures, never used to scale them."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        samples.append((perf_counter() - start) * 1000)
    return statistics.median(samples)


def import_probe_s() -> float:
    """Seconds to import fattree_design in a fresh interpreter (its own clock, start-up excluded)."""
    code = "import time; t = time.perf_counter(); import fattree_design; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT,
                          capture_output=True, check=True, timeout=60)
    return float(done.stdout)


def latency_metrics(stats: Stats) -> dict[str, float]:
    completed = stats.attempted - stats.failed
    return {
        "ops_per_s": completed / sum(stats.latencies),
        "op_ms_p50": statistics.median(stats.latencies) * 1000,
    }


def run_cli_cold(args, archive: list) -> tuple[Stats, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        runs = gen.cli_runs(args.seed, 20)
        goldens = read_goldens()
        cli_op(Stats(), goldens, *runs[0], False)
        setups.append(perf_counter() - start)
    stats = Stats()
    size = len(gen.CLI_COMMANDS) * 2
    if args.trace:
        def plain(s):
            for name, argv in runs[:size]:
                cli_op(s, goldens, name, argv, False)

        return stats, trace_passes(stats, plain, lambda s: traced_cli_pass(s, goldens, runs[:size], archive),
                                   args.seconds)
    closed_loop(stats, runs, lambda s, item, digest: cli_op(s, goldens, *item, digest), size, args.seconds)
    metrics = latency_metrics(stats)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return stats, metrics


WORKLOADS = {"design_mix": DesignMix, "growth_scan": GrowthScan, "rack_pack": RackPack}


def run_in_process(args, archive: list) -> tuple[Stats, dict]:
    imports = [import_probe_s() for _ in range(SETUP_REPEATS)] if not args.trace else []
    fd = import_program()
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload = WORKLOADS[args.workload](fd, args.seed)
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    stats = Stats()
    size = workload.pass_size
    if not args.trace:
        closed_loop(stats, workload.items, workload.execute, size, args.seconds)
        metrics = latency_metrics(stats)
        metrics["setup_s"] = statistics.median(imports) + statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return stats, metrics

    tracer.uninstall()
    archive.append(list(tracer.spans))
    setup_layers = spans.layer_summary(tracer.spans, tracer.counts)

    def plain(s):
        for item in workload.items[:size]:
            workload.execute(s, item, False)

    def traced(s):
        tracer.reset()
        tracer.install()
        try:
            for i, item in enumerate(workload.items[:size]):
                tracer.op = i
                workload.execute(s, item, False)
        finally:
            tracer.uninstall()
        archive.append(list(tracer.spans))
        return spans.layer_summary(tracer.spans, tracer.counts)

    layers = trace_passes(stats, plain, traced, args.seconds)
    layers.update({key: value for key, value in setup_layers.items() if key.startswith("catalog.")})
    return stats, layers


def trace_passes(stats: Stats, plain, traced, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced passes over the first pass of inputs.

    Counts come from the first traced pass and must repeat exactly in the
    others; times are medians over the traced passes. The overhead compares
    the traced passes' time in operations with the untraced ones'.
    """
    start = perf_counter()
    plain_s, traced_s, summaries = [], [], []
    while True:
        before = sum(stats.latencies)
        plain(stats)
        plain_s.append(sum(stats.latencies) - before)
        before = sum(stats.latencies)
        summaries.append(traced(stats))
        traced_s.append(sum(stats.latencies) - before)
        if not more_passes(start, len(summaries), seconds):
            break
    layers = {}
    for key, first in summaries[0].items():
        values = [summary[key] for summary in summaries]
        if key.endswith("_ms"):
            layers[key] = statistics.median(values)
        else:
            if any(value != first for value in values):
                stats.fail(f"{key} differs between traced passes: {values}")
            layers[key] = first
    layers["trace.overhead_pct"] = (statistics.median(traced_s) / statistics.median(plain_s) - 1) * 100
    return layers


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown"


def src_digest() -> str:
    """Digest of the package sources, identifying the code when git is not available."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fattree_design").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["cli_cold", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fattree_design" / "__init__.py").is_file():
        print(f"error: no fattree_design package under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    ref_ms = ref_loop_ms()
    archive: list[list] = []
    runner = run_cli_cold if args.workload == "cli_cold" else run_in_process
    stats, metrics = runner(args, archive)
    missing: list[str] = []
    if args.trace:
        metrics["env.ref_loop_ms"] = ref_ms
        borrowed = OWN_GROUPS["cli_cold"] - OWN_GROUPS[args.workload]
        if borrowed:
            probe = traced_cli_pass(stats, read_goldens(), gen.cli_runs(args.seed, 1, ("text",)), archive)
            metrics.update({key: value for key, value in probe.items() if metric_group(key) in borrowed})
        (WORK / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(archive))
        import_program()
        missing = spans.missing_targets()
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "src_digest": src_digest(), "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "samples": len(stats.latencies), "passes": stats.passes,
        "attempted": stats.attempted, "failed": stats.failed, "infeasible": stats.infeasible,
        "failed_ratio": stats.failed / stats.attempted, "env.ref_loop_ms": ref_ms,
        "output_digest": stats.digest.hexdigest()[:16], "digest_ops": stats.digested, "failures": stats.failures,
        "trace_targets_missing": missing,
    }
    shown = [(name, value, units[name]) for name, value in sorted(metrics.items())]
    shown.append(("failed_ratio", record["failed_ratio"], "ratio"))
    if not args.trace and len(stats.latencies) >= P90_MIN_SAMPLES:
        record["op_ms_p90"] = statistics.quantiles(stats.latencies, n=10)[-1] * 1000
        shown.append(("op_ms_p90", record["op_ms_p90"], "ms"))
    for name, value, unit in shown:
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={len(stats.latencies)})")
    print("record " + json.dumps(record, sort_keys=True))
    (WORK / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
