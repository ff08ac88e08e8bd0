"""Tests of the benchmark itself: ``python3 perfbench/selftest.py`` from the repository root.

They check that the input generators are deterministic, that the output
checks fire on corrupted designs, layouts and CLI output (and stay quiet on
the real ones), and that traced counts repeat exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

FD = run.import_program()
SEED = 7


def inputs_digest(seed: int) -> str:
    catalogs = {shape: gen.synthetic_catalog(shape, seed) for shape in gen.CATALOG_SHAPES}
    everything = {
        "catalogs": [gen.catalog_text(doc) for doc in catalogs.values()],
        "design_mix": gen.design_stream(seed, catalogs, 3),
        "growth_scan": gen.growth_pairs(seed, 3),
        "rack_pack": gen.rack_cases(seed, 3),
        "cli_cold": gen.cli_runs(seed, 3),
    }
    return hashlib.sha256(json.dumps(everything, sort_keys=True).encode()).hexdigest()


def run_items(workload, count: int) -> run.Stats:
    stats = run.Stats()
    for item in workload.items[:count]:
        workload.execute(stats, item, True)
    return stats


class Patched:
    """Temporarily replace a module attribute."""

    def __init__(self, module, name: str, replacement) -> None:
        self.module, self.name, self.replacement = module, name, replacement

    def __enter__(self):
        self.original = getattr(self.module, self.name)
        setattr(self.module, self.name, self.replacement(self.original))

    def __exit__(self, *exc) -> None:
        setattr(self.module, self.name, self.original)


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self) -> None:
        self.assertEqual(inputs_digest(SEED), inputs_digest(SEED))

    def test_identical_in_a_fresh_interpreter_with_another_hash_seed(self) -> None:
        code = f"import selftest; print(selftest.inputs_digest({SEED}))"
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=f"{HERE}{os.pathsep}{run.SRC}")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True, timeout=120)
        self.assertEqual(done.stdout.decode().strip(), inputs_digest(SEED))

    def test_other_seed_gives_other_inputs(self) -> None:
        self.assertNotEqual(inputs_digest(SEED), inputs_digest(SEED + 1))

    def test_roadmap_catalog_shape(self) -> None:
        catalog = FD["catalog"].load_catalog(gen.catalog_text(gen.synthetic_catalog("roadmap", SEED)))
        self.assertEqual((len(catalog.edge_set), len(catalog.core_set)), (31, 103))


class CheckTests(unittest.TestCase):
    """The correctness gate: real outputs pass, corrupted ones raise failed_ratio above 0."""

    def design_mix(self):
        workload = run.DesignMix(FD, SEED)
        workload.setup()
        return workload

    def rack_pack(self):
        workload = run.RackPack(FD, SEED)
        workload.setup()
        return workload

    def test_real_outputs_pass(self) -> None:
        for workload in (self.design_mix(), self.rack_pack()):
            stats = run_items(workload, 24)
            self.assertEqual(stats.failed, 0, stats.failures)

    def test_corrupted_design_fails(self) -> None:
        def corrupt(original):
            def design(*args, **kwargs):
                result = original(*args, **kwargs)
                metrics = dataclasses.replace(result.winner.metrics, cost=result.winner.metrics.cost - 1)
                winner = dataclasses.replace(result.winner, metrics=metrics)
                return dataclasses.replace(result, winner=winner, candidates=(winner, *result.candidates[1:]))
            return design

        workload = self.design_mix()
        with Patched(FD["designer"], "design", corrupt):
            stats = run_items(workload, 24)
        self.assertGreater(stats.failed / stats.attempted, 0)
        self.assertTrue(any("cost" in text for text in stats.failures), stats.failures)

    def test_corrupted_layout_fails(self) -> None:
        def corrupt(original):
            def plan_racks(*args, **kwargs):
                layout = original(*args, **kwargs)
                for rack in layout.racks:
                    blocks = [item for item in rack.items if item.kind == "node_block"]
                    if blocks:
                        rack.items.remove(blocks[-1])
                        break
                return layout
            return plan_racks

        workload = self.rack_pack()
        with Patched(FD["placement"], "plan_racks", corrupt):
            stats = run_items(workload, 24)
        self.assertGreater(stats.failed / stats.attempted, 0)
        self.assertTrue(any("nodes placed" in text for text in stats.failures), stats.failures)

    def test_changed_cli_stdout_fails(self) -> None:
        run.WORK.mkdir(parents=True, exist_ok=True)
        goldens = run.read_goldens()
        name, argv = gen.cli_runs(SEED, 1)[0]
        stats = run.Stats()
        run.cli_op(stats, goldens, name, argv, True)
        self.assertEqual(stats.failed, 0, stats.failures)
        golden = bytearray(goldens[f"{name}.out"])
        golden[len(golden) // 2] ^= 1
        run.cli_op(stats, {**goldens, f"{name}.out": bytes(golden)}, name, argv, True)
        self.assertEqual(stats.failed / stats.attempted, 0.5)


class TraceTests(unittest.TestCase):
    def test_counts_repeat_and_wrappers_come_off(self) -> None:
        workload = run.RackPack(FD, SEED)
        workload.setup()
        original = FD["placement"].design
        tracer = spans.Tracer()
        summaries = []
        for _ in range(2):
            tracer.reset()
            tracer.install()
            try:
                self.assertIsNot(FD["placement"].design, original)
                stats = run_items(workload, 24)
            finally:
                tracer.uninstall()
            summaries.append(spans.layer_summary(tracer.spans, tracer.counts))
        self.assertIs(FD["placement"].design, original)
        self.assertEqual(stats.failed, 0, stats.failures)
        counts = [{k: v for k, v in s.items() if not k.endswith("_ms")} for s in summaries]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["designer.design_calls"], 24)
        self.assertGreater(counts[0]["placement.racks_used"], 0)


if __name__ == "__main__":
    unittest.main()
