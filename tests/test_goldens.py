"""The benchmark's CLI commands, run in-process, against the goldens in perfbench/goldens.

Every command of ``perfbench/gen.CLI_COMMANDS`` runs in text and JSON; stdout
must match its golden byte for byte, and the wiring diagram ``design-60``
writes must match ``design-60.dot``. The test reads ``perfbench/`` and
writes only under ``tmp_path``.
"""

import importlib.util
from pathlib import Path

import pytest

from fattree_design.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "perfbench" / "goldens"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_gen()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, argv", GEN.CLI_COMMANDS, ids=[name for name, _ in GEN.CLI_COMMANDS])
def test_cli_output_matches_golden(name, argv, fmt, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)  # the commands name the bundled catalogs relative to the repository root
    wiring = tmp_path / "wiring.dot"
    code = run([str(wiring) if arg == GEN.WIRING else arg for arg in argv] + ["--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.encode("utf-8") == (GOLDENS / f"{name}.{fmt}.out").read_bytes()
    if GEN.WIRING in argv:
        assert wiring.read_bytes() == (GOLDENS / "design-60.dot").read_bytes()


# Commands whose ranking holds a star or a direct interconnect, some with
# constraints that reject trivial variants or every design; their goldens in
# tests/goldens were captured before these designs joined the shared ranking.
# Each design command also pins its winner's wiring diagram (<name>.dot): a
# star, the even spread (constrained-1000), a fat tree with a short last
# bundle and unused ports on its last edge switch (fat-tree-37), and direct
# connect with and without the pass-through panel; those goldens were
# captured before the renderers kept one branch per network kind.
# The place commands' layouts pin how rack usage adds up: an empty kept rack
# prints weight 0, a core-only rack whole-number power 304 (not 304.0), and
# spread blocks of 12.3 kg, 333.3 W nodes non-integer sums; their goldens were
# captured before racks kept running totals.
DEMO = "src/fattree_design/data/demo_catalog.json"
BLADE = "src/fattree_design/data/blade_cluster.json"
BLADE_20 = ["--catalog", BLADE, "--nodes", "20", "--blade", "16", "--embedded-switch", "encl32"]
BLADE_40 = ["--catalog", BLADE, "--nodes", "40", "--blade", "32", "--embedded-switch", "encl32"]
TRIVIAL_COMMANDS = (
    ("star-30", ["design", "--catalog", DEMO, "--nodes", "30"]),
    ("star-30-spare-7", ["design", "--catalog", DEMO, "--nodes", "30", "--min-spare-ports", "7"]),
    ("star-60-spare-40", ["design", "--catalog", DEMO, "--nodes", "60", "--min-spare-ports", "40"]),
    ("direct-20-panel", ["design", *BLADE_20, "--pass-through-cost", "400"]),
    ("constrained-1000", ["design", "--catalog", DEMO, "--nodes", "1000", "--blocking", "3/2",
                          "--max-ru", "140", "--min-spare-ports", "64"]),
    ("blade-20-max-power-1", ["design", *BLADE_20, "--max-power", "1"]),
    ("fat-tree-37", ["design", "--catalog", DEMO, "--nodes", "37"]),
    ("direct-40-panel", ["design", *BLADE_40, "--pass-through-cost", "500"]),
    ("direct-40", ["design", *BLADE_40]),
    ("place-60-center", ["place", "--catalog", DEMO, "--nodes", "60", "--rows", "1", "--racks-per-row", "8",
                         "--core-placement", "center"]),
    ("place-200-dense-distributed", ["place", "--catalog", DEMO, "--nodes", "200", "--rows", "2",
                                     "--racks-per-row", "6", "--dense", "--core-placement", "distributed",
                                     "--node-weight", "12.3", "--node-power", "333.3",
                                     "--rack-power-budget", "9000.5"]),
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name, argv", TRIVIAL_COMMANDS, ids=[name for name, _ in TRIVIAL_COMMANDS])
def test_trivial_topology_output_matches_golden(name, argv, fmt, capsys, monkeypatch, tmp_path):
    """Exit 0 with the golden stdout and, for design, the golden wiring diagram;
    or, where a ``.err`` golden exists, exit 2 with that stderr line and no diagram."""
    monkeypatch.chdir(ROOT)
    wiring = tmp_path / "wiring.dot"
    dot = ["--dot", str(wiring)] if argv[0] == "design" else []
    code = run(argv + dot + ["--format", fmt])
    captured = capsys.readouterr()
    stdout, stderr = (ROOT / "tests" / "goldens" / f"{name}.{fmt}.{ext}" for ext in ("out", "err"))
    expected = (2, b"", stderr.read_bytes()) if stderr.exists() else (0, stdout.read_bytes(), b"")
    assert (code, captured.out.encode("utf-8"), captured.err.encode("utf-8")) == expected
    if dot and code == 0:
        assert wiring.read_bytes() == (ROOT / "tests" / "goldens" / f"{name}.dot").read_bytes()
    else:
        assert not wiring.exists()
