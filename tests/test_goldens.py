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
