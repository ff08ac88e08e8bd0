"""Write the ``cli_cold`` goldens: stdout of every benchmark CLI command.

Run from the repository root, at the commit whose output is the reference:
``python3 perfbench/capture_goldens.py``. The goldens in ``perfbench/goldens``
were captured this way before any change to the program, so ``cli_cold``
fails on any byte of changed output.
"""

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

GOLDENS = Path(__file__).resolve().parent / "goldens"


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    Path(gen.WIRING).parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.mkdir(exist_ok=True)
    for name, argv in gen.cli_runs(0, 1):
        done = subprocess.run([sys.executable, "-m", "fattree_design", *argv], env=env, capture_output=True, check=True)
        if done.stderr:
            raise SystemExit(f"{name}: unexpected stderr {done.stderr!r}")
        (GOLDENS / f"{name}.out").write_bytes(done.stdout)
        if gen.WIRING in argv:
            (GOLDENS / "design-60.dot").write_bytes(Path(gen.WIRING).read_bytes())
    print(f"wrote {len(list(GOLDENS.iterdir()))} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
