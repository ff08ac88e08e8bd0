"""Traced cold CLI process: ``python launcher.py <cli arguments...>``.

Installs the benchmark's wrappers, calls ``fattree_design.cli.run(argv)`` and
exits with its code, as ``python -m fattree_design`` would. The spans,
counters and start-up timings go as JSON to the file named by the
``PERFBENCH_TRACE_OUT`` environment variable; ``PERFBENCH_SPAWN_T`` holds the
parent's ``time.time()`` just before it started this process.
"""

import time

_STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402


def main() -> int:
    t0 = perf_counter()
    import fattree_design.cli as cli

    import_ms = (perf_counter() - t0) * 1000
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        record = {
            "startup_ms": (_STARTED - float(os.environ["PERFBENCH_SPAWN_T"])) * 1000,
            "import_ms": import_ms,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
