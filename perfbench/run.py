"""Run one benchmark workload; the last line of output is the result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Nothing is built: the program is the pure-Python package under
``src/``. The last line on stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
Without ``src/repro`` beside this directory the run exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports the program, so only once src/ is known

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.WORKLOADS)})"
        )
    outcome = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for line in outcome.notes:
        print(line)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
