"""Regenerate ``perfbench/golden.json``, the answers the benchmark checks.

Usage, from the root of a checkout::

    python3 perfbench/make_golden.py

Every answer comes from an untimed in-process solve with the code the
benchmark measures: IMCAF answers from ``solve_imc`` directly, ``/solve``
bodies from a ``ShardStore`` built the way each replica builds its own.
Regenerate only for a change that is meant to move answers.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    sys.path.insert(0, SRC)
    import workloads
    from repro.serving import ShardStore

    golden = {"imcaf": {}, "serve": {}}
    instances = workloads.build_imcaf_instances()
    for scenario, solver, k in workloads.IMCAF_CASES:
        for seed in workloads.IMCAF_SOLVE_SEEDS:
            result = workloads.solve_case(instances, scenario, solver, k, seed)
            key = workloads.imcaf_key(scenario, solver, k, seed)
            golden["imcaf"][key] = workloads.imcaf_answer(result)
    store = ShardStore(workloads.SERVE_SCENARIOS, workers=1)
    try:
        for name in sorted(workloads.SERVE_SCENARIOS):
            shard = store.get(name)
            with shard.lock:
                shard.warm()
                for budget in range(1, workloads.SOLVE_BUDGET_MAX + 1):
                    response, _ = shard.solve(budget, "UBG")
                    key = workloads.serve_key(name, budget)
                    golden["serve"][key] = json.loads(json.dumps(response))
    finally:
        store.close()
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(golden['imcaf'])} imcaf and {len(golden['serve'])} "
          f"serve answers to {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
