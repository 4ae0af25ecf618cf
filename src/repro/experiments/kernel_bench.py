"""Kernel microbenchmarks and the perf-regression trajectory artifact.

The flat coverage engine exists purely for speed — its results are
byte-identical to the reference engine's by construction. Speed claims
rot silently, so this module measures it and the RIC sampling kernel
on a fixed synthetic workload and records the numbers in
``benchmarks/BENCH_kernels.json``: a *trajectory* file that each
``python -m repro bench --record`` run appends one entry to, giving
future changes a perf baseline to diff against.

Measured quantities per run:

- sampling wall time and samples/sec of the RIC kernel, best of three
  passes;
- wall time of ``pool.add_many`` over the drawn samples, which builds
  the pool's mask index (timed apart from selection, which only reads
  it);
- marginal-evaluation throughput (``gain_pair`` calls/sec) for the
  reference and flat coverage engines over the same pool, with the UBG
  selection's first seed added (on the empty seed set the flat engine
  answers from the pool's cache, which would time a dict lookup);
- end-to-end seed selection (UBG) wall time per engine;
- the combined speedup of the flat path (sampling + indexing + flat
  selection) over the reference path (the same sampling and indexing
  + reference selection); the margin comes from selection;
- peak RSS of the process (``resource.getrusage``).

The workload is deterministic (fixed graph/community/sampling seeds);
only the timings vary between runs, which is exactly what a trajectory
is for.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.ubg import UBG
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs import environment_fingerprint, trace
from repro.obs.sinks import write_atomic
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

#: Artifact schema identifier (bump when entry fields change shape).
SCHEMA = "repro-kernel-bench/1"

#: Standard workload: a 600-node planted-partition graph, 20 ground-
#: truth communities of 30, weighted-cascade weights, threshold 2.
WORKLOAD = {
    "graph": "planted_partition([30]*20, p_in=0.25, p_out=0.005)",
    "weights": "weighted_cascade",
    "threshold": 2,
    "graph_seed": 17,
    "sampling_seed": 11,
}


def build_workload() -> Tuple[DiGraph, CommunityStructure]:
    """The fixed benchmark instance (see :data:`WORKLOAD`)."""
    graph, blocks = planted_partition_graph(
        [30] * 20,
        p_in=0.25,
        p_out=0.005,
        directed=True,
        seed=WORKLOAD["graph_seed"],
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(
                members=tuple(block),
                threshold=WORKLOAD["threshold"],
                benefit=float(len(block)),
            )
            for block in blocks
        ]
    )
    return graph, communities


def _time_sampling(
    graph, communities, samples: int, repeats: int = 3
) -> Tuple[float, list]:
    """Best-of-``repeats`` wall time to draw ``samples`` RIC samples on
    ``graph``, and the samples; the minimum discards passes slowed by
    background load on a shared machine."""
    best = float("inf")
    for _ in range(repeats):
        sampler = RICSampler(
            graph, communities, seed=WORKLOAD["sampling_seed"]
        )
        start = time.perf_counter()
        out = sampler.sample_many(samples)
        best = min(best, time.perf_counter() - start)
    return best, out


def _marginal_throughput(state, nodes, min_seconds: float = 0.25) -> float:
    """``gain_pair`` calls/sec of ``state``, measured over ``nodes``.

    Loops whole passes over the candidate set until ``min_seconds``
    elapsed, so per-call overhead dominates and one slow outlier pass
    cannot skew the rate.
    """
    calls = 0
    start = time.perf_counter()
    while True:
        for node in nodes:
            state.gain_pair(node)
        calls += len(nodes)
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return calls / elapsed


def run_kernel_bench(samples: int = 10_000, k: int = 10) -> Dict[str, Any]:
    """Run the full microbenchmark suite once; return the entry dict.

    ``samples`` is the pool size (the acceptance workload uses 10k);
    ``k`` the seed budget for the end-to-end selection timing.
    """
    if samples < 1:
        raise ReproError(f"samples must be positive, got {samples}")
    graph, communities = build_workload()

    with trace.span("bench/sampling", samples=samples):
        t_sample, drawn = _time_sampling(graph, communities, samples)

    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    start = time.perf_counter()
    pool.add_many(drawn)
    t_index = time.perf_counter() - start
    del drawn
    nodes = sorted(pool.touching_nodes())

    from repro.core.objective import CoverageState

    engines = {"reference": CoverageState, "flat": FlatCoverage}
    marginals: Dict[str, float] = {}
    select_time: Dict[str, float] = {}
    for name, factory in engines.items():
        with trace.span("bench/engine", engine=name):
            # Selection first: it pays for any state the engine builds
            # on the pool, which the throughput pass would otherwise
            # build untimed.
            start = time.perf_counter()
            selection = UBG(engine=name).solve(pool, k)
            select_time[name] = time.perf_counter() - start
            state = factory(pool)
            state.add_seed(selection.seeds[0])
            marginals[name] = _marginal_throughput(state, nodes)

    combined_flat = t_sample + t_index + select_time["flat"]
    combined_reference = t_sample + t_index + select_time["reference"]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "samples": samples,
        "k": k,
        "sampling": {
            "seconds": t_sample,
            "samples_per_sec": samples / t_sample,
        },
        "index_seconds": t_index,
        "marginals_per_sec": marginals,
        "selection_seconds": select_time,
        "combined": {
            "flat_path_seconds": combined_flat,
            "reference_path_seconds": combined_reference,
            "speedup_vs_reference": combined_reference / combined_flat,
        },
        "peak_rss_kb": peak_rss_kb,
        "python": sys.version.split()[0],
        # Full provenance block (git SHA, platform, interpreter) so a
        # trajectory entry can be diffed against the commit it measured.
        "environment": environment_fingerprint(),
    }


def default_artifact_path() -> str:
    """``benchmarks/BENCH_kernels.json`` relative to the repo root
    (falls back to the current directory when run elsewhere)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    candidate = os.path.join(here, "benchmarks")
    base = candidate if os.path.isdir(candidate) else os.getcwd()
    return os.path.join(base, "BENCH_kernels.json")


def load_trajectory(path: str) -> Dict[str, Any]:
    """Read the artifact; an empty skeleton when it does not exist."""
    if not os.path.exists(path):
        return {"schema": SCHEMA, "workload": dict(WORKLOAD), "trajectory": []}
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("schema") != SCHEMA:
        raise ReproError(
            f"unexpected artifact schema {data.get('schema')!r} in {path}; "
            f"this build writes {SCHEMA!r}"
        )
    return data


def record_entry(
    entry: Dict[str, Any], path: Optional[str] = None
) -> Dict[str, Any]:
    """Append ``entry`` to the trajectory artifact (atomic rewrite).

    Returns the full artifact after the append. The write goes through
    :func:`~repro.obs.sinks.write_atomic`, so a crash cannot leave a
    torn JSON.
    """
    path = path or default_artifact_path()
    data = load_trajectory(path)
    stamped = dict(entry)
    stamped["recorded_at"] = time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
    )
    data["trajectory"].append(stamped)
    write_atomic(path, json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def format_entry(entry: Dict[str, Any]) -> str:
    """Human-readable summary of one benchmark entry."""
    combined = entry["combined"]
    lines: List[str] = [
        f"workload: {WORKLOAD['graph']}, {entry['samples']} samples, "
        f"k={entry['k']}",
        f"sampling:  {entry['sampling']['samples_per_sec']:.0f}/s",
        "marginals: "
        + ", ".join(
            f"{name} {rate:.0f}/s"
            for name, rate in entry["marginals_per_sec"].items()
        ),
        f"indexing:  {entry['index_seconds']:.2f}s (pool.add_many)",
        "selection: "
        + ", ".join(
            f"{name} {secs:.2f}s"
            for name, secs in entry["selection_seconds"].items()
        ),
        (
            "combined:  flat path "
            f"{combined['flat_path_seconds']:.2f}s — "
            f"{combined['speedup_vs_reference']:.2f}x vs reference"
        ),
        f"peak RSS:  {entry['peak_rss_kb'] / 1024:.0f} MiB",
    ]
    return "\n".join(lines)
