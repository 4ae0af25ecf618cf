"""Load benchmark — the always-on shard server under concurrent fire.

Two phases against real HTTP, driven by the shared
:mod:`repro.serving.loadgen` harness (one connection per request, like
real independent clients):

1. **Fault-free**: hundreds of concurrent clients across a handful of
   distinct ``(budget, solver)`` queries — exercising warm-shard reuse,
   request batching and the per-version solve cache — recording the
   golden deterministic fields per query and the latency distribution.
2. **One worker kill**: a fresh server whose first sampler batch
   hard-kills its worker process mid-request. The acceptance floor:
   zero dropped requests (every client gets a 200) and every response's
   deterministic fields (``seeds``, ``objective``, ``num_samples``)
   byte-identical to the fault-free phase.

p50/p95/p99 latencies and request counters land in a run manifest next
to the metrics artifact (``bench_serving.manifest.json`` under the
pytest tmp dir, printed at the end).
"""

from __future__ import annotations

from conftest import SCALE, emit

from repro import obs
from repro.communities.structure import Community, CommunityStructure
from repro.experiments.reporting import ascii_table
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.serving import (
    LoadGenerator,
    LoadPhase,
    ScenarioSpec,
    ShardApp,
    ShardStore,
    start_http_server,
)
from repro.utils.faults import Fault, FaultInjector
from repro.utils.retry import RetryPolicy

CLIENTS = max(200, int(250 * SCALE))
POOL_SIZE = max(96, int(192 * SCALE))
WORKERS = 2
QUERIES = ({"budget": 4}, {"budget": 8}, {"budget": 4, "solver": "GreedyC"})
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _instance():
    graph, blocks = planted_partition_graph(
        [10] * 10, p_in=0.4, p_out=0.02, directed=True, seed=17
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def _run_phase(name, instance, injector):
    """Fire CLIENTS concurrent requests; returns (PhaseResult, counters)."""
    spec = ScenarioSpec(
        name="load", dataset="facebook", seed=99, pool_size=POOL_SIZE
    )
    store = ShardStore(
        {spec.name: spec},
        instances={spec.name: instance},
        workers=WORKERS,
        round_size=POOL_SIZE,
        retry=RETRY,
        fault_injector=injector,
    )
    app = ShardApp(store)
    server = start_http_server(app)
    port = server.server_address[1]
    queries = [
        dict(QUERIES[i % len(QUERIES)], scenario="load")
        for i in range(CLIENTS)
    ]
    try:
        generator = LoadGenerator("127.0.0.1", port)
        result = generator.run_phase(
            LoadPhase(name, queries, clients=CLIENTS)
        )
        counters = dict(app.requests)
        counters.update(store.counters)
    finally:
        server.shutdown()
        server.server_close()
        app.close()
    return result, counters


def test_serving_load(benchmark, tmp_path):
    instance = _instance()
    metrics_path = str(tmp_path / "bench_serving.metrics.jsonl")

    def run():
        with obs.session(metrics_out=metrics_path) as recorder:
            clean = _run_phase("fault-free", instance, injector=None)
            injector = FaultInjector(
                # First batch of the shard's first merge round kills its
                # worker process; the re-dispatch must be invisible.
                [Fault.kill_on("generate_batch", start=0, attempt=0)]
            )
            killed = _run_phase("1 worker kill", instance, injector)
        return clean, killed, recorder.metrics

    (clean, killed, metrics_snapshot) = benchmark.pedantic(run, rounds=1)

    # golden() also asserts zero transport errors and zero non-200s.
    clean_golden = clean[0].golden()
    killed_golden = killed[0].golden()
    assert killed_golden == clean_golden  # byte-identical across the kill

    rows = []
    percentiles = {}
    for result, counters in (clean, killed):
        p = result.percentiles()
        percentiles[result.phase] = p
        rows.append(
            (
                result.phase,
                counters["total"],
                counters["batched"],
                counters["failed"],
                f"{p['p50'] * 1000:.1f}",
                f"{p['p95'] * 1000:.1f}",
                f"{p['p99'] * 1000:.1f}",
            )
        )

    manifest = obs.build_manifest(
        "bench_serving",
        config={
            "clients": CLIENTS,
            "pool_size": POOL_SIZE,
            "workers": WORKERS,
            "queries": list(QUERIES),
            "latency_seconds": percentiles,
        },
        seeds={"seed": 99},
        metrics_snapshot=metrics_snapshot,
        artifacts={"metrics": metrics_path},
    )
    manifest_path = obs.write_manifest(
        manifest, obs.manifest_path_for(metrics_path)
    )

    emit(
        f"shard server under load ({CLIENTS} clients x 2 phases, "
        f"{WORKERS} workers, pool={POOL_SIZE})",
        ascii_table(
            [
                "phase",
                "requests",
                "batched",
                "failed",
                "p50 (ms)",
                "p95 (ms)",
                "p99 (ms)",
            ],
            rows,
        )
        + f"\nmanifest: {manifest_path}",
    )
