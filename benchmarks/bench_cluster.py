"""Chaos floor — the whole cluster stack under concurrent fire.

Three replicas behind the rendezvous router, 200+ concurrent clients
round-robining six distinct queries over three scenarios, four phases
through :mod:`repro.serving.loadgen` across two cluster incarnations:

**Cluster A (observability off)** isolates the router→replica
connection-pooling win:

1. **plain-unpooled**: keep-alive pooling disabled — every forward
   opens a fresh upstream connection.
2. **plain-pooled**: pooling re-enabled — the before/after p50/p95
   land in the manifest under ``connection_pooling``.

**Cluster B (full observability plane: ``run_dir`` set, so the event
journal, cross-process tracing and fleet scraping are all live)**:

3. **fault-free**: records the golden deterministic answer per query
   and the obs-enabled latency distribution.
4. **replica-kill**: the same flood, but once an eighth of the requests
   have completed, the replica *owning the hottest scenario* is
   SIGKILLed (whole process group — sampler workers included).

The floor asserts:

- **zero client-visible errors** in every phase — every request gets a
  200, no transport failures (the router fails requests over to the
  rendezvous successor, which cold-rebuilds the shard byte-identically);
- **all four phases byte-identical** to the fault-free golden
  (volatile ``batched``/``cache_hit`` flags aside);
- **every response traceable** with the plane enabled — both cluster-B
  phases carry an ``X-Repro-Trace-Id`` on 100% of answers, kill
  included;
- **aggregation adds up** — the router's merged
  ``serving.requests.total`` equals the sum over the per-replica
  scrapes in the same aggregation document, with zero scrape failures
  once the fleet has quiesced;
- **the reporter tells the story** — ``render_cluster_report`` on the
  run dir renders the kill → respawn incident;
- **observability is cheap** — obs-enabled fault-free p95 within 5%
  (plus a small absolute allowance) of the plain pooled p95;
- **restart within the backoff bound** — the supervisor's
  ``restart_log`` shows the victim respawned no earlier than its
  policy delay and healthy again within the schedule-plus-startup
  bound.

p50/p95/p99 for all phases land in a run manifest
(``bench_cluster.manifest.json`` under the pytest tmp dir).
"""

from __future__ import annotations

import time

from conftest import SCALE, emit

from repro import obs
from repro.communities.structure import Community, CommunityStructure
from repro.experiments.reporting import ascii_table
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs import render_cluster_report
from repro.serving import (
    ClusterConfig,
    LoadGenerator,
    LoadPhase,
    ScenarioSpec,
    ServingCluster,
    assign_replica,
)
from repro.utils.retry import RetryPolicy

CLIENTS = max(200, int(250 * SCALE))
POOL_SIZE = max(96, int(192 * SCALE))
REPLICAS = 3
SCENARIOS = ("alpha", "beta", "gamma")
BUDGETS = (3, 5)
RESTART_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.25, max_delay=10.0, jitter=0.25, seed=0
)
STARTUP_TIMEOUT = 120.0
# Observability overhead ceiling: 5% relative plus a 25ms absolute
# allowance so a near-zero baseline doesn't turn scheduler noise into
# a failure.
OVERHEAD_RELATIVE = 1.05
OVERHEAD_ABSOLUTE = 0.025


def _instance():
    graph, blocks = planted_partition_graph(
        [5] * 6, p_in=0.6, p_out=0.03, directed=True, seed=17
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def _queries():
    distinct = [
        {"scenario": scenario, "budget": budget}
        for scenario in SCENARIOS
        for budget in BUDGETS
    ]
    return [distinct[i % len(distinct)] for i in range(CLIENTS)]


def _config(instance, run_dir=None) -> ClusterConfig:
    specs = {
        name: ScenarioSpec(
            name=name, dataset="facebook", seed=99, pool_size=POOL_SIZE
        )
        for name in SCENARIOS
    }
    return ClusterConfig(
        specs,
        instances={name: instance for name in SCENARIOS},
        replicas=REPLICAS,
        workers=1,
        round_size=POOL_SIZE,
        restart_policy=RESTART_POLICY,
        heartbeat_interval=0.2,
        heartbeat_timeout=1.0,
        startup_timeout=STARTUP_TIMEOUT,
        run_dir=run_dir,
    )


def _await_victim_healthy(supervisor, victim: str, bound: float) -> float:
    """Seconds until the killed replica is healthy again (<= bound)."""
    began = time.monotonic()
    deadline = began + bound
    while time.monotonic() < deadline:
        health = {
            endpoint.replica_id: endpoint.healthy
            for endpoint in supervisor.endpoints()
        }
        if health.get(victim):
            return time.monotonic() - began
        time.sleep(0.1)
    raise AssertionError(
        f"victim {victim} not healthy within {bound:.1f}s: "
        f"{supervisor.restart_log}"
    )


def test_cluster_load(benchmark, tmp_path):
    instance = _instance()
    run_dir = str(tmp_path / "cluster-run")
    queries = _queries()

    def run():
        # --- Cluster A: observability off; pooling before/after. ---
        with ServingCluster(_config(instance)) as cluster:
            host, port = cluster.router_address
            generator = LoadGenerator(host, port)
            # Warm every shard's solve cache first so neither measured
            # phase pays the one-off cold-build cost.
            generator.run_phase(LoadPhase("warmup", queries, clients=CLIENTS))
            cluster.router_app.pool_connections = False
            unpooled = generator.run_phase(
                LoadPhase("plain-unpooled", queries, clients=CLIENTS)
            )
            cluster.router_app.pool_connections = True
            pooled = generator.run_phase(
                LoadPhase("plain-pooled", queries, clients=CLIENTS)
            )

        # --- Cluster B: full observability plane + chaos. ---
        with ServingCluster(_config(instance, run_dir=run_dir)) as cluster:
            supervisor = cluster.supervisor
            host, port = cluster.router_address
            generator = LoadGenerator(host, port)
            victim = assign_replica(
                SCENARIOS[0],
                [e.replica_id for e in supervisor.endpoints()],
            )
            # Same warmup as cluster A: the measured fault-free phase
            # must not carry the cold-build cost cluster A already paid.
            generator.run_phase(LoadPhase("warmup", queries, clients=CLIENTS))
            clean = generator.run_phase(
                LoadPhase("fault-free", queries, clients=CLIENTS)
            )
            killed = generator.run_phase(
                LoadPhase(
                    "replica-kill",
                    queries,
                    clients=CLIENTS,
                    chaos=lambda: supervisor.kill_replica(victim),
                    chaos_after=CLIENTS // 8,
                )
            )
            # The phase can finish while the victim is still mid-
            # backoff; the restart bound is asserted on the log.
            schedule = sum(RESTART_POLICY.delays())
            _await_victim_healthy(
                supervisor, victim, schedule + STARTUP_TIMEOUT
            )
            restart_log = [dict(e) for e in supervisor.restart_log]
            counters = dict(cluster.router_app.counters)
            # Quiesced fleet sweep: every replica back up, nothing in
            # flight — the merged counters must add up exactly.
            fleet_doc = cluster.router_app.fleet.aggregate(force=True)
        return (
            unpooled,
            pooled,
            clean,
            killed,
            victim,
            restart_log,
            counters,
            fleet_doc,
        )

    unpooled, pooled, clean, killed, victim, restart_log, counters, fleet_doc = (
        benchmark.pedantic(run, rounds=1)
    )

    # Floor 1: zero client-visible errors, in all four phases (golden()
    # raises on any transport error or non-200).
    clean_golden = clean.golden()
    # Floor 2: neither the kill nor the pooling/obs toggles changed an
    # answer.
    assert killed.golden() == clean_golden
    assert unpooled.golden() == clean_golden
    assert pooled.golden() == clean_golden
    # Floor 3: with the plane enabled, every answered request is
    # traceable — the SIGKILL phase included.
    assert clean.traceability() == 1.0
    assert killed.traceability() == 1.0
    # Floor 4: the aggregation document is internally consistent — the
    # merged serving.requests.total is exactly the sum of the
    # per-replica scrapes it was built from, and the quiesced sweep
    # reached every replica.
    assert fleet_doc["scrape_failures"] == []
    merged_total = fleet_doc["snapshot"]["counters"]["serving.requests.total"]
    scraped_total = sum(
        snapshot.get("counters", {}).get("serving.requests.total", 0)
        for snapshot in fleet_doc["replicas"].values()
    )
    assert merged_total == scraped_total
    assert merged_total > 0
    # Floor 5: the victim was restarted, pacing within the policy bound.
    victim_entries = [
        e for e in restart_log if e["replica_id"] == victim
    ]
    assert victim_entries, f"no restart recorded for {victim}"
    recovered = [e for e in victim_entries if e["healthy_at"] is not None]
    assert recovered, f"victim never back to healthy: {victim_entries}"
    final = recovered[-1]
    schedule_bound = sum(
        RESTART_POLICY.delay_for(i) for i in range(1, final["attempt"] + 1)
    )
    waited = final["respawn_at"] - final["detected_at"]
    assert waited >= RESTART_POLICY.delay_for(final["attempt"]) * 0.99
    assert (
        final["healthy_at"] - final["detected_at"]
        <= schedule_bound + STARTUP_TIMEOUT
    )
    assert counters["failovers"] >= 1  # the kill was client-invisible
    # Floor 6: the reporter stitches the kill → respawn incident from
    # the run dir the cluster just wrote.
    report_text = render_cluster_report(run_dir)
    assert "replica.killed" in report_text
    assert "replica.respawned" in report_text
    # Floor 7: the plane is cheap — obs-enabled fault-free p95 within
    # the overhead ceiling of the plain pooled p95.
    plain_p95 = pooled.percentiles()["p95"]
    obs_p95 = clean.percentiles()["p95"]
    assert obs_p95 <= plain_p95 * OVERHEAD_RELATIVE + OVERHEAD_ABSOLUTE, (
        f"observability overhead too high: obs p95 {obs_p95:.4f}s vs "
        f"plain pooled p95 {plain_p95:.4f}s"
    )

    percentiles = {
        "plain-unpooled": unpooled.percentiles(),
        "plain-pooled": pooled.percentiles(),
        "fault-free": clean.percentiles(),
        "replica-kill": killed.percentiles(),
    }
    manifest = obs.build_manifest(
        "bench_cluster",
        config={
            "clients": CLIENTS,
            "replicas": REPLICAS,
            "pool_size": POOL_SIZE,
            "scenarios": list(SCENARIOS),
            "budgets": list(BUDGETS),
            "victim": victim,
            "latency_seconds": percentiles,
            "connection_pooling": {
                "before": {
                    "p50": percentiles["plain-unpooled"]["p50"],
                    "p95": percentiles["plain-unpooled"]["p95"],
                },
                "after": {
                    "p50": percentiles["plain-pooled"]["p50"],
                    "p95": percentiles["plain-pooled"]["p95"],
                },
            },
            "traceability": {
                "fault-free": clean.traceability(),
                "replica-kill": killed.traceability(),
            },
            "router_counters": counters,
            "restart_log": restart_log,
            "scrape_failures": fleet_doc["scrape_failures"],
        },
        seeds={"seed": 99},
        metrics_snapshot=fleet_doc["snapshot"],
        artifacts={"run_dir": run_dir},
    )
    manifest_path = obs.write_manifest(
        manifest, str(tmp_path / "bench_cluster.manifest.json")
    )

    rows = []
    for label, result in (
        ("plain-unpooled", unpooled),
        ("plain-pooled", pooled),
        ("fault-free", clean),
        ("replica-kill", killed),
    ):
        p = percentiles[label]
        rows.append(
            (
                label,
                len(result.responses),
                len(result.errors),
                f"{p['p50'] * 1000:.1f}",
                f"{p['p95'] * 1000:.1f}",
                f"{p['p99'] * 1000:.1f}",
            )
        )
    emit(
        f"serving cluster under load ({CLIENTS} clients x 4 phases, "
        f"{REPLICAS} replicas, victim={victim} killed mid-phase, "
        "obs plane on for the last two phases)",
        ascii_table(
            ["phase", "requests", "errors", "p50 (ms)", "p95 (ms)", "p99 (ms)"],
            rows,
        )
        + f"\nrestarts: {len(restart_log)}; router: {counters}"
        + f"\nfleet serving.requests.total: {merged_total} "
        + f"(= sum of {len(fleet_doc['replicas'])} replica scrapes)"
        + f"\nmanifest: {manifest_path}",
    )
