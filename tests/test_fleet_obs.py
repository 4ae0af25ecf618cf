"""Fleet observability plane tests: trace propagation across the
router -> replica hop (including failover siblings), header byte-identity,
fleet metrics aggregation, router ``/status`` fleet truth, connection
pooling and the cluster run reporter.

The fast lane runs in-process ShardApp servers behind a RouterApp — no
subprocesses. The slow lane SIGKILLs a real replica mid-flood and
asserts the full plane: 100% traceability, byte-identity, one trace id
across retried forwards, and a reporter that renders the incident.
"""

from __future__ import annotations

import glob
import json
import os
import time

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs import (
    EventJournal,
    PARENT_HEADER,
    TRACE_HEADER,
    render_cluster_report,
    session,
    trace,
)
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.sinks import read_jsonl
from repro.serving import (
    LoadGenerator,
    LoadPhase,
    ReplicaEndpoint,
    RouterApp,
    ScenarioSpec,
    ShardApp,
    ShardStore,
    rendezvous_order,
    start_http_server,
)

pytestmark = [pytest.mark.obs, pytest.mark.serve]


def _instance(seed: int = 17):
    graph, blocks = planted_partition_graph(
        [5] * 6, p_in=0.6, p_out=0.03, directed=True, seed=seed
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph.freeze(), communities


def _spec(name: str = "planted", **kwargs) -> ScenarioSpec:
    defaults = dict(dataset="facebook", seed=99, pool_size=60)
    defaults.update(kwargs)
    return ScenarioSpec(name=name, **defaults)


def _app(*names: str) -> ShardApp:
    names = names or ("planted",)
    specs = {name: _spec(name) for name in names}
    instance = _instance()
    store = ShardStore(
        specs,
        instances={name: instance for name in names},
        workers=1,
        round_size=60,
    )
    return ShardApp(store)


def _serve(*names: str):
    app = _app(*names)
    server = start_http_server(app)
    return app, server, server.server_address[1]


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Replica-side trace adoption and response headers
# ----------------------------------------------------------------------


class TestShardAppTraceHeaders:
    def test_solve_mints_a_trace_id_and_phase_breakdown(self):
        app = _app()
        try:
            status, body, headers = app.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            response = json.loads(body)
            assert response["seeds"]
            trace_id = headers[TRACE_HEADER]
            assert len(trace_id) == 32 and int(trace_id, 16) >= 0
            timing = headers["Server-Timing"]
            for phase in ("parse", "batch", "total"):
                assert f"{phase};dur=" in timing
            # The response *body* stays header-free: no trace keys.
            assert "trace_id" not in response
        finally:
            app.close()

    def test_solve_adopts_the_inbound_trace_context(self):
        app = _app()
        try:
            with session() as recorder:
                _, _, headers = app.handle_solve(
                    {"scenario": "planted", "budget": 3},
                    {TRACE_HEADER: "cafe42", PARENT_HEADER: "dead.01"},
                )
            assert headers[TRACE_HEADER] == "cafe42"  # echoed, not minted
            by_name = {r["name"]: r for r in recorder.spans}
            root = by_name["serving/request"]
            assert root["parent_id"] == "dead.01"  # re-parented remotely
            assert all(
                r["trace_id"] == "cafe42" for r in recorder.spans
            )
            counters = recorder.metrics["counters"]
            assert counters["serving.trace.adopted"] == 1
        finally:
            app.close()

    def test_response_bytes_identical_with_tracing_on_and_off(self):
        # The golden()/byte-identity contract: trace context rides in
        # headers only, so enabling the obs session must not change a
        # single response byte. Two fresh stores (same spec seed) keep
        # cache_hit and num_samples aligned between the two runs.
        query = {"scenario": "planted", "budget": 3}
        plain_app = _app()
        try:
            _, plain, _ = plain_app.handle_solve(query)
        finally:
            plain_app.close()
        traced_app = _app()
        try:
            with session():
                _, traced, _ = traced_app.handle_solve(query)
        finally:
            traced_app.close()
        assert plain == traced


# ----------------------------------------------------------------------
# Router-side propagation, failover siblings, aggregation, status
# ----------------------------------------------------------------------


class TestRouterFleetObservability:
    def test_forward_propagates_one_trace_across_the_hop(self):
        app, server, port = _serve()
        endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
        router = RouterApp(lambda: [endpoint])
        try:
            with session() as recorder:
                status, body, headers = router.handle_solve(
                    {"scenario": "planted", "budget": 3}
                )
            assert status == 200
            trace_id = headers[TRACE_HEADER]
            # The router appended its own segment to the replica's
            # Server-Timing breakdown.
            assert "router;dur=" in headers["Server-Timing"]
            assert "total;dur=" in headers["Server-Timing"]
            by_name = {r["name"]: r for r in recorder.spans}
            solve = by_name["router/solve"]
            forward = by_name["router/forward"]
            assert solve["trace_id"] == trace_id
            assert forward["parent_id"] == solve["span_id"]
            assert recorder.metrics["counters"]["router.trace.minted"] == 1
        finally:
            router.close_pools()
            server.drain(5.0)
            app.close()

    def test_failover_forwards_are_sibling_spans_in_one_trace(self):
        # Rendezvous-primary is a dead port: the first forward fails,
        # the retry answers. Both forwards must be children of the same
        # router/solve span, sharing one trace id — the "retries are
        # sibling spans" contract.
        app, server, port = _serve()
        dead_port = _free_port()
        ids = ["r0", "r1"]
        primary = rendezvous_order("planted", ids)[0]
        secondary = ids[0] if primary == ids[1] else ids[1]
        endpoints = [
            ReplicaEndpoint(primary, "127.0.0.1", dead_port, True),
            ReplicaEndpoint(secondary, "127.0.0.1", port, True),
        ]
        router = RouterApp(lambda: endpoints)
        try:
            with session() as recorder:
                status, _, headers = router.handle_solve(
                    {"scenario": "planted", "budget": 3}
                )
            assert status == 200
            forwards = [
                r for r in recorder.spans if r["name"] == "router/forward"
            ]
            assert len(forwards) == 2
            assert {f["attrs"]["replica"] for f in forwards} == {
                primary,
                secondary,
            }
            solve = next(
                r for r in recorder.spans if r["name"] == "router/solve"
            )
            assert all(
                f["parent_id"] == solve["span_id"] for f in forwards
            )
            assert {f["trace_id"] for f in forwards} == {
                headers[TRACE_HEADER]
            }
            assert router.counters["failovers"] == 1
        finally:
            router.close_pools()
            server.drain(5.0)
            app.close()

    def test_inbound_context_is_adopted_not_reminted(self):
        app, server, port = _serve()
        endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
        router = RouterApp(lambda: [endpoint])
        try:
            with session() as recorder:
                _, _, headers = router.handle_solve(
                    {"scenario": "planted", "budget": 3},
                    {TRACE_HEADER: "upstream1"},
                )
            assert headers[TRACE_HEADER] == "upstream1"
            counters = recorder.metrics["counters"]
            assert counters["router.trace.adopted"] == 1
            assert counters.get("router.trace.minted", 0) == 0
        finally:
            router.close_pools()
            server.drain(5.0)
            app.close()

    def test_aggregated_counters_equal_the_sum_of_replica_scrapes(self):
        # In-process "replicas" share one ambient registry, so the
        # HTTP-level sum check lives in the subprocess lanes (the slow
        # chaos floor and bench_cluster); here the scrape layer is
        # canned to pin the aggregation *semantics* exactly.
        from repro.obs.metrics import MetricsRegistry
        from repro.serving import FleetMetricsAggregator

        canned = {
            "r0": {
                "counters": {"serving.requests.total": 2,
                             "serving.requests.failed": 1},
                "gauges": {"serving.shards.active": 1},
                "histograms": {},
            },
            "r1": {
                "counters": {"serving.requests.total": 5},
                "gauges": {"serving.shards.active": 2},
                "histograms": {},
            },
        }
        endpoints = [
            ReplicaEndpoint("r0", "127.0.0.1", 1, True),
            ReplicaEndpoint("r1", "127.0.0.1", 2, True),
            ReplicaEndpoint("r2", "127.0.0.1", 3, True),  # mid-restart
        ]
        aggregator = FleetMetricsAggregator(
            lambda: endpoints, local_registry=MetricsRegistry()
        )
        aggregator.scrape = lambda ep: canned.get(ep.replica_id)
        document = aggregator.aggregate(force=True)
        merged = document["snapshot"]["counters"]
        total = sum(
            snap["counters"].get("serving.requests.total", 0)
            for snap in document["replicas"].values()
        )
        assert merged["serving.requests.total"] == total == 7
        # A replica that fails its scrape degrades, never throws.
        assert document["scrape_failures"] == ["r2"]
        assert aggregator.scrape_age("r0") is not None
        assert aggregator.scrape_age("r2") is None
        # Gauges stay apart under per-replica labels — never summed.
        merged_gauges = document["snapshot"]["gauges"]
        assert merged_gauges['serving.shards.active{replica="r0"}'] == 1
        assert merged_gauges['serving.shards.active{replica="r1"}'] == 2
        assert "serving.shards.active" not in merged_gauges
        # Derived SLO gauges ride the same snapshot.
        assert merged_gauges["cluster.slo.error.rate"] == pytest.approx(
            1 / 7
        )
        assert document["slo"]["cluster.slo.error.rate"] == pytest.approx(
            1 / 7
        )

    def test_status_reports_breaker_pool_and_scrape_age(self):
        app, server, port = _serve()
        endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
        router = RouterApp(lambda: [endpoint])
        try:
            status, _, _ = router.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            router.metrics_json()  # one fleet sweep
            payload = router.status()
            (replica,) = payload["replicas"]
            assert replica["breaker"] == "closed"
            assert replica["pooled_connections"] == 1  # kept alive
            assert replica["last_scrape_age_seconds"] is not None
            assert replica["last_scrape_age_seconds"] < 60.0
            assert payload["connection_pooling"] == {
                "enabled": True,
                "pool_size": 8,
            }
        finally:
            router.close_pools()
            server.drain(5.0)
            app.close()

    def test_pooling_reuses_connections_and_can_be_disabled(self):
        app, server, port = _serve()
        endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
        pooled = RouterApp(lambda: [endpoint])
        unpooled = RouterApp(lambda: [endpoint], pool_connections=False)
        try:
            for _ in range(3):
                status, _, _ = pooled.handle_solve(
                    {"scenario": "planted", "budget": 3}
                )
                assert status == 200
            assert pooled._pool("r0").idle() == 1  # round-tripped, kept
            pooled.close_pools()
            assert pooled._pool("r0").idle() == 0
            status, _, _ = unpooled.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            assert (
                unpooled.status()["replicas"][0]["pooled_connections"] == 0
            )
        finally:
            pooled.close_pools()
            server.drain(5.0)
            app.close()


# ----------------------------------------------------------------------
# Cluster run reporter (synthetic run directory; no subprocesses)
# ----------------------------------------------------------------------


class TestClusterReporter:
    def _rundir(self, tmp_path) -> str:
        rundir = tmp_path / "run"
        rundir.mkdir()
        clock = iter([100.0, 100.5, 103.25, 104.0])
        with EventJournal(
            rundir / "events.jsonl",
            source="cluster",
            clock=lambda: next(clock),
        ) as journal:
            journal.emit("replica.spawned", replica="r0", port=7001)
            journal.emit("cluster.started", router_port=7000, replicas=1)
            journal.emit("replica.killed", replica="r0", child_pid=424242)
            journal.emit("replica.respawned", replica="r0", attempt=1,
                         delay=0.25)
        with session():
            with trace.context("feedbeef" * 4):
                with trace.span("router/solve", scenario="alpha"):
                    with trace.span("router/forward", replica="r0",
                                    attempt=1):
                        time.sleep(0.01)
            spans = trace.snapshot()
        with open(rundir / "router.trace.jsonl", "w",
                  encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        write_manifest(
            build_manifest(
                command="cluster",
                config={
                    "router_host": "127.0.0.1",
                    "router_port": 7000,
                    "replicas": [
                        {"replica_id": "r0", "port": 7001, "workers": 2,
                         "scenarios": ["alpha"]},
                    ],
                },
            ),
            str(rundir / "cluster.manifest.json"),
        )
        with open(rundir / "cluster.metrics.json", "w",
                  encoding="utf-8") as handle:
            json.dump(
                {
                    "snapshot": {
                        "counters": {"serving.requests.total": 12},
                        "gauges": {"cluster.slo.p95.seconds": 0.05},
                        "histograms": {},
                    },
                    "slo": {"cluster.slo.p95.seconds": 0.05},
                    "replicas": {},
                    "scrape_failures": [],
                },
                handle,
            )
        return str(rundir)

    def test_report_stitches_timeline_traces_and_metrics(self, tmp_path):
        text = render_cluster_report(self._rundir(tmp_path))
        # Topology from the manifest.
        assert "router: 127.0.0.1:7000" in text
        assert "replica r0: port=7001 workers=2 scenarios=[alpha]" in text
        # The kill -> respawn incident appears on the timeline with
        # relative offsets from the first event.
        assert "replica.killed" in text
        assert "replica.respawned" in text
        assert "+    3.250s" in text
        assert "incidents:" in text and "kills=1" in text
        # Phase timings and the slowest-trace exemplar from the spans.
        assert "router/solve" in text
        assert "router/forward" in text
        # Fleet metrics from the final aggregation document.
        assert "serving.requests.total = 12" in text

    def test_report_refuses_a_directory_with_no_artifacts(self, tmp_path):
        from repro.errors import ObservabilityError

        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ObservabilityError, match="artifact"):
            render_cluster_report(str(empty))
        with pytest.raises(ObservabilityError, match="run directory"):
            render_cluster_report(str(tmp_path / "missing"))


# ----------------------------------------------------------------------
# Full-plane chaos floor (slow lane): SIGKILL under load with run_dir
# ----------------------------------------------------------------------


@pytest.mark.cluster
@pytest.mark.slow
def test_chaos_kill_keeps_every_response_traceable(tmp_path):
    from repro.serving import ClusterConfig, ServingCluster, assign_replica
    from repro.utils.retry import RetryPolicy

    rundir = tmp_path / "run"
    specs = {name: _spec(name) for name in ("alpha", "beta")}
    config = ClusterConfig(
        specs,
        instances={name: _instance() for name in specs},
        replicas=3,
        workers=1,
        round_size=60,
        heartbeat_interval=0.2,
        heartbeat_timeout=1.0,
        restart_policy=RetryPolicy(
            max_attempts=5, base_delay=0.2, max_delay=2.0, jitter=0.0, seed=0
        ),
        run_dir=str(rundir),
    )
    queries = [
        {"scenario": ("alpha", "beta")[i % 2], "budget": 3 + (i % 2)}
        for i in range(40)
    ]
    with ServingCluster(config) as cluster:
        host, port = cluster.router_address
        generator = LoadGenerator(host, port)
        victim = assign_replica(
            "alpha", [e.replica_id for e in cluster.supervisor.endpoints()]
        )
        clean = generator.run_phase(
            LoadPhase("clean", queries, clients=40)
        )
        chaos = generator.run_phase(
            LoadPhase(
                "chaos",
                queries,
                clients=40,
                chaos=lambda: cluster.supervisor.kill_replica(victim),
                chaos_after=10,
            )
        )
        # Every answered request in both phases carries a trace id,
        # and chaos answers are byte-identical to clean ones.
        assert clean.traceability() == 1.0
        assert chaos.traceability() == 1.0
        assert clean.golden() == chaos.golden()
        assert cluster.router_app.counters["failovers"] >= 1
    # Retried forwards are sibling spans inside one trace.
    router_spans = [
        r
        for r in read_jsonl(str(rundir / "router.trace.jsonl"))
        if r.get("type") == "span"
    ]
    by_trace: dict = {}
    for span in router_spans:
        if span["name"] == "router/forward":
            by_trace.setdefault(span["trace_id"], []).append(span)
    retried = [spans for spans in by_trace.values() if len(spans) > 1]
    assert retried, "chaos phase produced no failover retries"
    for spans in retried:
        assert len({s["parent_id"] for s in spans}) == 1
    # The reporter renders the kill -> respawn incident from the run dir.
    text = render_cluster_report(str(rundir))
    assert "replica.killed" in text
    assert "replica.respawned" in text
    assert "cluster.stopped" in text
    # Every replica incarnation left pid-stamped artifacts.
    assert glob.glob(os.path.join(str(rundir), "replica-*-*.trace.jsonl"))
