"""Cluster tests: rendezvous routing, breakers, failover, supervision.

Unit layers (rendezvous order, :class:`CircuitBreaker` on a fake clock,
:class:`RouterApp` against in-process replicas) run entirely without
subprocesses. The tier-1 smoke spins up a real 2-replica cluster on
ephemeral ports — spawn, health-check, route, drain — with a tiny
synthetic instance injected so no dataset building happens. The
kill-and-failover floor (one replica SIGKILLed under concurrent load,
zero client-visible errors, byte-identical answers, restart within the
backoff bound) lives under ``-m "cluster and slow"``.
"""

from __future__ import annotations

import http.server
import json
import threading
import time

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.errors import ClusterError, ServingError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.serving import (
    CircuitBreaker,
    ClusterConfig,
    LoadGenerator,
    LoadPhase,
    ReplicaEndpoint,
    RouterApp,
    ScenarioSpec,
    ServingCluster,
    ShardApp,
    ShardStore,
    assign_replica,
    rendezvous_order,
    start_http_server,
)
from repro.serving.router import FORWARD_SITE
from repro.serving.server import GracefulHTTPServer
from repro.utils.faults import Fault, FaultInjector
from repro.utils.retry import RetryPolicy

pytestmark = [pytest.mark.serve, pytest.mark.cluster]


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


def _free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Rendezvous hashing
# ----------------------------------------------------------------------


class TestRendezvous:
    def test_order_is_a_permutation_and_deterministic(self):
        ids = ["r0", "r1", "r2", "r3"]
        order = rendezvous_order("alpha", ids)
        assert sorted(order) == sorted(ids)
        assert rendezvous_order("alpha", ids) == order
        # Input order is irrelevant: weights decide, not position.
        assert rendezvous_order("alpha", list(reversed(ids))) == order

    def test_different_keys_spread_across_replicas(self):
        ids = [f"r{i}" for i in range(4)]
        homes = {
            assign_replica(f"scenario-{i}", ids) for i in range(64)
        }
        assert len(homes) > 1  # not everything on one replica

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ClusterError, match="unique"):
            rendezvous_order("alpha", ["r0", "r0"])

    def test_assign_needs_at_least_one_replica(self):
        with pytest.raises(ClusterError, match="zero replicas"):
            assign_replica("alpha", [])


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=1.0)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.allow()  # still closed below the threshold
        assert breaker.record_failure() is True  # the opening transition
        assert breaker.state() == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False  # streak restarted
        assert breaker.state() == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 5.0
        assert breaker.state() == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller refused
        breaker.record_success()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=5.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 5.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # reopening counts
        assert breaker.state() == "open"
        clock.now = 9.0  # cooldown restarted at t=5
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_validation(self):
        with pytest.raises(ClusterError, match="failure_threshold"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ClusterError, match="reset_seconds"):
            CircuitBreaker(reset_seconds=-1.0)


# ----------------------------------------------------------------------
# Router (in-process replicas; no subprocesses)
# ----------------------------------------------------------------------


def _serve_replica(spec, instance):
    """One in-process ShardApp server; returns (app, server, port)."""
    store = ShardStore(
        {spec.name: spec},
        instances={spec.name: instance},
        workers=1,
        round_size=spec.pool_size,
    )
    app = ShardApp(store)
    server = start_http_server(app)
    return app, server, server.server_address[1]


class TestRouterApp:
    def test_all_replicas_dead_is_503_with_detail(self):
        dead = ReplicaEndpoint("r0", "127.0.0.1", _free_port(), True)
        router = RouterApp(lambda: [dead], breaker_threshold=3)
        status, body, _ = router.handle_solve(
            {"scenario": "planted", "budget": 3}
        )
        assert status == 503
        assert "r0" in json.dumps(json.loads(body))
        assert router.counters["failed"] == 1

    def test_missing_scenario_rejected_before_forwarding(self):
        router = RouterApp(lambda: [])
        with pytest.raises(ServingError, match="scenario"):
            router.handle_solve({"budget": 3})

    def test_routes_to_live_replica_and_passes_bytes_through(self):
        spec = _spec()
        app, server, port = _serve_replica(spec, _instance())
        try:
            endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
            router = RouterApp(lambda: [endpoint])
            status, body, _ = router.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["num_samples"] == spec.pool_size
            assert router.counters == {
                "routed": 1,
                "failovers": 0,
                "failed": 0,
            }
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    def test_failover_to_rendezvous_successor_is_invisible(self):
        spec = _spec()
        app, server, port = _serve_replica(spec, _instance())
        try:
            order = rendezvous_order("planted", ["r0", "r1"])
            # The key's home replica is dead; its successor is live.
            endpoints = [
                ReplicaEndpoint(order[0], "127.0.0.1", _free_port(), True),
                ReplicaEndpoint(order[1], "127.0.0.1", port, True),
            ]
            router = RouterApp(lambda: endpoints)
            status, body, _ = router.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            assert json.loads(body)["num_samples"] == spec.pool_size
            assert router.counters["failovers"] == 1
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    def test_consecutive_failures_open_the_breaker(self):
        dead = ReplicaEndpoint("r0", "127.0.0.1", _free_port(), True)
        router = RouterApp(
            lambda: [dead], breaker_threshold=2, breaker_reset_seconds=60.0
        )
        for _ in range(2):
            router.handle_solve({"scenario": "planted", "budget": 3})
        assert router.breaker("r0").state() == "open"
        # With the breaker open the replica is skipped during candidate
        # selection, but as the only replica it is still *tried* (the
        # all-unavailable fallback) — refusing without trying is worse.
        status, _, _ = router.handle_solve(
            {"scenario": "planted", "budget": 3}
        )
        assert status == 503

    def test_unhealthy_replicas_are_skipped(self):
        spec = _spec()
        app, server, port = _serve_replica(spec, _instance())
        try:
            order = rendezvous_order("planted", ["r0", "r1"])
            endpoints = [
                # Home replica flagged unhealthy by the supervisor: the
                # router must go straight to the successor, no failover
                # attempt against the dead one.
                ReplicaEndpoint(order[0], "127.0.0.1", _free_port(), False),
                ReplicaEndpoint(order[1], "127.0.0.1", port, True),
            ]
            router = RouterApp(lambda: endpoints)
            status, _, _ = router.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            assert status == 200
            assert router.counters["failovers"] == 0
        finally:
            server.shutdown()
            server.server_close()
            app.close()

    def test_injected_forward_latency_is_survivable(self):
        spec = _spec()
        app, server, port = _serve_replica(spec, _instance())
        try:
            endpoint = ReplicaEndpoint("r0", "127.0.0.1", port, True)
            injector = FaultInjector(
                [Fault.delay_on(FORWARD_SITE, seconds=0.2, call=0)]
            )
            router = RouterApp(lambda: [endpoint], fault_injector=injector)
            began = time.perf_counter()
            status, _, _ = router.handle_solve(
                {"scenario": "planted", "budget": 3}
            )
            elapsed = time.perf_counter() - began
            assert status == 200
            assert elapsed >= 0.2  # the chaos delay was really injected
        finally:
            server.shutdown()
            server.server_close()
            app.close()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------


class _SlowHandler(http.server.BaseHTTPRequestHandler):
    """Answers after a delay, to hold a request in flight mid-drain."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:  # noqa: D102
        pass

    def do_GET(self) -> None:  # noqa: N802
        time.sleep(self.server.delay)  # type: ignore[attr-defined]
        body = b'{"ok": true}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TestGracefulDrain:
    def _start(self, delay: float):
        server = GracefulHTTPServer(("127.0.0.1", 0), _SlowHandler)
        server.delay = delay  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, server.server_address[1]

    def test_drain_finishes_in_flight_requests(self):
        server, port = self._start(delay=0.4)
        statuses = []

        def client():
            import urllib.request

            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/", timeout=30
            ) as response:
                statuses.append(response.status)

        thread = threading.Thread(target=client)
        thread.start()
        for _ in range(200):  # wait until the request is in flight
            if server.in_flight() > 0:
                break
            time.sleep(0.01)
        assert server.in_flight() == 1
        drained = server.drain(timeout=10.0)
        thread.join(timeout=10)
        assert drained  # in-flight request finished before close
        assert statuses == [200]
        assert server.in_flight() == 0

    def test_drain_times_out_on_stuck_handlers(self):
        server, port = self._start(delay=3.0)

        def client():
            import contextlib
            import urllib.request

            with contextlib.suppress(Exception):
                urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/", timeout=30
                )

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        for _ in range(200):
            if server.in_flight() > 0:
                break
            time.sleep(0.01)
        assert server.drain(timeout=0.1) is False  # handler still busy
        thread.join(timeout=10)

    def test_server_close_is_idempotent_after_drain(self):
        server, _ = self._start(delay=0.0)
        assert server.drain(timeout=5.0)
        server.server_close()  # second close must be a no-op


# ----------------------------------------------------------------------
# Tier-1 smoke: a real 2-replica cluster on ephemeral ports
# ----------------------------------------------------------------------


def _cluster_config(scenarios, instance, **overrides) -> ClusterConfig:
    defaults = dict(
        instances={name: instance for name in scenarios},
        replicas=2,
        workers=1,
        round_size=60,
        heartbeat_interval=0.2,
        heartbeat_timeout=1.0,
        restart_policy=RetryPolicy(
            max_attempts=4, base_delay=0.2, max_delay=2.0, jitter=0.0, seed=0
        ),
    )
    defaults.update(overrides)
    specs = {name: _spec(name) for name in scenarios}
    return ClusterConfig(specs, **defaults)


def test_two_replica_cluster_smoke():
    """Spawn 2 replicas, route both scenarios, verify status, drain."""
    config = _cluster_config(("alpha", "beta"), _instance())
    with ServingCluster(config) as cluster:
        host, port = cluster.router_address
        generator = LoadGenerator(host, port)
        result = generator.run_phase(
            LoadPhase(
                "smoke",
                [
                    {"scenario": "alpha", "budget": 3},
                    {"scenario": "beta", "budget": 3},
                    {"scenario": "alpha", "budget": 3},
                ],
                clients=3,
            )
        )
        golden = result.golden()  # zero errors, zero non-200s
        assert len(golden) == 2  # two distinct queries
        for body in golden.values():
            assert json.loads(body)["num_samples"] == 60
        endpoints = cluster.supervisor.endpoints()
        assert len(endpoints) == 2
        assert all(e.healthy for e in endpoints)
        assert len({e.port for e in endpoints}) == 2
        status = cluster.router_app.status()
        assert status["requests"]["routed"] == 3
        assert status["requests"]["failed"] == 0
    # Exiting the context drained the router and reaped the replicas.
    for state in cluster.supervisor._replicas.values():
        assert not state.process.is_alive()


# ----------------------------------------------------------------------
# Kill-and-failover floor (slow lane)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_replica_kill_under_load_is_client_invisible():
    """SIGKILL a replica mid-flood: zero client-visible errors, answers
    byte-identical to the fault-free phase, victim restarted within the
    policy's backoff bound."""
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.2, max_delay=2.0, jitter=0.0, seed=0
    )
    config = _cluster_config(
        ("alpha", "beta"),
        _instance(),
        replicas=3,
        restart_policy=policy,
    )
    queries = [
        {"scenario": ("alpha", "beta")[i % 2], "budget": 3 + (i % 2)}
        for i in range(40)
    ]
    with ServingCluster(config) as cluster:
        supervisor = cluster.supervisor
        host, port = cluster.router_address
        generator = LoadGenerator(host, port)
        victim = assign_replica(
            "alpha", [e.replica_id for e in supervisor.endpoints()]
        )
        clean = generator.run_phase(
            LoadPhase("clean", queries, clients=40)
        )
        killed = generator.run_phase(
            LoadPhase(
                "kill",
                queries,
                clients=40,
                chaos=lambda: supervisor.kill_replica(victim),
                chaos_after=5,
            )
        )
        assert killed.golden() == clean.golden()  # and zero errors
        # The victim must come back within the policy's schedule plus
        # replica startup; poll the supervisor's view until it does.
        bound = sum(policy.delays()) + config.startup_timeout
        deadline = time.monotonic() + bound
        while time.monotonic() < deadline:
            health = {
                e.replica_id: e.healthy for e in supervisor.endpoints()
            }
            if health.get(victim):
                break
            time.sleep(0.1)
        assert health.get(victim), supervisor.restart_log
        entries = [
            e
            for e in supervisor.restart_log
            if e["replica_id"] == victim and e["healthy_at"] is not None
        ]
        assert entries
        final = entries[-1]
        # Backoff honoured: the respawn waited at least its delay.
        assert (
            final["respawn_at"] - final["detected_at"]
            >= policy.delay_for(final["attempt"]) * 0.99
        )
        assert cluster.router_app.counters["failovers"] >= 1
