"""Shard-server tests: scenarios, batching, shards, eviction, HTTP.

Synthetic instances are injected through ``ShardStore(instances=...)``
so little dataset building happens (the run-count test builds the
benchmark's small ``fb0`` scenario); pools are kept small. The crash test
(``fault`` marker) kills a real shard worker mid-request and proves the
answer is byte-identical to a fault-free run; the 200-client load floor
lives under the ``slow`` marker.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.ubg import UBG
from repro.errors import ServingError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs.diagnostics import (
    ConvergenceMonitor,
    benefit_interval,
    pool_memory_bytes,
)
from repro.obs.sinks import JsonlSink
from repro.serving import (
    ReplicaEndpoint,
    RequestBatcher,
    RouterApp,
    ScenarioSpec,
    ShardApp,
    ShardHTTPServer,
    ShardStore,
    WarmShard,
    build_instance,
    start_http_server,
)
from repro.serving.server import listen
from repro.utils.faults import Fault, FaultInjector

from tests.test_prop_greedy_runs import counting_engine_calls

pytestmark = pytest.mark.serve


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
    return graph, communities


def _spec(name: str = "planted", **kwargs) -> ScenarioSpec:
    defaults = dict(dataset="facebook", seed=99, pool_size=120)
    defaults.update(kwargs)
    return ScenarioSpec(name=name, **defaults)


#: More threads than cores, for the stress tests.
STRESS_THREADS = max(4, 2 * (os.cpu_count() or 1))


def _store(**kwargs) -> ShardStore:
    spec = _spec()
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("round_size", 60)
    return ShardStore(
        {spec.name: spec},
        instances={spec.name: _instance()},
        **kwargs,
    )


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------


class TestScenarioSpec:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ServingError, match="unknown dataset"):
            ScenarioSpec(name="x", dataset="not-a-dataset")

    def test_bad_threshold_rejected(self):
        with pytest.raises(ServingError, match="threshold"):
            ScenarioSpec(name="x", dataset="facebook", threshold="huge")

    def test_bad_instance_fields_rejected_at_construction(self):
        # Each used to pass here and fail only at the scenario's first
        # /solve, inside the replica (a NaN scale as a bare ValueError).
        for field, value in (
            ("scale", 0.0),
            ("scale", -1.0),
            ("scale", float("nan")),
            ("size_cap", 0),
            ("model", "foo"),
        ):
            with pytest.raises(ServingError, match=f"'x' {field}"):
                ScenarioSpec(name="x", dataset="facebook", **{field: value})

    def test_describe_is_json_ready(self):
        spec = _spec()
        assert json.loads(json.dumps(spec.describe()))["name"] == "planted"


# ----------------------------------------------------------------------
# Request batching
# ----------------------------------------------------------------------


class TestRequestBatcher:
    def test_concurrent_identical_requests_share_one_compute(self):
        batcher = RequestBatcher()
        gate = threading.Event()
        computes = []
        results = []

        def compute():
            gate.wait(timeout=10)
            computes.append(1)
            return "answer"

        def client():
            results.append(batcher.run("key", compute))

        threads = [threading.Thread(target=client) for _ in range(8)]
        for t in threads:
            t.start()
        # Wait until every thread has joined the flight, then open it.
        deadline = threading.Event()
        for _ in range(200):
            if batcher.in_flight() == 1:
                break
            deadline.wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(computes) == 1
        assert all(value == "answer" for value, _ in results)
        leaders = [leader for _, leader in results]
        assert leaders.count(True) == 1
        assert leaders.count(False) == 7

    def test_distinct_keys_do_not_batch(self):
        batcher = RequestBatcher()
        a, leader_a = batcher.run("a", lambda: 1)
        b, leader_b = batcher.run("b", lambda: 2)
        assert (a, b) == (1, 2)
        assert leader_a and leader_b

    def test_sequential_requests_recompute(self):
        batcher = RequestBatcher()
        calls = []
        for _ in range(3):
            _, leader = batcher.run("k", lambda: calls.append(1))
            assert leader
        assert len(calls) == 3

    def test_leader_error_propagates_to_followers(self):
        batcher = RequestBatcher()
        gate = threading.Event()
        errors = []

        def compute():
            gate.wait(timeout=10)
            raise ValueError("boom")

        def client():
            try:
                batcher.run("key", compute)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        for _ in range(200):
            if batcher.in_flight() == 1:
                break
            threading.Event().wait(0.01)
        gate.set()
        for t in threads:
            t.join(timeout=10)
        assert len(errors) == 4
        assert batcher.in_flight() == 0


# ----------------------------------------------------------------------
# Warm shards
# ----------------------------------------------------------------------


class TestWarmShard:
    def test_merge_rounds_bump_version_and_bound_growth(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(), graph, communities, workers=1, round_size=50
        )
        with shard.lock:
            shard.ensure_target(120)
        assert len(shard.pool) == 120
        assert shard.version == 3  # ceil(120 / 50) synchronous rounds
        assert shard.bytes > 0
        # The footprint was measured after the last round, mask index
        # included, and solving adds nothing the budget misses.
        with shard.lock:
            shard.solve(3)
            assert pool_memory_bytes(shard.pool) == shard.bytes
        shard.close()

    def test_solve_caches_per_version(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(), graph, communities, workers=1, round_size=60
        )
        with shard.lock:
            shard.warm()
            first, hit_first = shard.solve(4)
            second, hit_second = shard.solve(4)
            assert not hit_first and hit_second
            assert second == first
            # Growth invalidates: same query recomputes on new version.
            shard.ensure_target(len(shard.pool) + 30)
            third, hit_third = shard.solve(4)
            assert not hit_third
            assert third["pool_version"] > first["pool_version"]
        shard.close()

    def test_growth_drops_older_answers(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(), graph, communities, workers=1, round_size=60
        )
        with shard.lock:
            shard.warm()
            _, hit_first = shard.solve(4)
            shard.ensure_target(len(shard.pool) + 30)
            fifth, hit_fifth = shard.solve(5)
            assert not hit_first and not hit_fifth
            # Budget 4's answer belonged to the older version.
            assert shard.describe()["cached_solves"] == 1
            again, hit_again = shard.solve(5)
            assert hit_again and again == fifth
        shard.close()

    def test_budgets_on_one_version_cost_one_run(self):
        """Budgets 1..40 in any order make the engine calls of one fresh
        UBG at budget 40 (3,332 on fb0; solving every budget from the
        empty seed set made 72,021)."""
        spec = ScenarioSpec(
            name="fb0", dataset="facebook", scale=0.2, seed=100,
            pool_size=600,
        )
        graph, communities = build_instance(spec)
        shard = WarmShard(spec, graph, communities, workers=1)
        budgets = list(range(1, 41))
        random.Random(5).shuffle(budgets)
        with shard.lock:
            shard.warm()
            with counting_engine_calls() as served:
                for k in budgets:
                    shard.solve(k)
        with counting_engine_calls() as fresh:
            UBG().solve(shard.pool, 40)
        shard.close()
        assert served[0] == fresh[0] > 0

    def test_concurrent_budgets_answer_like_fresh_shards(self):
        budgets = list(range(1, 9)) + [2, 3, 5, 5]
        graph, communities = _instance()
        expected = {}
        for k in set(budgets):
            fresh = WarmShard(
                _spec(), graph, communities, workers=1, round_size=60
            )
            with fresh.lock:
                expected[k], _ = fresh.solve(k)
            fresh.close()
        app = ShardApp(_store())
        answers, errors = [], []
        stop_at = time.monotonic() + 20.0

        def client(index):
            order = list(budgets)
            random.Random(index).shuffle(order)
            for k in order:
                if time.monotonic() > stop_at:
                    return
                try:
                    answer = app.solve({"scenario": "planted", "budget": k})
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                else:
                    answers.append((k, answer))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(STRESS_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            app.close()
        assert not errors
        assert answers
        for k, answer in answers:
            answer = dict(answer)
            del answer["batched"], answer["cache_hit"]
            assert answer == expected[k]

    def test_solve_matches_offline_pipeline(self):
        from repro.core.ubg import UBG
        from repro.sampling.ric import RICSampler
        from repro.sampling.pool import RICSamplePool

        spec = _spec()
        graph, communities = _instance()
        shard = WarmShard(spec, graph, communities, workers=1, round_size=60)
        with shard.lock:
            shard.warm()
            served, _ = shard.solve(5)
        shard.close()
        pool = RICSamplePool(
            RICSampler(
                graph, communities, seed=spec.seed, model=spec.model, workers=1
            )
        )
        pool.grow(spec.pool_size)
        selection = UBG().solve(pool, 5)
        assert served["seeds"] == sorted(selection.seeds)
        assert served["objective"] == pool.estimate_benefit(selection.seeds)
        assert served["num_samples"] == spec.pool_size

    def test_bad_requests_rejected(self):
        graph, communities = _instance()
        shard = WarmShard(_spec(), graph, communities, workers=1)
        with shard.lock:
            shard.ensure_target(20)
            with pytest.raises(ServingError, match="budget"):
                shard.solve(0)
            with pytest.raises(ServingError, match="unknown solver"):
                shard.solve(2, solver_name="Oracle")
        shard.close()

    def test_oversize_budget_rejected_before_any_growth(self):
        graph, communities = _instance()
        shard = WarmShard(_spec(), graph, communities, workers=1)
        n = graph.num_nodes
        with shard.lock:
            with pytest.raises(ServingError, match=f"n={n}"):
                shard.solve(n + 1)
            assert len(shard.pool) == 0  # a cold shard stays cold
            shard.warm()
            size = len(shard.pool)
            with pytest.raises(ServingError, match=f"n={n}"):
                shard.solve(100_000)
            assert len(shard.pool) == size
            answer, _ = shard.solve(n)
            assert len(answer["seeds"]) <= n
        shard.close()

    def test_ci_width_tops_up_the_pool(self):
        graph, communities = _instance()
        shard = WarmShard(
            _spec(pool_size=40), graph, communities, workers=1, round_size=40
        )
        with shard.lock:
            shard.warm()
            loose, _ = shard.solve(3)
            tight, _ = shard.solve(3, ci_width=0.04)
        shard.close()
        assert tight["num_samples"] > loose["num_samples"]
        assert tight["num_samples"] <= 40 * 4
        if tight["ci_relative_width"] is not None:
            assert (
                tight["ci_relative_width"] <= 0.04
                or tight["num_samples"] == 40 * 4
            )

    def test_topup_and_monitor_report_one_interval(self):
        # The shard's ci_width answer and IMCAF's convergence monitor
        # bound ĉ(S) with the same benefit_interval, to the last bit.
        graph, communities = _instance()
        shard = WarmShard(
            _spec(pool_size=40), graph, communities, workers=1, round_size=40
        )
        with shard.lock:
            shard.warm()
            answer, _ = shard.solve(3, ci_width=0.15)
            pool, seeds = shard.pool, answer["seeds"]
            influenced = pool.influenced_count(seeds)
            interval = benefit_interval(
                pool.total_benefit, influenced, len(pool)
            )
            monitor = ConvergenceMonitor()
            monitor.observe_stage(pool, seeds, influenced)
        shard.close()
        served = (
            answer["objective"],
            answer["ci_halfwidth"],
            answer["ci_relative_width"],
        )
        point = monitor.trajectory[-1]
        observed = (
            point["estimate"],
            point["halfwidth"],
            point["relative_width"],
        )
        assert answer["num_samples"] == len(pool) > 40  # topped up
        assert served == interval == observed
        assert interval[1] > 0


# ----------------------------------------------------------------------
# Shard store: accounting and eviction
# ----------------------------------------------------------------------


class TestShardStore:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("round_size", 0),
            ("round_size", float("nan")),
            ("memory_budget_bytes", 0),
        ],
    )
    def test_rejects_settings_every_request_would_fail(self, field, value):
        # workers=0 and round_size=0 used to build a store whose every
        # /solve answered 400.
        with pytest.raises(ServingError, match=f"{field} must be >= 1"):
            _store(**{field: value})

    def test_default_workers_are_all_cores(self):
        # serve's documented default: the shard resolves workers=None to
        # every core; the sampler's own default is one process. Not
        # warmed, so the test starts no worker process on a large host.
        store = _store(workers=None)
        try:
            assert store.get("planted").sampler.workers == (
                os.cpu_count() or 1
            )
        finally:
            store.close()

    def test_hit_miss_accounting(self):
        store = _store()
        try:
            store.get("planted")
            store.get("planted")
            assert store.counters == {"hits": 1, "misses": 1, "evictions": 0}
            with pytest.raises(ServingError, match="unknown scenario"):
                store.get("nope")
        finally:
            store.close()

    def test_eviction_under_byte_budget(self):
        specs = {
            name: _spec(name, pool_size=60) for name in ("a", "b", "c")
        }
        instance = _instance()
        store = ShardStore(
            specs,
            instances={name: instance for name in specs},
            workers=1,
            round_size=60,
            memory_budget_bytes=1,  # everything evictable is over budget
        )
        try:
            for name in ("a", "b", "c"):
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
            evicted = store.evict_to_budget(protect="c")
            assert set(evicted) == {"a", "b"}  # oldest first, c protected
            assert store.counters["evictions"] == 2
            # Re-requesting an evicted shard rebuilds it (a miss).
            misses = store.counters["misses"]
            store.get("a")
            assert store.counters["misses"] == misses + 1
        finally:
            store.close()

    def test_busy_shards_skipped_by_evictor(self):
        specs = {name: _spec(name, pool_size=40) for name in ("a", "b")}
        instance = _instance()
        store = ShardStore(
            specs,
            instances={name: instance for name in specs},
            workers=1,
            round_size=40,
            memory_budget_bytes=1,
        )
        try:
            for name in ("a", "b"):
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
            busy = store.get("a")
            held = threading.Event()
            release = threading.Event()

            def hold_lock():
                with busy.lock:
                    held.set()
                    release.wait(timeout=10)

            holder = threading.Thread(target=hold_lock)
            holder.start()
            held.wait(timeout=10)
            evicted = store.evict_to_budget()
            release.set()
            holder.join(timeout=10)
            assert evicted == ["b"]  # "a" was mid-request: skipped
        finally:
            store.close()

    def test_concurrent_evictions_count_every_eviction(self):
        names = [f"s{i}" for i in range(40)]
        instance = _instance()
        store = ShardStore(
            {name: _spec(name) for name in names},
            instances={name: instance for name in names},
            workers=1,
            memory_budget_bytes=1,
        )
        evicted = []
        stop_at = time.monotonic() + 5.0
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                if time.monotonic() > stop_at:
                    break
                # The evictor reads only a shard's bytes, stamp and
                # lock, so the shards need no pool.
                for name in names:
                    store.get(name).bytes = 1
                barrier = threading.Barrier(STRESS_THREADS)

                def evict():
                    barrier.wait(timeout=10)
                    evicted.extend(store.evict_to_budget())

                threads = [
                    threading.Thread(target=evict)
                    for _ in range(STRESS_THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            store.close()
        assert evicted
        assert store.counters["evictions"] == len(evicted)

    def test_closed_store_refuses_requests(self):
        store = _store()
        store.close()
        with pytest.raises(ServingError, match="closed"):
            store.get("planted")

    def test_evicted_scenario_keeps_its_instance(self, monkeypatch):
        builds = []

        def build(spec):
            builds.append(spec.name)
            return _instance()

        monkeypatch.setattr("repro.serving.shards.build_instance", build)
        specs = {name: _spec(name, pool_size=60) for name in ("a", "b")}
        store = ShardStore(
            specs, workers=1, round_size=60, memory_budget_bytes=1
        )
        try:
            first = store.get("a")
            with first.lock:
                answer, _ = first.solve(3)
            store.get("b")
            assert store.evict_to_budget(protect="b") == ["a"]
            again = store.get("a")
            assert again is not first
            # Eviction dropped the pool; the instance was kept.
            assert again.graph is first.graph
            assert again.communities is first.communities
            with again.lock:
                rebuilt, cache_hit = again.solve(3)
            assert not cache_hit
            assert rebuilt == answer
            assert builds == ["a", "b"]
            assert store.counters["misses"] == 3
        finally:
            store.close()

    def test_concurrent_misses_build_each_instance_once(self, monkeypatch):
        builds = []

        def build(spec):
            builds.append(spec.name)
            return _instance()

        monkeypatch.setattr("repro.serving.shards.build_instance", build)
        names = [f"s{i}" for i in range(8)]
        store = ShardStore(
            {name: _spec(name) for name in names},
            workers=1,
            memory_budget_bytes=1,
        )
        barrier = threading.Barrier(STRESS_THREADS)

        def client(index):
            rng = random.Random(index)
            barrier.wait(timeout=10)
            for _ in range(50):
                # The evictor reads only a shard's bytes, stamp and
                # lock, so the shards need no pool.
                store.get(rng.choice(names)).bytes = 1
                store.evict_to_budget()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(STRESS_THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            store.close()
        assert store.counters["evictions"] > 0
        assert store.counters["misses"] > len(set(builds))
        assert sorted(builds) == sorted(set(builds))

    def test_failed_build_is_not_kept(self, monkeypatch):
        builds = []

        def build(spec):
            builds.append(spec.name)
            if len(builds) == 1:
                raise ServingError("build failed")
            return _instance()

        monkeypatch.setattr("repro.serving.shards.build_instance", build)
        spec = _spec()
        store = ShardStore({spec.name: spec}, workers=1, round_size=60)
        try:
            with pytest.raises(ServingError, match="build failed"):
                store.get(spec.name)
            shard = store.get(spec.name)
            assert builds == [spec.name, spec.name]
            assert store.get(spec.name) is shard
            assert builds == [spec.name, spec.name]
        finally:
            store.close()


# ----------------------------------------------------------------------
# HTTP round trips
# ----------------------------------------------------------------------


def _post(port: int, path: str, payload: dict):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(port: int, path: str):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=60
    ) as response:
        return response.status, response.read()


@pytest.fixture
def served(tmp_path):
    """A shard server on an ephemeral port: ``(app, port, trace_path)``."""
    store = _store()
    trace_path = tmp_path / "trace.jsonl"
    app = ShardApp(store, trace_path=str(trace_path))
    server = start_http_server(app)
    yield app, server.server_address[1], trace_path
    server.shutdown()
    server.server_close()
    app.close()


class _FrontDoorTests:
    """Framing and error mapping, run against every front door.

    Each subclass supplies ``port``, where the front door under test
    listens: the shard server itself, or a router in front of it. Both are
    served by the same HTTP handler, so both must answer alike.
    """

    def test_error_mapping(self, port):
        assert _post(port, "/solve", {"scenario": "nope", "budget": 2})[0] == 404
        assert _post(port, "/solve", {"scenario": "planted"})[0] == 400
        assert _post(port, "/solve", {"scenario": "planted", "budget": 0})[0] == 400
        assert (
            _post(
                port,
                "/solve",
                {"scenario": "planted", "budget": 2, "solver": "Oracle"},
            )[0]
            == 400
        )
        # Error messages echo client input, so text that merely looks
        # like an unknown scenario must not turn a bad request into 404.
        assert (
            _post(
                port,
                "/solve",
                {"scenario": "planted", "budget": "unknown scenario"},
            )[0]
            == 400
        )
        assert (
            _post(
                port,
                "/solve",
                {
                    "scenario": "planted",
                    "budget": 2,
                    "solver": "unknown scenario",
                },
            )[0]
            == 400
        )
        assert _get(port, "/healthz")[0] == 200  # server still alive

    def test_missing_content_length_is_411(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 411
            assert "Content-Length" in body["error"]
        finally:
            conn.close()

    def test_oversized_content_length_is_413_without_reading(self, port):
        from repro.serving.server import MAX_BODY_BYTES

        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            # Declare a giant body but never send it: the server must
            # reject on the header alone, not block reading the body.
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 413
            assert "exceeds" in body["error"]
        finally:
            conn.close()

    def test_malformed_content_length_is_400(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.putrequest("POST", "/solve", skip_accept_encoding=True)
            conn.putheader("Content-Length", "banana")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_invalid_json_body_is_400_and_server_survives(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("POST", "/solve", body=b"{not json")
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()
        assert _get(port, "/healthz")[0] == 200


def test_an_unbindable_port_raises_the_bind_error():
    # A failed bind calls server_close() from inside the stdlib
    # constructor, which used to raise AttributeError instead.
    app = ShardApp(_store())
    try:
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(OSError):
                ShardHTTPServer(("127.0.0.1", port), app)
            with pytest.raises(ServingError, match="cannot listen on"):
                listen(app, "127.0.0.1", port)
        with pytest.raises(ServingError, match="cannot listen on"):
            listen(app, "127.0.0.1", 70000)
    finally:
        app.close()


class TestHTTPServer(_FrontDoorTests):
    @pytest.fixture
    def port(self, served):
        return served[1]

    def test_out_of_bound_queries_are_400_and_leave_the_pool(self, served):
        app, port, _ = served
        assert _post(port, "/solve", {"scenario": "planted", "budget": 3})[0] == 200
        shard = app.store.get("planted")
        size = len(shard.pool)
        # json.dumps writes NaN and Infinity as the bare tokens that
        # json.loads accepts, so these reach the parser as floats.
        for payload, bound in (
            ({"budget": 3, "ci_width": float("nan")}, "finite"),
            ({"budget": 3, "ci_width": float("inf")}, "finite"),
            ({"budget": 3, "ci_width": True}, "finite"),
            ({"budget": 3, "ci_width": 10**400}, "finite"),
            ({"budget": 100_000}, "exceeds the number of nodes"),
        ):
            status, answer = _post(
                port, "/solve", {"scenario": "planted", **payload}
            )
            assert status == 400
            assert bound in answer["error"]
            assert len(shard.pool) == size

    def test_healthz_and_metrics(self, served):
        _, port, _ = served
        status, body = _get(port, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}
        status, _ = _get(port, "/metrics")
        assert status == 200

    def test_solve_roundtrip_and_cache(self, served):
        _, port, _ = served
        status, first = _post(
            port, "/solve", {"scenario": "planted", "budget": 4}
        )
        assert status == 200
        assert first["num_samples"] == 120
        assert first["seeds"] == sorted(first["seeds"])
        assert not first["cache_hit"]
        status, second = _post(
            port, "/solve", {"scenario": "planted", "budget": 4}
        )
        assert status == 200
        assert second["cache_hit"]
        for field in ("seeds", "objective", "num_samples"):
            assert second[field] == first[field]

    def test_status_reads_live_trace_tail(self, served):
        app, port, trace_path = served
        with JsonlSink(str(trace_path)) as sink:
            sink.write({"name": "span-1"})
            # A torn in-flight record must not break /status.
            sink._handle.write('{"name": "half')
            sink._handle.flush()
            status, body = _get(port, "/status")
        assert status == 200
        payload = json.loads(body)
        assert payload["trace_tail"] == [{"name": "span-1"}]
        assert payload["scenarios"] == ["planted"]
        assert payload["requests"]["total"] == 0


class TestRouterFrontDoor(_FrontDoorTests):
    @pytest.fixture
    def port(self, served):
        _, port, _ = served
        replica = ReplicaEndpoint("r0", "127.0.0.1", port, True)
        router = RouterApp(lambda: [replica])
        server = start_http_server(router)
        yield server.server_address[1]
        server.shutdown()
        server.server_close()
        router.close_pools()


# ----------------------------------------------------------------------
# Crash mid-request: byte-identical answers
# ----------------------------------------------------------------------


@pytest.mark.fault
def test_worker_kill_mid_request_is_byte_identical():
    """A shard worker hard-killed during pool growth must not change
    the solve answer: the failed batch is re-dispatched with the same
    pre-drawn child seeds, so the rebuilt pool — and therefore seeds,
    objective and sample count — is byte-identical to a fault-free run.
    """
    spec = _spec(pool_size=48)
    instance = _instance()

    def serve_one(fault_injector):
        store = ShardStore(
            {spec.name: spec},
            instances={spec.name: instance},
            workers=2,
            round_size=48,
            fault_injector=fault_injector,
        )
        app = ShardApp(store)
        try:
            return app.solve({"scenario": spec.name, "budget": 4})
        finally:
            app.close()

    golden = serve_one(None)
    injector = FaultInjector(
        [Fault.kill_on("generate_batch", start=0, attempt=0)]
    )
    survived = serve_one(injector)
    for field in ("seeds", "objective", "num_samples"):
        assert survived[field] == golden[field], field


# ----------------------------------------------------------------------
# Load floor (slow lane)
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_load_floor_200_concurrent_clients():
    """The acceptance floor: >= 200 concurrent clients, zero dropped
    requests, every response deterministic-field-identical."""
    store = _store()
    app = ShardApp(store)
    server = start_http_server(app)
    port = server.server_address[1]
    results = []
    errors = []

    def client():
        try:
            results.append(
                _post(port, "/solve", {"scenario": "planted", "budget": 4})
            )
        except Exception as exc:  # noqa: BLE001 - counted as a drop
            errors.append(exc)

    try:
        threads = [threading.Thread(target=client) for _ in range(200)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors
        assert len(results) == 200
        assert all(status == 200 for status, _ in results)
        golden = results[0][1]
        for _, body in results:
            for field in ("seeds", "objective", "num_samples"):
                assert body[field] == golden[field]
    finally:
        server.shutdown()
        server.server_close()
        app.close()


# ----------------------------------------------------------------------
# Batching by exact ci_width
# ----------------------------------------------------------------------


class TestWidthCoalescing:
    def test_plain_and_ci_width_requests_use_separate_flights(self):
        store = _store()
        app = ShardApp(store)
        keys = []
        original = app.batcher.run

        def spy(key, compute):
            keys.append(key)
            return original(key, compute)

        app.batcher.run = spy
        try:
            for width in (None, 0.3, 0.3, 0.05):
                payload = {"scenario": "planted", "budget": 4}
                if width is not None:
                    payload["ci_width"] = width
                app.solve(payload)
        finally:
            app.close()
        # The group key is the exact width: only identical requests
        # share a flight, so no request is stretched by another's.
        assert keys == [
            ("planted", 4, "UBG", None),
            ("planted", 4, "UBG", 0.3),
            ("planted", 4, "UBG", 0.3),
            ("planted", 4, "UBG", 0.05),
        ]
        assert len(set(keys)) == 3

    def test_concurrent_mixed_widths_each_answered_at_own_precision(self):
        store = _store()
        app = ShardApp(store)
        widths = [None, 0.3, 0.05, None, 0.05, 0.3]
        responses = [None] * len(widths)
        barrier = threading.Barrier(len(widths))

        def client(index, width):
            payload = {"scenario": "planted", "budget": 4}
            if width is not None:
                payload["ci_width"] = width
            barrier.wait(timeout=10)
            responses[index] = app.solve(payload)

        try:
            threads = [
                threading.Thread(target=client, args=(i, w))
                for i, w in enumerate(widths)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert all(r is not None for r in responses)
            for width, response in zip(widths, responses):
                # Pool growth stays within the adaptive ceiling.
                assert 120 <= response["num_samples"] <= 120 * 4
                if width is not None and (
                    response["ci_relative_width"] is not None
                ):
                    # The coalescing contract: every ci_width request
                    # is answered at its *own* precision (or the pool
                    # hit the cap, where no answer could do better).
                    assert (
                        response["ci_relative_width"] <= width
                        or response["pool_capped"]
                    )
        finally:
            app.close()
