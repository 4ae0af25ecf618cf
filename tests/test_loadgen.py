"""Load-harness tests: phases, golden extraction, chaos hook timing.

The HTTP-facing pieces run against an in-process shard server (tiny
synthetic instance, one worker); the :class:`PhaseResult` assertions
(error detection, duplicate-answer mismatch, volatile-field stripping)
are exercised on hand-built results so every failure branch is pinned
without needing a misbehaving server.
"""

from __future__ import annotations

import json

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.errors import ClusterError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.serving import (
    LoadGenerator,
    LoadPhase,
    PhaseResult,
    ScenarioSpec,
    ShardApp,
    ShardStore,
    start_http_server,
)
from repro.serving.loadgen import percentile

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
    return graph, communities


@pytest.fixture(scope="module")
def served():
    spec = ScenarioSpec(
        name="planted", dataset="facebook", seed=99, pool_size=60
    )
    store = ShardStore(
        {spec.name: spec},
        instances={spec.name: _instance()},
        workers=1,
        round_size=60,
    )
    app = ShardApp(store)
    server = start_http_server(app)
    yield server.server_address[1]
    server.shutdown()
    server.server_close()
    app.close()


class TestPercentile:
    def test_known_values(self):
        ordered = [float(i) for i in range(1, 101)]
        assert percentile(ordered, 50) == 50.0
        assert percentile(ordered, 95) == 95.0
        assert percentile(ordered, 99) == 99.0
        assert percentile(ordered, 100) == 100.0
        assert percentile([3.0], 50) == 3.0

    def test_validation(self):
        with pytest.raises(ClusterError, match="no samples"):
            percentile([], 50)
        with pytest.raises(ClusterError, match="percentile"):
            percentile([1.0], 101)


class TestLoadPhase:
    def test_validation(self):
        with pytest.raises(ClusterError, match="no queries"):
            LoadPhase("empty", [])
        with pytest.raises(ClusterError, match="client"):
            LoadPhase("none", [{"budget": 1}], clients=0)


class TestPhaseResult:
    def _result(self, responses, queries=None, errors=()):
        queries = queries or [{"q": i} for i in range(len(responses))]
        result = PhaseResult(phase="t", queries=queries)
        result.responses = responses
        result.latencies = [0.01 * (i + 1) for i in range(len(responses))]
        result.errors = list(errors)
        return result

    def test_golden_strips_volatile_fields(self):
        body_a = json.dumps(
            {"seeds": [1], "objective": 5.0, "batched": False,
             "cache_hit": False}
        ).encode()
        body_b = json.dumps(
            {"seeds": [1], "objective": 5.0, "batched": True,
             "cache_hit": True}
        ).encode()
        queries = [{"q": 0}, {"q": 0}]
        result = self._result(
            [(200, body_a), (200, body_b)], queries=queries
        )
        golden = result.golden()
        assert len(golden) == 1  # one distinct query
        assert b"batched" not in next(iter(golden.values()))

    def test_golden_raises_on_transport_errors(self):
        result = self._result([(200, b"{}")], errors=["boom"])
        with pytest.raises(ClusterError, match="transport"):
            result.golden()

    def test_golden_raises_on_non_200(self):
        result = self._result([(503, b'{"error": "down"}')])
        with pytest.raises(ClusterError, match="503"):
            result.golden()

    def test_golden_raises_on_deterministic_mismatch(self):
        queries = [{"q": 0}, {"q": 0}]
        result = self._result(
            [
                (200, json.dumps({"seeds": [1]}).encode()),
                (200, json.dumps({"seeds": [2]}).encode()),
            ],
            queries=queries,
        )
        with pytest.raises(ClusterError, match="two ways"):
            result.golden()

    def test_percentiles_come_from_latencies(self):
        result = self._result([(200, b"{}")] * 100)
        p = result.percentiles()
        assert p["p50"] <= p["p95"] <= p["p99"]
        assert p["p99"] == pytest.approx(0.99)


class TestLoadGenerator:
    def test_phase_round_trip_and_golden(self, served):
        generator = LoadGenerator("127.0.0.1", served)
        queries = [{"scenario": "planted", "budget": 3}] * 6
        result = generator.run_phase(
            LoadPhase("roundtrip", queries, clients=3)
        )
        assert result.statuses() == [200] * 6
        golden = result.golden()
        assert len(golden) == 1
        assert json.loads(next(iter(golden.values())))["num_samples"] == 60
        assert len(result.latencies) == 6
        assert result.duration_seconds > 0

    def test_error_statuses_are_collected_not_raised(self, served):
        generator = LoadGenerator("127.0.0.1", served)
        result = generator.run_phase(
            LoadPhase(
                "bad", [{"scenario": "nope", "budget": 3}], clients=1
            )
        )
        assert result.statuses() == [404]
        with pytest.raises(ClusterError, match="404"):
            result.golden()

    def test_chaos_fires_once_at_the_completion_threshold(self, served):
        fired = []
        generator = LoadGenerator("127.0.0.1", served)
        queries = [{"scenario": "planted", "budget": 3}] * 8
        result = generator.run_phase(
            LoadPhase(
                "chaos",
                queries,
                clients=2,
                chaos=lambda: fired.append(1),
                chaos_after=3,
            )
        )
        assert fired == [1]  # exactly once, despite 8 completions
        assert result.statuses() == [200] * 8

    def test_chaos_after_zero_fires_before_any_request(self, served):
        order = []
        generator = LoadGenerator("127.0.0.1", served)
        result = generator.run_phase(
            LoadPhase(
                "pre-chaos",
                [{"scenario": "planted", "budget": 3}],
                clients=1,
                chaos=lambda: order.append("chaos"),
                chaos_after=0,
            )
        )
        assert order == ["chaos"]
        assert result.statuses() == [200]

    def test_transport_failures_land_in_errors(self):
        import socket

        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead_port = sock.getsockname()[1]
        generator = LoadGenerator("127.0.0.1", dead_port, timeout=2)
        result = generator.run_phase(
            LoadPhase("dead", [{"scenario": "planted", "budget": 3}])
        )
        assert len(result.errors) == 1
        assert result.statuses() == [0]  # never answered
