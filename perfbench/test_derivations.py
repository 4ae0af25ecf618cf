"""Checks of the benchmark's own derivations.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_derivations.py -q

Covers the tail-percentile rule, self-time subtraction on synthetic
span trees (including one stitched across router and replica the way a
traced serving run is), ``Server-Timing`` parsing, ``VmHWM`` summing,
leaked-process detection and the scaling of round times to the
reference speed.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import ledger  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from repro.serving.loadgen import percentile as loadgen_percentile  # noqa: E402


class TestTailPercentile:
    def test_examples(self):
        assert ledger.tail_percentile(40) == 75.0
        assert ledger.beyond(40, 75.0) == 10
        assert ledger.tail_percentile(20) is None  # p75 leaves only 5
        assert ledger.tail_percentile(1000) == 99.0  # rank 990
        assert ledger.tail_percentile(900) == 98.0  # p99 leaves only 9

    def test_highest_rung_with_ten_beyond(self):
        for n in range(1, 5000):
            q = ledger.tail_percentile(n)
            higher = [r for r in ledger.TAIL_LADDER if q is None or r > q]
            assert all(ledger.beyond(n, r) < ledger.MIN_BEYOND for r in higher)
            if q is not None:
                assert q > 50
                assert ledger.beyond(n, q) >= ledger.MIN_BEYOND

    def test_rank_matches_loadgen_percentile(self):
        values = [float(v) for v in range(1, 138)]
        for q in (50, 75, 90, 95, 99, 99.9):
            rank = ledger.nearest_rank(len(values), q)
            assert values[rank - 1] == loadgen_percentile(values, q)


class TestSelfTimes:
    TREE = [
        ("root", None, "bench/request", 100.0),
        ("a", "root", "router/solve", 60.0),
        ("b", "root", "something/else", 30.0),
        ("c", "a", "router/forward", 50.0),
    ]

    def test_subtracts_children(self):
        assert ledger.self_times(self.TREE) == {
            "root": 10.0, "a": 10.0, "b": 30.0, "c": 50.0}

    def test_self_times_sum_to_the_root(self):
        assert sum(ledger.self_times(self.TREE).values()) == 100.0

    def test_missing_parent_makes_a_root(self):
        assert ledger.self_times([("x", "gone", "n", 5.0)]) == {"x": 5.0}

    def test_overlong_child_is_not_clipped(self):
        own = ledger.self_times([("p", None, "n", 10.0), ("c", "p", "n", 12.0)])
        assert own == {"p": -2.0, "c": 12.0}
        assert sum(own.values()) == 10.0

    def test_layer_ledger_groups_by_layer(self):
        assert ledger.layer_ledger(self.TREE, workloads.layer_of) == {
            "unattributed_ms": 40.0,  # the client root and an unknown span
            "router.self_ms": 10.0,
            "router.hop_ms": 50.0,
        }


def _span(span_id, parent, name, ms, **attrs):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "duration_seconds": ms / 1e3, "trace_id": "t1", "attrs": attrs}


class TestStitchedRequest:
    """A leader's trace: router spans, replica spans, Server-Timing."""

    SPANS = [
        _span("r.1", None, "router/solve", 50.0),
        _span("r.2", "r.1", "router/forward", 48.0),
        _span("q.1", "r.2", "serving/request", 7.9),
        _span("q.2", "q.1", "serving/compute", 6.0),
        _span("q.3", "q.2", "ubg/nu_arm", 2.0),
        _span("q.4", "q.2", "ubg/c_arm", 3.0),
    ]
    TIMING = "parse;dur=0.100, batch;dur=6.500, total;dur=8.000, router;dur=50.0"

    def _ledger(self, spans, timing, latency_ms):
        request = workloads.Request(
            query={}, seconds=latency_ms / 1e3, trace_id="t1",
            server_timing=timing)
        nodes = workloads.request_tree(
            request, spans, ledger.parse_server_timing(timing))
        return ledger.layer_ledger(nodes, workloads.layer_of)

    def test_layers_split_the_client_latency(self):
        layers = self._ledger(self.SPANS, self.TIMING, 52.0)
        expected = {
            "unattributed_ms": 2.0,  # client and front door
            "router.self_ms": 2.0,
            "router.hop_ms": 40.0,  # forward minus the replica total
            "server.request_ms": 1.4,  # total minus parse and batch
            "server.parse_ms": 0.1,
            "batching.self_ms": 0.5,  # batch minus the leader's compute
            "shards.compute_self_ms": 1.0,
            "select.ms": 5.0,
        }
        assert layers.keys() == expected.keys()
        for name, value in expected.items():
            assert layers[name] == pytest.approx(value)
        assert sum(layers.values()) == pytest.approx(52.0)

    def test_follower_batch_time_is_waiting(self):
        follower = [s for s in self.SPANS if s["span_id"] in ("r.1", "r.2", "q.1")]
        layers = self._ledger(follower, self.TIMING, 52.0)
        assert layers["batching.self_ms"] == pytest.approx(6.5)
        assert sum(layers.values()) == pytest.approx(52.0)


class TestServerTiming:
    def test_parses_the_serving_header(self):
        header = "parse;dur=0.005, batch;dur=0.095, total;dur=0.134, router;dur=42.460"
        assert ledger.parse_server_timing(header) == {
            "parse": 0.005, "batch": 0.095, "total": 0.134, "router": 42.46}

    def test_skips_entries_without_a_duration(self):
        header = 'cache, miss;desc="cold", total;dur="1.5"'
        assert ledger.parse_server_timing(header) == {"total": 1.5}

    def test_empty(self):
        assert ledger.parse_server_timing(None) == {}
        assert ledger.parse_server_timing("") == {}


STATUS = "Name:\tpython3\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nVmRSS:\t 10000 kB\n"


class TestVmHWM:
    def test_parses_the_status_line(self):
        assert ledger.parse_vmhwm_kb(STATUS) == 12288

    def test_missing_line_raises(self):
        with pytest.raises(ValueError):
            ledger.parse_vmhwm_kb("Name:\tpython3\n")

    def test_sums_each_pid_once(self):
        texts = {1: STATUS, 2: STATUS.replace("12288", "4096")}
        assert ledger.sum_vmhwm_mb([1, 2, 2], reader=texts.__getitem__) == 16.0

    def test_reads_this_process(self):
        assert ledger.sum_vmhwm_mb([os.getpid()]) > 0


class TestLeakedProcesses:
    def test_children_and_replica_groups_count(self):
        table = [
            {"pid": 100, "state": "S", "ppid": 1, "pgid": 100},  # the owner
            {"pid": 150, "state": "S", "ppid": 100, "pgid": 100},  # helper
            {"pid": 160, "state": "Z", "ppid": 100, "pgid": 160},  # reaped
            {"pid": 170, "state": "S", "ppid": 100, "pgid": 170},  # child
            {"pid": 201, "state": "R", "ppid": 1, "pgid": 200},  # sampler
            {"pid": 300, "state": "S", "ppid": 1, "pgid": 300},  # unrelated
        ]
        assert ledger.leaked_processes(
            table, owner=100, groups=[200], allowed=[150]) == [170, 201]

    def test_process_table_lists_this_process(self):
        pids = {row["pid"] for row in ledger.process_table()}
        assert os.getpid() in pids


REF = speed.REFERENCE_SECONDS


class TestSpeedScaling:
    def test_factor_is_reference_over_mean_of_neighbours(self):
        assert speed.factors([REF, REF, 2 * REF, 2 * REF]) == pytest.approx(
            [1.0, 2 / 3, 0.5])
        assert speed.factors([REF]) == []

    def test_rounds_scale_each_wall_by_its_own_factor(self, monkeypatch):
        probes = iter([REF, 3 * REF, REF])
        clock = iter([0.0, 1.0, 1.0, 3.0, 3.0])
        monkeypatch.setattr(speed, "probe", lambda: next(probes))
        monkeypatch.setattr(speed.time, "perf_counter", lambda: next(clock))
        rounds = speed.Rounds()
        for _ in range(3):
            rounds.boundary()
        assert rounds.walls == [1.0, 2.0]
        assert rounds.factors() == pytest.approx([0.5, 0.5])
        assert rounds.scaled_elapsed() == pytest.approx(1.5)

    def test_recorded_latency_uses_the_round_of_each_operation(self):
        rounds = speed.Rounds()
        rounds.probes = [REF, REF, REF / 2, REF / 2]
        rounds.walls = [1.0, 1.0, 1.0]
        outcome = workloads.Outcome()
        seconds = [0.1] * 30 + [0.2] * 30 + [0.4] * 30
        round_of = [0] * 30 + [1] * 30 + [2] * 30
        workloads.record_latency(outcome, 80.0, seconds, elapsed=0.0,
                                 rounds=rounds, round_of=round_of)
        # Factors 1, 4/3 and 2: scaled times 0.1, 0.2667 and 0.8 s.
        assert outcome.metrics["latency_p50_ms"][0] == pytest.approx(800 / 3)
        assert outcome.metrics["latency_tail_ms"][0] == pytest.approx(800.0)
        assert outcome.metrics["throughput_rps"][0] == pytest.approx(
            90 / (1.0 + 4 / 3 + 2.0))

    def test_probe_takes_cpu_time(self):
        assert speed.probe() > 0
