"""Regression tests for the serving-layer concurrency sweep.

Each test pins one of the bugs found while putting a long-lived server
on top of the sampling/coverage/persistence layers:

- a pool grown in top-up rounds, as a shard grows it, indexing exactly
  what one grow of the same size does;
- ``read_jsonl`` racing a live ``JsonlSink`` writer (a partially
  flushed last line must be skipped, never mis-parsed);
- ``Deadline`` re-anchoring its monotonic expiry when pickled to a
  spawned worker process.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.obs.sinks import JsonlSink, read_jsonl
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.retry import Deadline


def _make_pool(seed: int, graph, blocks) -> RICSamplePool:
    communities = CommunityStructure(
        [
            Community(members=tuple(block), threshold=2, benefit=float(len(block)))
            for block in blocks
        ]
    )
    return RICSamplePool(RICSampler(graph, communities, seed=seed))


# ----------------------------------------------------------------------
# Satellite 1: grow in top-up rounds
# ----------------------------------------------------------------------


class TestTopUpCycle:
    def test_estimates_match_a_pool_grown_at_once(self, planted_instance):
        graph, blocks = planted_instance
        cycled = _make_pool(5, graph, blocks)
        plain = _make_pool(5, graph, blocks)
        for _ in range(4):
            cycled.grow(40)
        plain.grow(160)
        seeds = sorted(plain.touching_nodes())[:4]
        assert cycled.estimate_benefit(seeds) == plain.estimate_benefit(seeds)
        assert cycled.estimate_upper_bound(seeds) == plain.estimate_upper_bound(seeds)
        for node in plain.touching_nodes():
            assert list(cycled.mask_index[node].items()) == list(
                plain.mask_index[node].items()
            )


# ----------------------------------------------------------------------
# Satellite 2: read_jsonl racing a live JsonlSink writer
# ----------------------------------------------------------------------


class TestReadJsonlLiveTail:
    def test_unterminated_tail_skipped_even_if_prefix_parses(self, tmp_path):
        path = tmp_path / "live.jsonl"
        # The writer's record will be "22" but only "2" has been
        # flushed — the partial line *parses* (as 2), which is exactly
        # why parse-success must not be the completeness test.
        path.write_text('{"a": 1}\n2', encoding="utf-8")
        assert read_jsonl(str(path)) == [{"a": 1}]

    def test_unterminated_garbage_tail_does_not_raise(self, tmp_path):
        path = tmp_path / "live.jsonl"
        path.write_text('{"a": 1}\n{"b": ', encoding="utf-8")
        assert read_jsonl(str(path)) == [{"a": 1}]

    def test_tail_promoted_once_newline_lands(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"a": 1}\n{"b": 2')
            fh.flush()
            assert read_jsonl(str(path)) == [{"a": 1}]
            fh.write("2}\n")
            fh.flush()
            assert read_jsonl(str(path)) == [{"a": 1}, {"b": 22}]

    def test_live_sink_reader_sees_complete_prefix(self, tmp_path):
        path = tmp_path / "sink.jsonl"
        with JsonlSink(str(path)) as sink:
            for i in range(5):
                sink.write({"i": i})
                records = read_jsonl(str(path))
                assert records == [{"i": j} for j in range(i + 1)]

    def test_malformed_interior_line_still_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(str(path))


# ----------------------------------------------------------------------
# Satellite 3: Deadline must re-anchor across pickling
# ----------------------------------------------------------------------


class TestDeadlinePickle:
    def test_remaining_budget_survives_roundtrip(self):
        deadline = Deadline(30.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert 29.0 < clone.remaining() <= 30.0
        assert not clone.expired()

    def test_never_survives_roundtrip(self):
        clone = pickle.loads(pickle.dumps(Deadline.never()))
        assert clone.remaining() == float("inf")
        assert not clone.expired()

    def test_foreign_monotonic_epoch_is_discarded(self):
        # A clock whose epoch is nowhere near this process's
        # time.monotonic stands in for the *other process* in the bug:
        # shipping the raw anchor would make the deadline expire ~1e9
        # seconds in the future (or the past). Re-anchoring must keep
        # only the remaining budget.
        deadline = Deadline(10.0, clock=lambda: 1.0e9)
        clone = pickle.loads(pickle.dumps(deadline))
        assert 9.0 < clone.remaining() <= 10.0

    def test_expired_deadline_stays_expired(self):
        deadline = Deadline(5.0, clock=lambda: 1.0e9)
        deadline._expires_at = 1.0e9 - 1.0  # already 1s past due
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expired()
        assert clone.remaining() <= -0.9

    @pytest.mark.fault
    def test_roundtrip_into_spawned_worker(self):
        import concurrent.futures
        import multiprocessing

        deadline = Deadline(60.0)
        ctx = multiprocessing.get_context("spawn")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=1, mp_context=ctx
        ) as pool:
            remaining = pool.submit(_remaining_in_worker, deadline).result(
                timeout=60
            )
        # A spawned interpreter has its own monotonic epoch; the
        # re-anchored deadline must still measure ~60s, not the
        # difference of two unrelated clocks.
        assert 0.0 < remaining <= 60.0
        assert remaining > 30.0


def _remaining_in_worker(deadline: Deadline) -> float:
    return deadline.remaining()
