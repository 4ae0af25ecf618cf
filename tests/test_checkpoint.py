"""Crash-safe suite checkpointing: atomicity, resume, determinism."""

import json
import os

import pytest

from repro.errors import ExperimentError
from repro.experiments.checkpoint import (
    CheckpointStore,
    ResumeReport,
    as_checkpoint,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_suite

CONFIG = ExperimentConfig(scale=0.05, pool_size=120, eval_trials=30)
ALGOS = ["MAF", "Degree", "Random"]
KS = [3]


def _sig(runs):
    """Results minus wall-clock (never reproducible across sessions)."""
    return {
        name: [(r.algorithm, r.k, r.seeds, r.benefit) for r in rs]
        for name, rs in runs.items()
    }


# ------------------------------------------------------------ store


def test_store_roundtrip_and_atomic_file(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    store = CheckpointStore(path)
    store.record("a", {"x": 1})
    store.record("b", [1, 2, 3])
    assert "a" in store and "b" in store and len(store) == 2
    assert not os.path.exists(f"{path}.tmp")  # temp replaced, not left
    reloaded = CheckpointStore(path)
    assert reloaded.get("a") == {"x": 1}
    assert reloaded.get("b") == [1, 2, 3]


def test_store_resume_false_discards_existing(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    CheckpointStore(path).record("a", 1)
    fresh = CheckpointStore(path, resume=False)
    assert len(fresh) == 0
    assert not os.path.exists(path)  # discarded until first record


def test_store_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    store = CheckpointStore(path)
    store.record("a", 1)
    store.record("b", 2)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "c", "payl')  # crash mid-write
    recovered = CheckpointStore(path)
    assert sorted(recovered.keys()) == ["a", "b"]


def test_store_rejects_earlier_corruption_naming_path(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not json\n")
        fh.write(json.dumps({"key": "a", "payload": 1}) + "\n")
    with pytest.raises(ExperimentError, match="ckpt.jsonl"):
        CheckpointStore(path)


def test_store_get_unknown_key_errors(tmp_path):
    store = CheckpointStore(tmp_path / "ckpt.jsonl")
    with pytest.raises(ExperimentError, match="missing"):
        store.get("missing")


def test_report_tracks_skipped_and_computed(tmp_path):
    path = tmp_path / "ckpt.jsonl"
    CheckpointStore(path).record("old", 1)
    store = CheckpointStore(path)
    store.get("old")
    store.record("new", 2)
    report = store.report()
    assert isinstance(report, ResumeReport)
    assert report.skipped == ("old",)
    assert report.computed == ("new",)
    assert report.num_skipped == 1 and report.num_computed == 1
    assert "1 skipped" in report.summary()


def test_as_checkpoint_coercions(tmp_path):
    assert as_checkpoint(None) is None
    store = CheckpointStore(tmp_path / "a.jsonl")
    assert as_checkpoint(store) is store
    built = as_checkpoint(tmp_path / "b.jsonl")
    assert isinstance(built, CheckpointStore)


# ------------------------------------------------------------ run_suite


def test_suite_checkpoint_resume_is_deterministic(tmp_path):
    path = tmp_path / "suite.jsonl"
    reference = run_suite(CONFIG, ALGOS, KS)

    # Simulate a crash after the first two completed runs.
    class Boom(Exception):
        pass

    store = CheckpointStore(path)
    original_record = store.record
    calls = []

    def crashing_record(key, payload):
        original_record(key, payload)
        calls.append(key)
        if len(calls) == 2:
            raise Boom

    store.record = crashing_record
    with pytest.raises(Boom):
        run_suite(CONFIG, ALGOS, KS, checkpoint=store)

    # Resume: completed runs come from disk, the rest recompute to the
    # exact same seeds/benefits an uninterrupted session produces.
    resumed_store = CheckpointStore(path)
    resumed = run_suite(CONFIG, ALGOS, KS, checkpoint=resumed_store)
    report = resumed_store.report()
    assert report.num_skipped == 2
    assert report.num_computed == len(ALGOS) * len(KS) - 2
    assert _sig(resumed) == _sig(reference)


def test_suite_full_checkpoint_recomputes_nothing(tmp_path):
    path = tmp_path / "suite.jsonl"
    first = run_suite(CONFIG, ALGOS, KS, checkpoint=path)
    store = CheckpointStore(path)
    second = run_suite(CONFIG, ALGOS, KS, checkpoint=store)
    assert store.report().num_computed == 0
    assert store.report().num_skipped == len(ALGOS) * len(KS)
    assert _sig(first) == _sig(second)
