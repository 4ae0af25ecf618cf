"""JSON persistence tests: community structures, experiment runs and the
atomic writer every artifact goes through."""

import json
import os

import pytest

from repro.communities.io import (
    load_structure,
    save_structure,
    structure_from_dict,
    structure_to_dict,
)
from repro.communities.structure import Community, CommunityStructure
from repro.errors import CommunityError, ExperimentError
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.kernel_bench import record_entry
from repro.experiments.persistence import (
    load_runs,
    records_to_runs,
    runs_to_records,
    save_runs,
)
from repro.experiments.runner import AlgorithmRun
from repro.obs.manifest import MANIFEST_SCHEMA, write_manifest
from repro.obs.sinks import write_jsonl


@pytest.fixture
def structure():
    return CommunityStructure(
        [
            Community(members=(0, 1, 2), threshold=2, benefit=3.0),
            Community(members=(5, 7), threshold=1, benefit=1.5),
        ]
    )


def test_structure_round_trip_dict(structure):
    rebuilt = structure_from_dict(structure_to_dict(structure))
    assert rebuilt.r == structure.r
    assert [c.members for c in rebuilt] == [c.members for c in structure]
    assert rebuilt.thresholds() == structure.thresholds()
    assert rebuilt.benefits() == structure.benefits()


def test_structure_round_trip_file(structure, tmp_path):
    path = tmp_path / "communities.json"
    save_structure(structure, path)
    rebuilt = load_structure(path)
    assert [c.members for c in rebuilt] == [c.members for c in structure]
    # The file is plain JSON with the documented schema.
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    assert len(payload["communities"]) == 2


def test_structure_from_dict_validates():
    with pytest.raises(CommunityError):
        structure_from_dict({"not": "a structure"})
    with pytest.raises(CommunityError):
        structure_from_dict({"version": 99, "communities": []})
    with pytest.raises(CommunityError):
        structure_from_dict(
            {"version": 1, "communities": [{"members": [0]}]}
        )


def test_structure_from_dict_rejects_invalid_community():
    # Overlapping members still rejected through deserialisation.
    payload = {
        "version": 1,
        "communities": [
            {"members": [0, 1], "threshold": 1, "benefit": 1.0},
            {"members": [1, 2], "threshold": 1, "benefit": 1.0},
        ],
    }
    with pytest.raises(CommunityError):
        structure_from_dict(payload)


# ------------------------------------------------------------- run data


@pytest.fixture
def results():
    return {
        "UBG": [
            AlgorithmRun("UBG", 5, (1, 2), 10.0, 0.5),
            AlgorithmRun("UBG", 10, (1, 2, 3), 15.0, 0.9),
        ],
        "KS": [AlgorithmRun("KS", 5, (7,), 3.0, 0.01)],
    }


def test_runs_round_trip_records(results):
    rebuilt = records_to_runs(runs_to_records(results))
    assert rebuilt == results


def test_runs_round_trip_file(results, tmp_path):
    path = tmp_path / "runs.json"
    save_runs(results, path, metadata={"dataset": "facebook"})
    rebuilt = load_runs(path)
    assert rebuilt == results
    payload = json.loads(path.read_text())
    assert payload["metadata"]["dataset"] == "facebook"


def test_records_sorted_by_k():
    records = [
        {"algorithm": "A", "k": 10, "seeds": [1], "benefit": 2.0, "runtime_seconds": 0.1},
        {"algorithm": "A", "k": 5, "seeds": [2], "benefit": 1.0, "runtime_seconds": 0.1},
    ]
    rebuilt = records_to_runs(records)
    assert [r.k for r in rebuilt["A"]] == [5, 10]


def test_records_validation():
    with pytest.raises(ExperimentError):
        records_to_runs([{"algorithm": "A"}])


BAD_VALUES = [("k", "x"), ("benefit", "lots")]


@pytest.mark.parametrize("field, value", BAD_VALUES)
def test_records_with_a_non_numeric_field_raise_experiment_error(
    results, field, value
):
    # int("x") used to escape as a bare ValueError.
    records = runs_to_records(results)
    records[0][field] = value
    with pytest.raises(ExperimentError, match="malformed run record"):
        records_to_runs(records)


def test_records_that_are_not_a_list_raise_experiment_error(tmp_path):
    # Iterating the int used to escape as a bare TypeError.
    path = tmp_path / "runs.json"
    path.write_text(json.dumps({"version": 1, "records": 5}))
    with pytest.raises(ExperimentError, match="no list of run records"):
        load_runs(path)


@pytest.mark.parametrize("field, value", BAD_VALUES)
def test_load_runs_with_a_non_numeric_field_raises_experiment_error(
    results, tmp_path, field, value
):
    path = tmp_path / "runs.json"
    save_runs(results, path)
    payload = json.loads(path.read_text())
    payload["records"][0][field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ExperimentError, match="runs.json"):
        load_runs(path)


def test_load_runs_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 42, "records": []}))
    with pytest.raises(ExperimentError):
        load_runs(path)



# ------------------------------------------------------- atomic writers


@pytest.mark.parametrize(
    "write",
    [
        lambda path: record_entry({"samples": 1}, path),
        lambda path: write_manifest({"schema": MANIFEST_SCHEMA}, path),
        lambda path: write_jsonl(path, [{"type": "span"}]),
        lambda path: CheckpointStore(path, resume=False).record("k", 1),
        lambda path: save_runs({}, path),
    ],
    ids=["record_entry", "write_manifest", "write_jsonl", "checkpoint",
         "save_runs"],
)
def test_atomic_writers_fsync_before_they_rename(tmp_path, monkeypatch, write):
    # Without the fsync a crash just after the rename can leave the
    # artifact (e.g. benchmarks/BENCH_kernels.json) truncated.
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        calls.append("fsync")
        fsync(fd)

    def recording_replace(source, target):
        calls.append("replace")
        replace(source, target)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write(str(tmp_path / "artifact"))
    assert calls == ["fsync", "replace"]
    assert os.listdir(tmp_path) == ["artifact"]
