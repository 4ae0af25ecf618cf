"""JSON persistence for experiment results.

``run_suite`` and the figure drivers return nested structures of
:class:`~repro.experiments.runner.AlgorithmRun`; these helpers flatten
them into the record format of
:func:`~repro.experiments.runner.run_to_record` (the one checkpoints
use too) so sweeps can be archived and re-plotted without re-running.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.runner import (
    AlgorithmRun,
    run_from_record,
    run_to_record,
)
from repro.obs.sinks import write_atomic

PathLike = Union[str, "os.PathLike[str]"]

_SCHEMA_VERSION = 1


def runs_to_records(results: Dict[str, Sequence[AlgorithmRun]]) -> List[dict]:
    """Flatten ``{algorithm: [AlgorithmRun]}`` into JSON records."""
    return [run_to_record(run) for runs in results.values() for run in runs]


def records_to_runs(
    records: Sequence[dict], source: str = "results"
) -> Dict[str, List[AlgorithmRun]]:
    """Rebuild ``{algorithm: [AlgorithmRun]}`` from flat records.

    ``records`` that are not a list, or a malformed record, raise
    :class:`~repro.errors.ExperimentError` naming ``source``.
    """
    if not isinstance(records, (list, tuple)):
        raise ExperimentError(f"{source} holds no list of run records")
    results: Dict[str, List[AlgorithmRun]] = {}
    for record in records:
        run = run_from_record(record, source)
        results.setdefault(run.algorithm, []).append(run)
    for runs in results.values():
        runs.sort(key=lambda r: r.k)
    return results


def save_runs(
    results: Dict[str, Sequence[AlgorithmRun]],
    path: PathLike,
    metadata: dict = None,
) -> None:
    """Archive suite results (plus free-form ``metadata``) to JSON.

    The write is crash-safe (:func:`~repro.obs.sinks.write_atomic`): a
    crash mid-archive leaves any previous archive intact rather than a
    truncated JSON file.
    """
    payload = {
        "version": _SCHEMA_VERSION,
        "metadata": metadata or {},
        "records": runs_to_records(results),
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))


def load_runs(path: PathLike) -> Dict[str, List[AlgorithmRun]]:
    """Load results written by :func:`save_runs`.

    Truncated/invalid JSON and structurally wrong payloads raise
    :class:`~repro.errors.ExperimentError` naming the offending file,
    so sweep drivers can report which archive is bad instead of dying
    on a bare ``JSONDecodeError``.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"results file {path!r} is not valid JSON "
                f"(truncated write?): {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ExperimentError(
            f"results file {path!r} does not hold a results object"
        )
    if payload.get("version") != _SCHEMA_VERSION:
        raise ExperimentError(
            f"unsupported results schema version {payload.get('version')!r}"
        )
    try:
        records = payload["records"]
    except KeyError as exc:
        raise ExperimentError(
            f"results file {path!r} is missing the 'records' key"
        ) from exc
    return records_to_runs(records, f"results file {path!r}")
