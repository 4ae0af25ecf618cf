"""Campaign runner: a grid of experiment configurations.

Sweeps the cross product of datasets × threshold policies × formations
(× anything else expressible as config overrides), runs a suite per
cell and returns flat records ready for
:mod:`repro.experiments.persistence`. This is the driver behind
"run the whole evaluation overnight and archive it" workflows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.experiments.checkpoint import CheckpointStore, as_checkpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import records_to_runs, runs_to_records
from repro.experiments.runner import AlgorithmRun, run_suite
from repro.obs import (
    build_manifest,
    enabled as obs_enabled,
    manifest_path_for,
    trace,
    write_manifest,
)


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell's identity and results."""

    dataset: str
    threshold: str
    formation: str
    runs: Dict[str, List[AlgorithmRun]]


def cell_key(dataset: str, threshold: str, formation: str) -> str:
    """Checkpoint key identifying one campaign grid cell."""
    return f"{dataset}|{threshold}|{formation}"


def _cell_from_payload(
    payload: dict, path: str
) -> Dict[str, List[AlgorithmRun]]:
    try:
        records = payload["records"]
    except (KeyError, TypeError) as exc:
        raise ExperimentError(
            f"malformed cell payload in checkpoint {path!r}"
        ) from exc
    return records_to_runs(records, f"checkpoint {path!r}")


def run_campaign(
    base_config: ExperimentConfig,
    algorithms: Sequence[str],
    k_values: Sequence[int],
    datasets: Sequence[str] = ("facebook",),
    thresholds: Sequence[str] = ("fractional",),
    formations: Sequence[str] = ("louvain",),
    candidate_limit: Optional[int] = 30,
    progress=None,
    checkpoint: Union[None, str, CheckpointStore] = None,
    resume: bool = True,
) -> List[CampaignCell]:
    """Run the full grid; returns one :class:`CampaignCell` per combo.

    ``progress``, if given, is called with
    ``(cell_index, total_cells, dataset, threshold, formation)`` before
    each cell starts.

    ``checkpoint`` (a path or a
    :class:`~repro.experiments.checkpoint.CheckpointStore`; defaults to
    ``base_config.checkpoint_path``) makes the campaign crash-safe:
    each completed cell is recorded atomically, and rerunning against
    the same checkpoint restores completed cells from disk instead of
    recomputing them — a killed overnight campaign resumes where it
    died. Pass ``resume=False`` to discard an existing checkpoint.
    Every cell is seeded from its own config alone, so a resumed
    campaign's results are identical to an uninterrupted run's. Call
    ``store.report()`` on a passed-in store for the skip/recompute
    summary.
    """
    if not algorithms or not k_values:
        raise ExperimentError("campaign needs algorithms and k values")
    if checkpoint is None and base_config.checkpoint_path is not None:
        checkpoint = base_config.checkpoint_path
    store = as_checkpoint(checkpoint, resume=resume)
    grid: List[Tuple[str, str, str]] = [
        (dataset, threshold, formation)
        for dataset in datasets
        for threshold in thresholds
        for formation in formations
    ]
    cells: List[CampaignCell] = []
    for index, (dataset, threshold, formation) in enumerate(grid):
        key = cell_key(dataset, threshold, formation)
        if store is not None and key in store:
            cells.append(
                CampaignCell(
                    dataset=dataset,
                    threshold=threshold,
                    formation=formation,
                    runs=_cell_from_payload(store.get(key), store.path),
                )
            )
            continue
        if progress is not None:
            progress(index, len(grid), dataset, threshold, formation)
        # Cells checkpoint at campaign granularity; strip the config's
        # own checkpoint path so the inner suite doesn't mix per-run
        # keys into the same file.
        config = base_config.with_overrides(
            dataset=dataset,
            threshold=threshold,
            formation=formation,
            checkpoint_path=None,
        )
        with trace.span(
            "campaign/cell",
            dataset=dataset, threshold=threshold, formation=formation,
        ):
            runs = run_suite(
                config, algorithms, list(k_values),
                candidate_limit=candidate_limit,
            )
        if store is not None:
            store.record(key, {"records": runs_to_records(runs)})
        cells.append(
            CampaignCell(
                dataset=dataset,
                threshold=threshold,
                formation=formation,
                runs=runs,
            )
        )
    if store is not None and obs_enabled():
        # Same provenance discipline as run_suite: a manifest sibling
        # next to the campaign checkpoint binds the grid to the code,
        # seeds and config that produced it.
        write_manifest(
            build_manifest(
                "run_campaign",
                config=asdict(base_config),
                seeds={"seed": base_config.seed},
                artifacts={"checkpoint": store.path},
            ),
            manifest_path_for(store.path),
        )
    return cells


def campaign_records(cells: Iterable[CampaignCell]) -> List[dict]:
    """Flatten campaign cells into JSON-ready records (one per
    algorithm × k × cell)."""
    return [
        {
            "dataset": cell.dataset,
            "threshold": cell.threshold,
            "formation": cell.formation,
            **record,
        }
        for cell in cells
        for record in runs_to_records(cell.runs)
    ]


def best_algorithm_per_cell(
    cells: Iterable[CampaignCell], k: int
) -> Dict[Tuple[str, str, str], str]:
    """For each grid cell, the algorithm with the highest benefit at
    budget ``k`` (ties by name for determinism)."""
    winners: Dict[Tuple[str, str, str], str] = {}
    for cell in cells:
        best_name = None
        best_value = float("-inf")
        for algorithm in sorted(cell.runs):
            for run in cell.runs[algorithm]:
                if run.k == k and (run.benefit, ) > (best_value, ):
                    best_value = run.benefit
                    best_name = algorithm
        if best_name is None:
            raise ExperimentError(
                f"no runs at k={k} in cell "
                f"({cell.dataset}, {cell.threshold}, {cell.formation})"
            )
        winners[(cell.dataset, cell.threshold, cell.formation)] = best_name
    return winners
