"""Repeated-trial statistics for experiment suites.

The paper reports the average of ten runs per configuration
(Section VI-A). :func:`repeat_suite` runs a suite under several derived
seeds and aggregates each (algorithm, k) cell into mean ± normal-
approximation confidence half-width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.diffusion.estimators import mean_with_confidence
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_suite
from repro.rng import derive_seed


@dataclass(frozen=True)
class AggregatedCell:
    """Mean ± CI of one (algorithm, k) cell across trials."""

    algorithm: str
    k: int
    mean_benefit: float
    ci_half_width: float
    mean_runtime: float
    trials: int


def repeat_suite(
    config: ExperimentConfig,
    algorithms: Sequence[str],
    k_values: Sequence[int],
    trials: int = 10,
    candidate_limit: int = 50,
) -> List[AggregatedCell]:
    """Run the suite ``trials`` times with derived seeds; aggregate.

    Each trial re-derives every stochastic stream (dataset generation
    stays fixed — the paper varies the algorithmic randomness, not the
    network) from ``config.seed`` and the trial index.
    """
    if trials < 1:
        raise ExperimentError(f"trials must be >= 1, got {trials}")
    benefit_samples: Dict[Tuple[str, int], List[float]] = {}
    runtime_samples: Dict[Tuple[str, int], List[float]] = {}
    for trial in range(trials):
        trial_config = config.with_overrides(
            seed=derive_seed(config.seed, "trial", trial) or 0
        )
        results = run_suite(
            trial_config, algorithms, k_values, candidate_limit=candidate_limit
        )
        for algorithm, runs in results.items():
            for run in runs:
                key = (algorithm, run.k)
                benefit_samples.setdefault(key, []).append(run.benefit)
                runtime_samples.setdefault(key, []).append(
                    run.runtime_seconds
                )
    cells = []
    for (algorithm, k), benefits in sorted(benefit_samples.items()):
        mean, half = mean_with_confidence(benefits)
        mean_rt, _ = mean_with_confidence(runtime_samples[(algorithm, k)])
        cells.append(
            AggregatedCell(
                algorithm=algorithm,
                k=k,
                mean_benefit=mean,
                ci_half_width=half,
                mean_runtime=mean_rt,
                trials=len(benefits),
            )
        )
    return cells
