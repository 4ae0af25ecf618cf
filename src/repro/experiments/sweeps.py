"""The community-formation sweep as a library function.

``benchmarks/bench_ablation_formation.py`` runs it; it is public API so
users can run the same study at their own scales and archive the
results via :mod:`repro.experiments.persistence`. The other ablations
(CELF, pool size, MAF arms, BT candidates) are the
``benchmarks/bench_ablation_*.py`` modules themselves.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_suite


def formation_comparison(
    config: ExperimentConfig,
    formations: Sequence[str] = ("louvain", "label-propagation", "random"),
    k: int = 10,
    algorithm: str = "UBG",
) -> Dict[str, float]:
    """Benefit of one algorithm under different community formations.

    Extends Fig. 4's Louvain-vs-Random comparison with the
    label-propagation detector.
    """
    results: Dict[str, float] = {}
    for formation in formations:
        suite = run_suite(
            config.with_overrides(formation=formation), [algorithm], [k]
        )
        results[formation] = suite[algorithm][0].benefit
    return results
