"""Sweep driver tests (fast configurations)."""

from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import formation_comparison

FAST = ExperimentConfig(
    dataset="facebook", scale=0.08, pool_size=150, eval_trials=50, seed=5
)


def test_formation_comparison_includes_label_propagation():
    results = formation_comparison(
        FAST, formations=("louvain", "label-propagation"), k=6, algorithm="MAF"
    )
    assert set(results) == {"louvain", "label-propagation"}
    assert all(v >= 0 for v in results.values())
