"""Repeated-trial statistics tests."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_instance
from repro.experiments.stats import AggregatedCell, repeat_suite

FAST = ExperimentConfig(
    dataset="facebook", scale=0.08, pool_size=120, eval_trials=40, seed=11
)


def test_repeat_suite_aggregates_cells():
    cells = repeat_suite(FAST, ["MAF", "KS"], [4], trials=3)
    assert len(cells) == 2
    for cell in cells:
        assert isinstance(cell, AggregatedCell)
        assert cell.trials == 3
        assert cell.mean_benefit >= 0
        assert cell.ci_half_width >= 0
        assert cell.mean_runtime >= 0
        assert cell.k == 4


def test_repeat_suite_validates_trials():
    with pytest.raises(ExperimentError):
        repeat_suite(FAST, ["MAF"], [3], trials=0)


def test_greedy_modularity_formation_builds():
    config = FAST.with_overrides(formation="greedy-modularity")
    graph, communities = build_instance(config)
    communities.validate_against(graph.num_nodes)
    assert communities.r >= 1


def test_invalid_formation_rejected():
    with pytest.raises(ExperimentError):
        ExperimentConfig(formation="metis")
