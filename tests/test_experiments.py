"""Experiment harness tests: config, runner, reporting, figure drivers."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ALGORITHMS, ExperimentConfig
from repro.experiments.reporting import ascii_table, format_series
from repro.experiments.runner import (
    AlgorithmRun,
    build_instance,
    make_pool,
    run_algorithm,
    run_suite,
)
from repro.experiments.tables import table1_datasets, table1_text

FAST = dict(
    dataset="facebook", scale=0.08, pool_size=150, eval_trials=60, seed=5
)


# ---------------------------------------------------------------- config


def test_config_defaults_match_paper():
    config = ExperimentConfig()
    assert config.size_cap == 8
    assert config.epsilon == config.delta == 0.2
    assert config.formation == "louvain"


def test_config_validation():
    with pytest.raises(ExperimentError):
        ExperimentConfig(formation="kmeans")
    with pytest.raises(ExperimentError):
        ExperimentConfig(threshold="half")
    with pytest.raises(ExperimentError):
        ExperimentConfig(scale=-1)
    with pytest.raises(ExperimentError):
        ExperimentConfig(pool_size=0)
    with pytest.raises(ExperimentError, match="eval_trials"):
        ExperimentConfig(eval_trials=0)


def test_config_with_overrides():
    config = ExperimentConfig(**FAST)
    other = config.with_overrides(threshold="bounded", size_cap=4)
    assert other.threshold == "bounded"
    assert other.size_cap == 4
    assert other.dataset == config.dataset


def test_algorithm_registry_contains_paper_lineup():
    for name in ("UBG", "MAF", "BT", "MB", "HBC", "KS", "IM"):
        assert name in ALGORITHMS


# ---------------------------------------------------------------- runner


def test_build_instance_louvain():
    graph, communities = build_instance(ExperimentConfig(**FAST))
    assert graph.num_nodes > 0
    assert communities.r >= 2
    communities.validate_against(graph.num_nodes)
    assert all(c.size <= 8 for c in communities)


def test_build_instance_random_formation():
    config = ExperimentConfig(**FAST).with_overrides(
        formation="random", random_communities=10
    )
    graph, communities = build_instance(config)
    # size cap 8 may split the 10 random blocks further
    assert communities.r >= 10


def test_build_instance_bounded_thresholds():
    config = ExperimentConfig(**FAST).with_overrides(threshold="bounded")
    _, communities = build_instance(config)
    assert communities.max_threshold <= 2


def test_build_instance_deterministic():
    a_graph, a_com = build_instance(ExperimentConfig(**FAST))
    b_graph, b_com = build_instance(ExperimentConfig(**FAST))
    assert a_graph == b_graph
    assert [c.members for c in a_com] == [c.members for c in b_com]


def test_make_pool_size():
    config = ExperimentConfig(**FAST)
    graph, communities = build_instance(config)
    pool = make_pool(graph, communities, config, size=37)
    assert len(pool) == 37


@pytest.mark.parametrize("name", ["UBG", "MAF", "HBC", "KS", "Degree", "Random"])
def test_run_algorithm_each(name):
    config = ExperimentConfig(**FAST)
    graph, communities = build_instance(config)
    pool = make_pool(graph, communities, config)
    run = run_algorithm(name, graph, communities, 5, config, pool=pool)
    assert isinstance(run, AlgorithmRun)
    assert run.algorithm == name
    assert 0 <= len(run.seeds) <= max(5, communities.max_threshold * communities.r)
    assert run.benefit >= 0.0
    assert run.runtime_seconds >= 0.0


def test_run_algorithm_unknown():
    config = ExperimentConfig(**FAST)
    graph, communities = build_instance(config)
    with pytest.raises(ExperimentError):
        run_algorithm("Oracle", graph, communities, 3, config)


def test_run_suite_shares_pool_and_returns_all():
    config = ExperimentConfig(**FAST)
    results = run_suite(config, ["MAF", "KS"], [3, 6])
    assert set(results) == {"MAF", "KS"}
    assert [r.k for r in results["MAF"]] == [3, 6]


def test_run_suite_quality_orders_sensibly():
    """Our solvers should beat the naive KS baseline at moderate k."""
    config = ExperimentConfig(**FAST).with_overrides(
        pool_size=400, eval_trials=150
    )
    results = run_suite(config, ["UBG", "KS"], [10])
    assert results["UBG"][0].benefit >= results["KS"][0].benefit


# ------------------------------------------------------------- reporting


def test_ascii_table_alignment():
    text = ascii_table(["a", "bb"], [[1, 2.5], ["xyz", 3]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]
    assert "2.500" in text  # floats get 3 decimals
    assert set(lines[1]) <= {"-", "+"}


def test_format_series():
    text = format_series("k", [5, 10], {"UBG": [1.0, 2.0], "MAF": [0.5, 1.5]})
    assert "k" in text and "UBG" in text and "MAF" in text
    assert "10" in text


# ---------------------------------------------------------------- tables


def test_table1_rows_and_text():
    rows = table1_datasets(scale=0.05, seed=3)
    assert len(rows) == 5
    text = table1_text(scale=0.05, seed=3)
    for name in ("facebook", "wikivote", "epinions", "dblp", "pokec"):
        assert name in text
