"""Dataset registry tests (Table I stand-ins)."""

import pytest

from repro.datasets.registry import (
    DATASETS,
    dataset_names,
    dataset_statistics,
    load_dataset,
)
from repro.errors import DatasetError


def test_all_five_table1_datasets_registered():
    assert dataset_names() == ["facebook", "wikivote", "epinions", "dblp", "pokec"]


def test_specs_record_paper_statistics():
    fb = DATASETS["facebook"]
    assert fb.paper_nodes == 747
    assert fb.paper_edges == 60_050
    assert not fb.directed
    assert DATASETS["pokec"].directed
    for spec in DATASETS.values():
        assert spec.substitution  # every stand-in documents itself


def test_load_unknown_dataset():
    with pytest.raises(DatasetError, match="unknown dataset"):
        load_dataset("snapchat")


def test_load_invalid_scale():
    with pytest.raises(DatasetError):
        load_dataset("facebook", scale=0.0)


def test_load_scales_node_count():
    small = load_dataset("wikivote", scale=0.1, seed=1)
    smaller = load_dataset("wikivote", scale=0.05, seed=1)
    assert small.num_nodes > smaller.num_nodes
    assert small.num_nodes == round(DATASETS["wikivote"].reference_nodes * 0.1)


def test_load_minimum_size_floor():
    tiny = load_dataset("facebook", scale=0.001, seed=1)
    assert tiny.num_nodes == 50


def test_weighted_cascade_applied_by_default():
    ds = load_dataset("epinions", scale=0.05, seed=2)
    for pairs in ds.graph.in_pairs():
        if pairs:
            assert sum(w for _, w in pairs) == pytest.approx(1.0)


def test_raw_structural_graph_option():
    ds = load_dataset("epinions", scale=0.05, seed=2, weighted_cascade=False)
    assert all(w == 1.0 for _, _, w in ds.graph.edges())


def test_deterministic_given_seed():
    a = load_dataset("dblp", scale=0.05, seed=9)
    b = load_dataset("dblp", scale=0.05, seed=9)
    assert a.graph == b.graph


def test_different_datasets_different_graphs():
    a = load_dataset("wikivote", scale=0.1, seed=9)
    b = load_dataset("pokec", scale=0.0175, seed=9)  # similar node count
    assert a.graph != b.graph


def test_undirected_datasets_are_symmetric():
    ds = load_dataset("facebook", scale=0.1, seed=3, weighted_cascade=False)
    for u, v, _ in ds.graph.edges():
        assert ds.graph.has_edge(v, u)


def test_average_degree_in_right_ballpark():
    """Stand-ins should roughly match the paper's edge/node ratios."""
    for name, lo, hi in (
        ("wikivote", 8, 25),
        ("pokec", 12, 30),
        ("epinions", 2, 15),
    ):
        ds = load_dataset(name, scale=0.2, seed=4)
        avg = ds.num_edges / ds.num_nodes
        assert lo <= avg <= hi, (name, avg)


def test_dataset_statistics_rows():
    rows = dataset_statistics(scale=0.05, seed=5)
    assert len(rows) == 5
    for row in rows:
        assert row["nodes"] > 0 and row["edges"] > 0
        assert row["type"] in ("Directed", "Undirected")
        assert row["paper_nodes"] > 0
