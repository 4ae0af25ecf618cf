"""Edge-weight scheme tests."""

import pytest

from repro.errors import GraphError
from repro.graph.builders import from_edge_list
from repro.graph.weights import (
    assign_trivalency_weights,
    assign_uniform_weights,
    assign_weighted_cascade,
)


def test_weighted_cascade_is_one_over_indegree():
    g = from_edge_list(4, [(0, 3), (1, 3), (2, 3), (0, 1)])
    assign_weighted_cascade(g)
    assert g.weight(0, 3) == pytest.approx(1 / 3)
    assert g.weight(1, 3) == pytest.approx(1 / 3)
    assert g.weight(2, 3) == pytest.approx(1 / 3)
    assert g.weight(0, 1) == pytest.approx(1.0)


def test_weighted_cascade_incoming_mass_sums_to_one():
    g = from_edge_list(5, [(0, 4), (1, 4), (2, 4), (3, 4), (4, 0), (1, 0)])
    assign_weighted_cascade(g)
    for pairs in g.in_pairs():
        if pairs:
            assert sum(w for _, w in pairs) == pytest.approx(1.0)


def test_weighted_cascade_returns_graph_for_chaining():
    g = from_edge_list(2, [(0, 1)])
    assert assign_weighted_cascade(g) is g


def test_uniform_weights():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assign_uniform_weights(g, 0.42)
    assert all(w == 0.42 for _, _, w in g.edges())


def test_uniform_weights_validates_probability():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(GraphError):
        assign_uniform_weights(g, 1.5)


def test_trivalency_draws_from_choices():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assign_trivalency_weights(g, choices=(0.1, 0.01), seed=3)
    assert all(w in (0.1, 0.01) for _, _, w in g.edges())


def test_trivalency_deterministic_with_seed():
    g1 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    g2 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assign_trivalency_weights(g1, seed=9)
    assign_trivalency_weights(g2, seed=9)
    assert [w for _, _, w in g1.edges()] == [w for _, _, w in g2.edges()]


def test_trivalency_rejects_empty_or_invalid_choices():
    g = from_edge_list(2, [(0, 1)])
    with pytest.raises(GraphError):
        assign_trivalency_weights(g, choices=())
    with pytest.raises(GraphError):
        assign_trivalency_weights(g, choices=(0.5, 2.0))
