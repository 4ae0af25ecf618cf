"""DiGraph core structure tests.

The pair-table contract (order, mutation, pickling) lives in
``tests/test_graph_csr.py``.
"""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph, Edge


def test_empty_graph():
    g = DiGraph(0)
    assert g.num_nodes == 0
    assert g.num_edges == 0
    assert list(g.edges()) == []


def test_negative_node_count_rejected():
    with pytest.raises(GraphError):
        DiGraph(-1)


def test_add_edge_and_query():
    g = DiGraph(3)
    g.add_edge(0, 1, 0.4)
    assert g.has_edge(0, 1)
    assert not g.has_edge(1, 0)
    assert g.weight(0, 1) == 0.4
    assert g.weight(1, 0) == 0.0  # paper convention: w=0 for absent edges
    assert g.num_edges == 1


def test_add_edge_overwrites_weight_both_directions_of_storage():
    g = DiGraph(2)
    g.add_edge(0, 1, 0.2)
    g.add_edge(0, 1, 0.9)
    assert g.num_edges == 1
    assert g.weight(0, 1) == 0.9
    # In-adjacency mirrors the update.
    assert g.in_pairs()[1] == ((0, 0.9),)
    assert g.out_pairs()[0] == ((1, 0.9),)


def test_self_loop_rejected():
    g = DiGraph(2)
    with pytest.raises(GraphError):
        g.add_edge(1, 1, 0.5)


def test_invalid_weight_rejected():
    g = DiGraph(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 1, 1.5)
    with pytest.raises(GraphError):
        g.add_edge(0, 1, -0.1)


def test_invalid_node_rejected():
    g = DiGraph(2)
    with pytest.raises(GraphError):
        g.add_edge(0, 2, 0.5)
    with pytest.raises(GraphError):
        g.add_edge(-1, 0, 0.5)


def test_set_weight_requires_existing_edge():
    g = DiGraph(2)
    with pytest.raises(GraphError):
        g.set_weight(0, 1, 0.3)
    g.add_edge(0, 1, 0.2)
    g.set_weight(0, 1, 0.7)
    assert g.weight(0, 1) == 0.7


def test_neighbors_and_degrees():
    g = DiGraph(4)
    g.add_edge(0, 1, 1.0)
    g.add_edge(0, 2, 1.0)
    g.add_edge(3, 0, 1.0)
    assert sorted(g.out_neighbors(0)) == [1, 2]
    assert g.in_neighbors(0) == [3]
    assert g.out_degree(0) == 2
    assert g.in_degree(0) == 1
    assert g.out_degree(3) == 1
    assert g.in_degree(1) == 1


def test_out_edges_and_in_edges_are_edge_tuples():
    g = DiGraph(3)
    g.add_edge(0, 1, 0.25)
    (edge,) = list(g.out_edges(0))
    assert edge == Edge(0, 1, 0.25)
    (edge_in,) = list(g.in_edges(1))
    assert edge_in == Edge(0, 1, 0.25)


def test_edges_iterates_all():
    g = DiGraph(3)
    g.add_edge(0, 1, 0.1)
    g.add_edge(1, 2, 0.2)
    g.add_edge(2, 0, 0.3)
    assert {(u, v) for u, v, _ in g.edges()} == {(0, 1), (1, 2), (2, 0)}


def test_add_node_and_add_nodes():
    g = DiGraph(1)
    new = g.add_node()
    assert new == 1
    g.add_nodes(3)
    assert g.num_nodes == 5
    g.add_edge(4, 0, 0.5)
    assert g.has_edge(4, 0)
    with pytest.raises(GraphError):
        g.add_nodes(-1)


def test_reversed_flips_all_edges():
    g = DiGraph(3)
    g.add_edge(0, 1, 0.3)
    g.add_edge(1, 2, 0.6)
    rev = g.reversed()
    assert rev.has_edge(1, 0) and rev.weight(1, 0) == 0.3
    assert rev.has_edge(2, 1) and rev.weight(2, 1) == 0.6
    assert not rev.has_edge(0, 1)


def test_copy_is_deep_structural():
    g = DiGraph(2)
    g.add_edge(0, 1, 0.4)
    clone = g.copy()
    clone.add_edge(1, 0, 0.9)
    assert not g.has_edge(1, 0)
    assert clone.has_edge(0, 1)


def test_equality_structural():
    a = DiGraph(2)
    a.add_edge(0, 1, 0.5)
    b = DiGraph(2)
    b.add_edge(0, 1, 0.5)
    assert a == b
    b.set_weight(0, 1, 0.6)
    assert a != b


def test_len_and_repr():
    g = DiGraph(7)
    assert len(g) == 7
    assert "n=7" in repr(g)


def test_adjacency_views_are_parallel():
    g = DiGraph(3)
    g.add_edge(0, 2, 0.1)
    g.add_edge(1, 2, 0.9)
    assert g.in_pairs()[2] == ((0, 0.1), (1, 0.9))
    assert g.out_pairs()[0] == ((2, 0.1),)
