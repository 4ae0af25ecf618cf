"""Property-based tests: DiGraph structural invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.analysis import (
    forward_reachable,
    reverse_reachable,
    strongly_connected_components,
    weakly_connected_components,
)
from repro.graph.digraph import DiGraph


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(1, 12))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=30, unique=True)
        if possible
        else st.just([])
    )
    g = DiGraph(n)
    for u, v in edges:
        weight = draw(st.floats(0.0, 1.0, allow_nan=False))
        g.add_edge(u, v, weight)
    return g


@given(small_digraphs())
@settings(max_examples=150, deadline=None)
def test_in_out_neighbors_consistent(g):
    out_pairs = {(u, v) for u in g.nodes() for v in g.out_neighbors(u)}
    in_pairs = {(u, v) for v in g.nodes() for u in g.in_neighbors(v)}
    assert out_pairs == in_pairs
    assert len(out_pairs) == g.num_edges


@given(small_digraphs())
@settings(max_examples=150, deadline=None)
def test_reverse_twice_is_identity(g):
    assert g.reversed().reversed() == g


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_reachability_duality(g):
    """v reachable from u forward  <=>  u reverse-reachable from v."""
    for u in g.nodes():
        forward = forward_reachable(g, [u])
        for v in forward:
            assert u in reverse_reachable(g, [v])


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_wcc_is_partition(g):
    comps = weakly_connected_components(g)
    flat = sorted(v for comp in comps for v in comp)
    assert flat == list(g.nodes())
    # No edge crosses a WCC boundary.
    comp_of = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    for u, v, _ in g.edges():
        assert comp_of[u] == comp_of[v]


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_scc_is_partition_refining_wcc(g):
    sccs = strongly_connected_components(g)
    flat = sorted(v for comp in sccs for v in comp)
    assert flat == list(g.nodes())
    # Within an SCC, all pairs are mutually reachable.
    for comp in sccs:
        for u in comp:
            reach = forward_reachable(g, [u])
            assert comp <= reach


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_degree_sums_equal_edge_count(g):
    assert sum(g.out_degree(v) for v in g.nodes()) == g.num_edges
    assert sum(g.in_degree(v) for v in g.nodes()) == g.num_edges


@given(small_digraphs())
@settings(max_examples=100, deadline=None)
def test_copy_equality_and_independence(g):
    clone = g.copy()
    assert clone == g
    if g.num_nodes >= 2 and not g.has_edge(0, 1) and g.num_nodes > 1:
        clone.add_edge(0, 1, 0.5)
        assert not g.has_edge(0, 1)
