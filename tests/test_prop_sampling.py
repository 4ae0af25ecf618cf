"""Property-based tests of RIC sampling on random graphs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.graph.analysis import reverse_reachable
from repro.graph.digraph import DiGraph
from repro.sampling.ric import RICSampler


@st.composite
def graph_with_communities(draw):
    n = draw(st.integers(3, 10))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(possible), max_size=20, unique=True))
    g = DiGraph(n)
    for u, v in edges:
        g.add_edge(u, v, draw(st.floats(0.1, 1.0, allow_nan=False)))
    # Carve 1-2 disjoint communities out of the node set.
    num_com = draw(st.integers(1, 2))
    nodes = list(range(n))
    communities = []
    idx = 0
    for _ in range(num_com):
        size = draw(st.integers(1, max(1, (n - idx) // num_com)))
        members = tuple(nodes[idx : idx + size])
        idx += size
        if not members:
            break
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, len(members))),
                benefit=draw(st.floats(0.5, 5.0, allow_nan=False)),
            )
        )
    structure = CommunityStructure(communities)
    seed = draw(st.integers(0, 2**16))
    return g, structure, seed


@given(graph_with_communities())
@settings(max_examples=150, deadline=None)
def test_ric_sample_invariants(args):
    graph, structure, seed = args
    sampler = RICSampler(graph, structure, seed=seed)
    sample = sampler.sample()
    community = structure[sample.community_index]
    # Mirror the source community faithfully.
    assert sample.members == community.members
    assert sample.threshold == community.threshold
    for member, reach in zip(sample.members, sample.reach_sets):
        # u is always in R_g(u).
        assert member in reach
        # Realised reachability is a subset of structural reachability.
        assert reach <= reverse_reachable(graph, [member])


@given(graph_with_communities())
@settings(max_examples=100, deadline=None)
def test_ric_full_seed_set_always_influences(args):
    """Seeding the whole community trivially influences every sample."""
    graph, structure, seed = args
    sampler = RICSampler(graph, structure, seed=seed)
    sample = sampler.sample()
    assert sample.is_influenced_by(sample.members)


@given(graph_with_communities())
@settings(max_examples=100, deadline=None)
def test_ric_empty_seed_set_never_influences(args):
    graph, structure, seed = args
    sampler = RICSampler(graph, structure, seed=seed)
    sample = sampler.sample()
    assert not sample.is_influenced_by([])


@given(graph_with_communities())
@settings(max_examples=100, deadline=None)
def test_ric_deterministic_edges_fully_explored(args):
    """With all-1.0 weights, R_g(u) equals structural reachability."""
    graph, structure, seed = args
    deterministic = DiGraph(graph.num_nodes)
    for u, v, _ in graph.edges():
        deterministic.add_edge(u, v, 1.0)
    sampler = RICSampler(deterministic, structure, seed=seed)
    sample = sampler.sample()
    for member, reach in zip(sample.members, sample.reach_sets):
        assert reach == reverse_reachable(deterministic, [member])


@st.composite
def indicator_case(draw, model):
    """A graph with ``model``'s weights, communities and a seed set.

    Under LT every node's in-weights are scaled by its in-degree so they
    sum to at most 1. Seed sets mix community members, other nodes and
    ids outside the graph.
    """
    n = draw(st.integers(3, 10))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(possible), max_size=24, unique=True))
    in_degree = [0] * n
    for _, v in edges:
        in_degree[v] += 1
    g = DiGraph(n)
    for u, v in edges:
        w = draw(st.floats(0.1, 1.0, allow_nan=False))
        g.add_edge(u, v, w / in_degree[v] if model == "lt" else w)
    size = draw(st.integers(1, min(5, n)))
    members = tuple(draw(st.permutations(range(n)))[:size])
    rest = [v for v in range(n) if v not in members]
    communities = [
        Community(
            members=members,
            threshold=draw(st.integers(1, size)),
            benefit=draw(st.floats(0.5, 5.0, allow_nan=False)),
        )
    ]
    if rest and draw(st.booleans()):
        other = tuple(rest[: draw(st.integers(1, len(rest)))])
        communities.append(
            Community(
                members=other,
                threshold=draw(st.integers(1, len(other))),
                benefit=draw(st.floats(0.5, 5.0, allow_nan=False)),
            )
        )
    seeds = frozenset(
        draw(st.lists(st.integers(0, n + 2), min_size=1, max_size=5))
    )
    return g, CommunityStructure(communities), seeds, draw(st.integers(0, 2**16))


@pytest.mark.parametrize("model", ["ic", "lt"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sample_indicator_matches_full_sample(model, data):
    """The early-exit Algorithm 6 indicator decides X_g(S) exactly.

    A twin sampler materialises the full sample from the same child
    seed; the indicator must agree on the source community and on the
    outcome, and both master streams must stay in step.
    """
    graph, structure, seeds, seed = data.draw(indicator_case(model))
    fast = RICSampler(graph, structure, seed=seed, model=model)
    full = RICSampler(graph, structure, seed=seed, model=model)
    for _ in range(8):
        sample = full.sample_from_seed(full.next_sample_seed())
        assert fast.sample_indicator(seeds) == (
            sample.community_index,
            sample.is_influenced_by(seeds),
        )
    assert fast.next_sample_seed() == full.next_sample_seed()
