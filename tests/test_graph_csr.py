"""DiGraph pair tables: the compressed rows every kernel reads.

``in_pairs()``/``out_pairs()`` hold each node's adjacency as one tuple
of ``(neighbour, weight)`` pairs — a compressed-sparse-row view of the
graph, built on first use. The contract under test is strong: the
tables must keep adjacency order, follow every mutation, and come back
identical from a pickle — the way a graph reaches worker processes —
so that a pickled copy drives every sampler and simulator to
*byte-identical* outputs (same RNG draw order, same samples, same
cascades), not merely equal ones in distribution.
"""

import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.linear_threshold import simulate_lt
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.ric import RICSampler

from tests.ric_samples import singletons


@pytest.fixture(scope="module")
def instance():
    graph, blocks = planted_partition_graph(
        [10] * 5, p_in=0.35, p_out=0.03, directed=True, seed=23
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def small_graph():
    graph = DiGraph(5)
    graph.add_edge(0, 1, 0.5)
    graph.add_edge(0, 2, 0.25)
    graph.add_edge(2, 1, 0.75)
    graph.add_edge(3, 4, 1.0)
    graph.add_edge(4, 0, 0.1)
    return graph


def pickled(graph):
    return pickle.loads(pickle.dumps(graph))


def test_pickle_round_trip_matches_and_rebuilds_caches(instance):
    graph, _ = instance
    graph.in_pairs()  # populate the lazy tables on the original
    graph.out_pairs()
    clone = pickled(graph)
    assert clone == graph
    assert clone.in_pairs() == graph.in_pairs()
    assert clone.out_pairs() == graph.out_pairs()
    assert clone.in_pairs() is not graph.in_pairs()  # rebuilt, not shared
    # The tables never enter the pickle, built or not.
    assert pickle.dumps(clone) == pickle.dumps(graph)


def test_pair_caches_match_adjacency_order():
    g = DiGraph(5)
    g.add_edge(2, 1, 0.75)
    g.add_edge(0, 1, 0.5)
    g.add_edge(0, 2, 0.25)
    g.add_edge(3, 4, 1.0)
    g.add_edge(4, 0, 0.1)
    in_pairs = g.in_pairs()
    out_pairs = g.out_pairs()
    assert g.in_pairs() is in_pairs  # built once
    assert g.out_pairs() is out_pairs
    for u in g.nodes():
        assert in_pairs[u] == tuple((s, w) for s, _, w in g.in_edges(u))
        assert out_pairs[u] == tuple((t, w) for _, t, w in g.out_edges(u))
    assert in_pairs[1] == ((2, 0.75), (0, 0.5))  # insertion order


def test_digraph_pair_tables_follow_mutation(instance):
    """Every mutation drops the pair tables, so they — and samplers built
    before the mutation — match a pickled copy of the mutated graph,
    which has fresh tables and the same adjacency order."""
    base, communities = instance
    graph = base.copy()

    def fresh_copy():
        clone = pickled(graph)
        assert graph.in_pairs() == clone.in_pairs()
        assert graph.out_pairs() == clone.out_pairs()
        return clone

    ic = RICSampler(graph, communities, seed=8)
    lt = RICSampler(graph, communities, seed=8, model="lt")
    ic.sample()
    lt.sample()
    fresh_copy()
    graph.add_nodes(2)
    fresh_copy()
    new = graph.add_node()
    fresh_copy()
    # Hang the new nodes off a community member, halving the member's
    # other in-weights so LT's weights still sum to at most 1.
    v = next(v for v in communities[0].members if graph.in_degree(v) > 0)
    for source, weight in graph.in_pairs()[v]:
        graph.set_weight(source, v, weight / 2)
    fresh_copy()
    graph.add_edge(new, v, 0.5)
    graph.add_edge(new - 1, new, 1.0)
    oracle = fresh_copy()

    for sampler, model in ((ic, "ic"), (lt, "lt")):
        fresh = RICSampler(oracle, communities, seed=8, model=model)
        fresh.sample()
        assert sampler.sample_many(100) == fresh.sample_many(100)
    for seed in range(10):
        assert simulate_ic(graph, [new - 1, seed], seed=seed) == simulate_ic(
            oracle, [new - 1, seed], seed=seed
        )
        assert simulate_lt(graph, [new - 1], seed=seed) == simulate_lt(
            oracle, [new - 1], seed=seed
        )


def test_digraph_pickle_drops_pair_tables():
    graph = small_graph()
    graph.in_pairs()
    graph.out_pairs()
    clone = pickled(graph)
    assert clone == graph
    assert clone._in_pairs is None and clone._out_pairs is None
    assert clone.in_pairs() == graph.in_pairs()
    assert clone.out_pairs() == graph.out_pairs()


def test_ric_sampling_byte_identical_ic(instance):
    graph, communities = instance
    clone = pickled(graph)
    original = RICSampler(graph, communities, seed=5).sample_many(300)
    copied = RICSampler(clone, communities, seed=5).sample_many(300)
    assert original == copied


def test_ric_sampling_byte_identical_lt(instance):
    graph, communities = instance
    clone = pickled(graph)
    original = RICSampler(
        graph, communities, seed=5, model="lt"
    ).sample_many(200)
    copied = RICSampler(
        clone, communities, seed=5, model="lt"
    ).sample_many(200)
    assert original == copied


def test_rr_sampling_byte_identical(instance):
    # RR sets: RIC samples over singleton communities.
    graph, _ = instance
    rr_sets = singletons(graph.num_nodes)
    original = RICSampler(graph, rr_sets, seed=9).sample_many(200)
    copied = RICSampler(pickled(graph), rr_sets, seed=9).sample_many(200)
    assert original == copied


def test_simulations_byte_identical(instance):
    graph, _ = instance
    clone = pickled(graph)
    for seed in range(20):
        assert simulate_ic(graph, [seed], seed=seed) == simulate_ic(
            clone, [seed], seed=seed
        )
        assert simulate_lt(graph, [seed], seed=seed) == simulate_lt(
            clone, [seed], seed=seed
        )
