"""FrozenDiGraph: CSR snapshot correctness and kernel equivalence.

The contract under test is strong: freezing a graph must leave every
randomized pipeline *byte-identical* — same RNG draw order, same
samples, same cascades — not merely equal in distribution. Each
sampler and simulator has one kernel fed by the graph's
``in_pairs()``/``out_pairs()`` tables; the suite checks that the two
pair sources, a mutable graph and its snapshot, drive it to exactly
the same outputs, never statistically.
"""

import pickle

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion.independent_cascade import simulate_ic
from repro.diffusion.linear_threshold import simulate_lt
from repro.errors import GraphError
from repro.graph.csr import FrozenDiGraph
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.ric import RICSampler
from repro.sampling.rr import RRSampler


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


def test_frozen_matches_mutable_read_surface():
    graph = small_graph()
    frozen = graph.freeze()
    assert isinstance(frozen, FrozenDiGraph)
    assert frozen.num_nodes == graph.num_nodes
    assert frozen.num_edges == graph.num_edges
    assert len(frozen) == len(graph)
    assert list(frozen.nodes()) == list(graph.nodes())
    for u in graph.nodes():
        assert frozen.out_degree(u) == graph.out_degree(u)
        assert frozen.in_degree(u) == graph.in_degree(u)
        assert frozen.out_neighbors(u) == tuple(graph.out_neighbors(u))
        assert frozen.in_neighbors(u) == tuple(graph.in_neighbors(u))
        out_ids, out_ws = frozen.out_adjacency(u)
        mut_ids, mut_ws = graph.out_adjacency(u)
        assert list(out_ids) == list(mut_ids)
        assert list(out_ws) == pytest.approx(list(mut_ws))
        assert list(frozen.out_edges(u)) == list(graph.out_edges(u))
        assert list(frozen.in_edges(u)) == list(graph.in_edges(u))
    assert list(frozen.edges()) == list(graph.edges())
    assert frozen.has_edge(0, 1) and not frozen.has_edge(1, 0)
    assert frozen.weight(0, 2) == pytest.approx(0.25)
    assert frozen.weight(2, 0) == 0.0
    assert frozen == graph


def test_edge_ranks_are_insertion_order_ids():
    graph = small_graph()
    frozen = graph.freeze()
    for u, v, _ in graph.edges():
        assert frozen.edge_id(u, v) == graph.edge_id(u, v)
    with pytest.raises(GraphError):
        frozen.edge_id(1, 0)


def test_freeze_is_idempotent_and_construction_guarded():
    frozen = small_graph().freeze()
    assert frozen.freeze() is frozen
    with pytest.raises(GraphError):
        FrozenDiGraph()


def test_thaw_round_trip_preserves_edge_ids():
    graph = small_graph()
    thawed = graph.freeze().thaw()
    assert thawed == graph
    for u, v, _ in graph.edges():
        assert thawed.edge_id(u, v) == graph.edge_id(u, v)
    # A re-freeze of the thawed graph is CSR-identical.
    refrozen = thawed.freeze()
    original = graph.freeze()
    assert refrozen.in_neighbor_ids == original.in_neighbor_ids
    assert refrozen.in_edge_ranks == original.in_edge_ranks


def test_pickle_round_trip_matches_and_rebuilds_caches():
    frozen = small_graph().freeze()
    frozen.in_pairs()  # populate the lazy cache on the original
    clone = pickle.loads(pickle.dumps(frozen))
    assert clone == frozen
    assert clone.in_pairs() == frozen.in_pairs()
    assert clone.out_pairs() == frozen.out_pairs()


def test_pair_caches_match_adjacency_order():
    graph = small_graph()
    frozen = graph.freeze()
    in_pairs = frozen.in_pairs()
    out_pairs = frozen.out_pairs()
    assert frozen.in_pairs() is in_pairs  # cached, built once
    for u in graph.nodes():
        sources, weights = graph.in_adjacency(u)
        assert in_pairs[u] == tuple(zip(sources, weights))
        targets, weights = graph.out_adjacency(u)
        assert out_pairs[u] == tuple(zip(targets, weights))


def test_digraph_pair_tables_follow_mutation(instance):
    """Mutating a graph drops its pair tables, so sampling afterwards —
    through a sampler built before the mutation, too — matches a fresh
    snapshot of the mutated graph."""
    base, communities = instance
    graph = base.copy()
    before = graph.in_pairs()
    assert graph.out_pairs() is graph.out_pairs()
    ic = RICSampler(graph, communities, seed=8)
    lt = RICSampler(graph, communities, seed=8, model="lt")
    rr = RRSampler(graph, seed=8)
    ic.sample()
    lt.sample()
    rr.sample()
    # Hang a fresh node off a community member, halving the member's
    # other in-weights so LT's weights still sum to at most 1.
    v = next(v for v in communities[0].members if graph.in_degree(v) > 0)
    new = graph.add_node()
    for source, weight in graph.in_pairs()[v]:
        graph.set_weight(source, v, weight / 2)
    graph.add_edge(new, v, 0.5)
    assert graph.in_pairs() is not before
    frozen = graph.freeze()
    assert graph.in_pairs() == frozen.in_pairs()
    assert graph.out_pairs() == frozen.out_pairs()

    for sampler, model in ((ic, "ic"), (lt, "lt")):
        fresh = RICSampler(frozen, communities, seed=8, model=model)
        fresh.sample()
        assert sampler.sample_many(100) == fresh.sample_many(100)
    fresh_rr = RRSampler(frozen, seed=8)
    fresh_rr.sample()
    assert [rr.sample() for _ in range(100)] == [
        fresh_rr.sample() for _ in range(100)
    ]
    for seed in range(10):
        assert simulate_ic(graph, [new, seed], seed=seed) == simulate_ic(
            frozen, [new, seed], seed=seed
        )
        assert simulate_lt(graph, [new], seed=seed) == simulate_lt(
            frozen, [new], seed=seed
        )


def test_digraph_pickle_drops_pair_tables():
    graph = small_graph()
    graph.in_pairs()
    graph.out_pairs()
    clone = pickle.loads(pickle.dumps(graph))
    assert clone == graph
    assert clone._in_pairs is None and clone._out_pairs is None
    assert clone.in_pairs() == graph.in_pairs()


def test_ric_sampling_byte_identical_ic(instance):
    graph, communities = instance
    frozen = graph.freeze()
    mutable = RICSampler(graph, communities, seed=5).sample_many(300)
    fast = RICSampler(frozen, communities, seed=5).sample_many(300)
    assert mutable == fast


def test_ric_sampling_byte_identical_lt(instance):
    graph, communities = instance
    frozen = graph.freeze()
    mutable = RICSampler(
        graph, communities, seed=5, model="lt"
    ).sample_many(200)
    fast = RICSampler(
        frozen, communities, seed=5, model="lt"
    ).sample_many(200)
    assert mutable == fast


def test_rr_sampling_byte_identical(instance):
    graph, _ = instance
    frozen = graph.freeze()
    slow = RRSampler(graph, seed=9)
    fast = RRSampler(frozen, seed=9)
    for _ in range(200):
        assert slow.sample() == fast.sample()


def test_simulations_byte_identical(instance):
    graph, _ = instance
    frozen = graph.freeze()
    for seed in range(20):
        assert simulate_ic(graph, [seed], seed=seed) == simulate_ic(
            frozen, [seed], seed=seed
        )
        assert simulate_lt(graph, [seed], seed=seed) == simulate_lt(
            frozen, [seed], seed=seed
        )


def test_frozen_rejects_out_of_range_nodes():
    frozen = small_graph().freeze()
    for bad in (-1, 5):
        with pytest.raises(GraphError):
            frozen.out_degree(bad)
        with pytest.raises(GraphError):
            frozen.in_adjacency(bad)
