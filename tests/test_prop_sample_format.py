"""RIC samples as ``(node, member-mask)`` pairs equal the frozenset format.

A sample used to store one frozenset ``R_g(u)`` per member, and
``RICSamplePool.add`` walked those sets again to OR each member's bit
into the mask index. Phase 2 now ORs the bits into one ``{node: mask}``
dict per sample and ``add`` files the pairs. The reference here is the
frozenset code, kept literally: its phase 2 over the realised edges of
the sampler's own phase 1 (on a second sampler with the same seed), and
its bit-OR-ing ``add``. On random graphs and structures, under IC and
LT, each sample's derived reach sets must equal the reference
frozensets, and every node's ``{sample: mask}`` dict in a pool of new
samples must equal the reference pool's, entry for entry and in order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

NUM_NODES = 12


def frozenset_sample(sampler, sample_seed):
    """``sample_from_seed`` as it was: one frozenset per member."""
    rng = sampler._child_stream(sample_seed)
    community_index = sampler._pick_source(rng)
    community = sampler.communities[community_index]
    members = community.members
    live_in, _ = sampler._reverse_bfs(
        rng, members, frozenset(), community.threshold
    )
    reach = sampler._reach
    reach_sets = []
    stamp = sampler._stamp
    for u in members:
        if not live_in[u]:
            reach_sets.append(frozenset((u,)))
            continue
        stamp += 1
        reach[u] = stamp
        reached = [u]
        stack = [u]
        while stack:
            for v in live_in[stack.pop()]:
                if reach[v] != stamp:
                    reach[v] = stamp
                    reached.append(v)
                    stack.append(v)
        reach_sets.append(frozenset(reached))
    sampler._stamp = stamp
    return (
        community_index, community.threshold, tuple(members), tuple(reach_sets)
    )


def frozenset_add(index, sample_idx, reach_sets):
    """``RICSamplePool.add`` as it was: OR each member's bit per node."""
    for member_idx, reach in enumerate(reach_sets):
        bit = 1 << member_idx
        for node in reach:
            entry = index.get(node)
            if entry is None:
                index[node] = {sample_idx: bit}
            else:
                prev = entry.get(sample_idx)
                entry[sample_idx] = bit if prev is None else prev | bit


@st.composite
def instances(draw):
    """A random graph, disjoint communities, a model and a seed."""
    model = draw(st.sampled_from(("ic", "lt")))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, NUM_NODES - 1),
                st.integers(0, NUM_NODES - 1),
                st.sampled_from((0.2, 0.5, 0.8, 1.0)),
            ).filter(lambda e: e[0] != e[1]),
            max_size=40,
            unique_by=lambda e: (e[0], e[1]),
        )
    )
    in_weight = {}
    for _, v, w in edges:
        in_weight[v] = in_weight.get(v, 0.0) + w
    graph = DiGraph(NUM_NODES)
    for u, v, w in edges:
        # LT needs each node's in-weights to sum to at most 1.
        scale = max(1.0, in_weight[v]) if model == "lt" else 1.0
        graph.add_edge(u, v, w / scale)
    nodes = draw(st.permutations(range(NUM_NODES)))
    communities = []
    start = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        members = tuple(nodes[start:start + size])
        start += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=float(draw(st.integers(1, 5))),
            )
        )
    return graph, CommunityStructure(communities), model, draw(
        st.integers(0, 2**32 - 1)
    )


def assert_matches_frozenset_format(graph, structure, model, seed, count):
    pool = RICSamplePool(RICSampler(graph, structure, seed=seed, model=model))
    pool.grow(count)
    reference = RICSampler(graph, structure, seed=seed, model=model)
    index = {}
    for sample_idx, sample in enumerate(pool.samples):
        expected = frozenset_sample(reference, reference.next_sample_seed())
        community_index, threshold, members, reach_sets = expected
        assert sample.community_index == community_index
        assert sample.threshold == threshold
        assert sample.members == members
        assert sample.reach_sets == reach_sets
        assert len(set(sample.nodes)) == len(sample.nodes)
        assert all(sample.masks)
        frozenset_add(index, sample_idx, reach_sets)
    assert set(pool.mask_index) == set(index)
    for node, masks in index.items():
        assert list(pool.mask_index[node].items()) == list(masks.items())


@given(instances(), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_pairs_match_the_frozenset_sampler_and_index(instance, count):
    assert_matches_frozenset_format(*instance, count)


def test_members_beyond_64_bits_match_the_frozenset_format():
    # Member bits from 64 on are built on the fly, not shared.
    graph = DiGraph(72)
    for v in range(1, 72):
        graph.add_edge(0, v, 0.5)
        graph.add_edge(v, (v % 71) + 1, 0.5)
    structure = CommunityStructure(
        [Community(members=tuple(range(1, 71)), threshold=3, benefit=1.0)]
    )
    for model in ("ic", "lt"):
        assert_matches_frozenset_format(graph, structure, model, 5, 20)
