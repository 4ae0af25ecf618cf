"""Cross-representation consistency properties.

Three independent code paths compute the MAXR objectives — the pool's
mask-index scans, the incremental engines (the reference
`CoverageState` unpacks its own pairs from the sample masks) and the
per-sample `RICSample.is_influenced_by`. For any pool and any seed set
they must all agree exactly. The pool's one mask index must also equal
an index rebuilt from the samples' derived reach sets after any
interleaving of `add` and `grow`, on serial and parallel pools alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample

NUM_NODES = 10


@st.composite
def pool_and_seeds(draw):
    num_communities = draw(st.integers(1, 3))
    communities = []
    next_node = 0
    for _ in range(num_communities):
        size = draw(st.integers(1, 3))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=float(draw(st.integers(1, 5))),
            )
        )
    structure = CommunityStructure(communities)
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), structure, seed=0))
    for _ in range(draw(st.integers(1, 6))):
        idx = draw(st.integers(0, num_communities - 1))
        community = structure[idx]
        reaches = tuple(
            frozenset(
                draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
                | {member}
            )
            for member in community.members
        )
        pool.add(ric_sample(idx, community.threshold, community.members, reaches))
    seeds = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=5
        )
    )
    return pool, seeds


@given(pool_and_seeds())
@settings(max_examples=150, deadline=None)
def test_influenced_count_three_ways(args):
    pool, seeds = args
    # 1. Pool scan.
    scan = pool.influenced_count(seeds)
    # 2. Per-sample indicator.
    per_sample = sum(
        1 for sample in pool.samples if sample.is_influenced_by(seeds)
    )
    # 3. Incremental engines.
    state = CoverageState(pool)
    flat = FlatCoverage(pool)
    for v in seeds:
        state.add_seed(v)
        flat.add_seed(v)
    assert scan == per_sample == state.influenced_count == flat.influenced_count


@given(pool_and_seeds())
@settings(max_examples=150, deadline=None)
def test_benefit_and_bound_agree_across_engines(args):
    pool, seeds = args
    state = CoverageState(pool)
    flat = FlatCoverage(pool)
    for v in seeds:
        state.add_seed(v)
        flat.add_seed(v)
    assert pool.estimate_benefit(seeds) == pytest.approx(
        state.estimate_benefit()
    )
    assert pool.estimate_benefit(seeds) == pytest.approx(
        flat.estimate_benefit()
    )
    assert pool.estimate_upper_bound(seeds) == pytest.approx(
        state.estimate_upper_bound()
    )
    assert pool.estimate_upper_bound(seeds) == pytest.approx(
        flat.estimate_upper_bound()
    )


@given(pool_and_seeds())
@settings(max_examples=100, deadline=None)
def test_covered_members_matches_fractional_numerator(args):
    pool, seeds = args
    total = sum(
        min(sample.covered_members(seeds) / sample.threshold, 1.0)
        for sample in pool.samples
    )
    assert pool.fractional_count(seeds) == pytest.approx(total)


# ---------------------------------------------------------------------
# The one mask index under add / grow interleavings
# ---------------------------------------------------------------------


def _draw_structure(draw):
    num_communities = draw(st.integers(1, 3))
    communities = []
    next_node = 0
    for _ in range(num_communities):
        size = draw(st.integers(1, 3))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=float(draw(st.integers(1, 5))),
            )
        )
    return CommunityStructure(communities)


def _draw_sample(draw, structure):
    idx = draw(st.integers(0, len(structure) - 1))
    community = structure[idx]
    reaches = tuple(
        frozenset(
            draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
            | {member}
        )
        for member in community.members
    )
    return ric_sample(idx, community.threshold, community.members, reaches)


@st.composite
def pool_recipes(draw):
    """A graph, communities, a sampling seed and a list of pool ops."""
    structure = _draw_structure(draw)
    graph = DiGraph(NUM_NODES)
    edges = draw(
        st.sets(
            st.tuples(
                st.integers(0, NUM_NODES - 1), st.integers(0, NUM_NODES - 1)
            ).filter(lambda e: e[0] != e[1]),
            max_size=25,
        )
    )
    for u, v in sorted(edges):
        graph.add_edge(u, v, draw(st.sampled_from((0.3, 0.6, 1.0))))
    ops = draw(
        st.lists(
            st.one_of(
                st.builds(lambda s: ("add", s), st.just(None)),
                st.tuples(st.just("grow"), st.integers(0, 40)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    # Hand-built samples for the "add" ops (reach sets need not follow
    # the graph: the index must not care where samples come from).
    ops = [
        (op, _draw_sample(draw, structure)) if op == "add" else (op, arg)
        for op, arg in ops
    ]
    seed_sets = draw(
        st.lists(
            st.lists(st.integers(0, NUM_NODES - 1), max_size=6),
            min_size=1,
            max_size=3,
        )
    )
    return graph, structure, draw(st.integers(0, 2**16)), ops, seed_sets


def _rebuilt_index(pool):
    """node -> {sample: member mask}, straight from the reach sets."""
    index = {}
    for sample_idx, sample in enumerate(pool.samples):
        for member_idx, reach in enumerate(sample.reach_sets):
            for node in reach:
                masks = index.setdefault(node, {})
                masks[sample_idx] = masks.get(sample_idx, 0) | (1 << member_idx)
    return index


def _set_based_counts(pool, seeds):
    """``(Σ X_g, Σ min(|I_g|/h_g, 1))`` from per-sample member sets.

    Walks the distinct seeds, then samples and members in index order —
    the order of a ``(sample, member)`` pair scan — so the float sum is
    reproducible bit for bit.
    """
    covered = {}
    for v in set(seeds):
        for sample_idx, sample in enumerate(pool.samples):
            for member_idx, reach in enumerate(sample.reach_sets):
                if v in reach:
                    covered.setdefault(sample_idx, set()).add(member_idx)
    thresholds = [sample.threshold for sample in pool.samples]
    influenced = sum(
        1 for g, members in covered.items() if len(members) >= thresholds[g]
    )
    fractional = sum(
        min(len(members) / thresholds[g], 1.0)
        for g, members in covered.items()
    )
    return influenced, fractional


def _assert_index_consistent(pool, seed_sets):
    rebuilt = _rebuilt_index(pool)
    index = pool.mask_index
    assert set(index) == set(rebuilt)
    for node, masks in rebuilt.items():
        # Same entries in the same (ascending sample) order.
        assert list(index[node].items()) == list(masks.items())
    touching = pool.touching_nodes()
    assert len(touching) == len(set(touching))
    assert set(touching) == set(rebuilt)
    for node in range(NUM_NODES):
        masks = rebuilt.get(node, {})
        assert pool.touch_count(node) == len(masks)
        assert pool.samples_touched_by(node) == sorted(masks)
    for seeds in seed_sets:
        influenced, fractional = _set_based_counts(pool, seeds)
        assert pool.influenced_count(seeds) == influenced
        # float() because an empty sum is the int 0 on both paths.
        got = float(pool.fractional_count(seeds))
        assert got.hex() == float(fractional).hex()
        _, by_community = pool.influenced_count_by_community(seeds)
        assert sum(by_community.values()) == influenced


def _play(pool, ops, seed_sets):
    for op, arg in ops:
        if op == "add":
            pool.add(arg)
        else:
            pool.grow(arg)
        _assert_index_consistent(pool, seed_sets)


@given(pool_recipes())
@settings(max_examples=100, deadline=None)
def test_mask_index_matches_reach_sets_on_serial_pools(recipe):
    graph, structure, seed, ops, seed_sets = recipe
    pool = RICSamplePool(RICSampler(graph, structure, seed=seed))
    _play(pool, ops, seed_sets)


@given(pool_recipes())
@settings(max_examples=15, deadline=None)
def test_mask_index_matches_reach_sets_on_parallel_pools(recipe):
    graph, structure, seed, ops, seed_sets = recipe
    # Two workers and batches of 8: grows of 16+ samples fan out to
    # worker processes, smaller ones stay inline.
    with RICSampler(
        graph, structure, seed=seed, workers=2, batch_size=8
    ) as sampler:
        pool = RICSamplePool(sampler)
        _play(pool, ops, seed_sets)
