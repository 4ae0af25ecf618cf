"""Property-based coverage-engine equivalence.

``CoverageState`` (member sets over its own ``(sample, member)`` pairs,
built from the samples' reach sets) and ``FlatCoverage`` (the pool's
mask index, read in place with pruned entry lists) implement the same
incremental ĉ/ν state with completely different storage. Because the
reference never reads the mask index, agreeing with it checks the
index too. On any random pool and seed sequence both must agree — on
every marginal, every running count, and after resyncing past pool
growth. The strategies here deliberately generate degenerate shapes
(empty reaches, duplicate reach sets, saturated samples) because
pruning is the kind of code where stale state hides.
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

NUM_NODES = 12


def _make_structure(draw):
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


def _draw_samples(draw, structure, count):
    samples = []
    for _ in range(count):
        idx = draw(st.integers(0, len(structure) - 1))
        community = structure[idx]
        reaches = tuple(
            frozenset(
                draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=4))
                | {member}
            )
            for member in community.members
        )
        samples.append(
            ric_sample(idx, community.threshold, community.members, reaches)
        )
    return samples


@st.composite
def pool_seeds_growth(draw):
    structure = _make_structure(draw)
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), structure, seed=0))
    pool.add_many(_draw_samples(draw, structure, draw(st.integers(1, 6))))
    seeds = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=5
        )
    )
    growth = _draw_samples(draw, structure, draw(st.integers(0, 4)))
    late_seeds = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=0, max_size=3
        )
    )
    return pool, seeds, growth, late_seeds


def _assert_marginals_agree(reference, *engines):
    """Every node's (ĉ, ν) marginal is identical across the engines."""
    for v in range(NUM_NODES):
        expected = reference.gain_pair(v)
        for engine in engines:
            assert engine.gain_pair(v) == expected


@given(pool_seeds_growth())
@settings(max_examples=150, deadline=None)
def test_engines_agree_on_state_and_marginals(args):
    pool, seeds, _, _ = args
    reference = CoverageState(pool)
    flat = FlatCoverage(pool)
    _assert_marginals_agree(reference, flat)
    for v in seeds:
        reference.add_seed(v)
        flat.add_seed(v)
        # Every node's marginal after every seed: the flat engine's
        # pruned entry lists carry over from one round to the next.
        _assert_marginals_agree(reference, flat)
        assert flat.influenced_count == reference.influenced_count
        assert flat.fractional_count == pytest.approx(
            reference.fractional_count
        )
    assert flat.estimate_benefit() == pytest.approx(
        reference.estimate_benefit()
    )
    assert flat.estimate_upper_bound() == pytest.approx(
        reference.estimate_upper_bound()
    )
    # The pool's one-shot evaluation reads the same masks.
    assert pool.estimate_benefit(seeds) == reference.estimate_benefit()


@given(pool_seeds_growth())
@settings(max_examples=100, deadline=None)
def test_engines_agree_after_resync_growth(args):
    pool, seeds, growth, late_seeds = args
    reference = CoverageState(pool)
    flat = FlatCoverage(pool)
    for v in seeds:
        reference.add_seed(v)
        flat.add_seed(v)
    # Evaluate every node before the pool grows, so pruned entry lists
    # exist that resync() must not carry over.
    _assert_marginals_agree(reference, flat)
    pool.add_many(growth)
    reference.resync()
    flat.resync()
    _assert_marginals_agree(reference, flat)
    for v in late_seeds:
        if v in flat.seeds:
            continue
        assert flat.gain_pair(v) == reference.gain_pair(v)
        reference.add_seed(v)
        flat.add_seed(v)
    _assert_marginals_agree(reference, flat)
    assert flat.influenced_count == reference.influenced_count
    assert flat.estimate_benefit() == pytest.approx(
        reference.estimate_benefit()
    )
    # A fresh engine on the final pool+seeds agrees with the resynced
    # one — resync is not a distinct state machine.
    fresh = FlatCoverage(pool)
    for v in flat.seeds:
        fresh.add_seed(v)
    assert fresh.influenced_count == flat.influenced_count
    assert fresh.fractional_count == pytest.approx(flat.fractional_count)


@given(pool_seeds_growth())
@settings(max_examples=100, deadline=None)
def test_flat_engines_sharing_a_pool_keep_their_own_state(args):
    pool, seeds, _, late_seeds = args
    # Both flat engines read the pool's one mask index; each must see
    # only its own seeds and pruned entries.
    first, second = FlatCoverage(pool), FlatCoverage(pool)
    first_reference, second_reference = CoverageState(pool), CoverageState(pool)
    _assert_marginals_agree(first_reference, first, second)
    for v in seeds:
        first.add_seed(v)
        first_reference.add_seed(v)
        _assert_marginals_agree(first_reference, first)
        _assert_marginals_agree(second_reference, second)
    for v in late_seeds:
        second.add_seed(v)
        second_reference.add_seed(v)
        _assert_marginals_agree(second_reference, second)
        _assert_marginals_agree(first_reference, first)
    assert first.influenced_count == first_reference.influenced_count
    assert second.influenced_count == second_reference.influenced_count


def _empty_seed_pairs(pool):
    """Every node's cached empty-seed pair, with ν as ``float.hex``."""
    return [
        (c, nu.hex()) for c, nu in map(pool.empty_seed_gain, range(NUM_NODES))
    ]


def _reference_pairs(pool):
    reference = CoverageState(pool)
    return [
        (c, nu.hex()) for c, nu in map(reference.gain_pair, range(NUM_NODES))
    ]


@given(pool_seeds_growth())
@settings(max_examples=150, deadline=None)
def test_empty_seed_pairs_match_the_reference_and_follow_add(args):
    pool, _, growth, _ = args
    assert _empty_seed_pairs(pool) == _reference_pairs(pool)
    # A second read answers from the cache, and a fresh flat engine
    # with no seeds answers from it too.
    assert _empty_seed_pairs(pool) == _reference_pairs(pool)
    flat = FlatCoverage(pool)
    assert [flat.gain_pair(v) for v in range(NUM_NODES)] == [
        pool.empty_seed_gain(v) for v in range(NUM_NODES)
    ]
    # Each add() changes the index, so the pairs must follow it.
    for sample in growth:
        pool.add(sample)
        assert _empty_seed_pairs(pool) == _reference_pairs(pool)
