"""Property-based three-way coverage-engine equivalence.

``CoverageState`` (sets), ``BitsetCoverage`` (mask dicts) and
``FlatCoverage`` (compiled flat arrays) implement the same incremental
ĉ/ν state with completely different storage. On any random pool and
seed sequence all three must agree — on every marginal, every running
count, and after resyncing past pool growth. The strategies here
deliberately generate degenerate shapes (empty reaches, duplicate reach
sets, saturated samples) because the flat engine's compile step is the
kind of code where off-by-one slot boundaries hide.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.bitset_engine import BitsetCoverage
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState, evaluate_benefit
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSample, RICSampler

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
            RICSample(idx, community.threshold, community.members, reaches)
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
def test_three_engines_agree_on_state_and_marginals(args):
    pool, seeds, _, _ = args
    reference = CoverageState(pool)
    bitset = BitsetCoverage(pool)
    flat = FlatCoverage(pool)
    _assert_marginals_agree(reference, bitset, flat)
    for v in seeds:
        reference.add_seed(v)
        bitset.add_seed(v)
        flat.add_seed(v)
        # Every node's marginal after every seed: the flat engine's
        # pruned entry lists carry over from one round to the next.
        _assert_marginals_agree(reference, bitset, flat)
        assert flat.influenced_count == reference.influenced_count
        assert bitset.influenced_count == reference.influenced_count
        assert flat.fractional_count == pytest.approx(
            reference.fractional_count
        )
    assert flat.estimate_benefit() == pytest.approx(
        reference.estimate_benefit()
    )
    assert flat.estimate_upper_bound() == pytest.approx(
        reference.estimate_upper_bound()
    )
    assert evaluate_benefit(pool, seeds, "flat") == pytest.approx(
        evaluate_benefit(pool, seeds, "reference")
    )


@given(pool_seeds_growth())
@settings(max_examples=100, deadline=None)
def test_engines_agree_after_resync_growth(args):
    pool, seeds, growth, late_seeds = args
    reference = CoverageState(pool)
    bitset = BitsetCoverage(pool)
    flat = FlatCoverage(pool)
    for v in seeds:
        reference.add_seed(v)
        bitset.add_seed(v)
        flat.add_seed(v)
    # Evaluate every node before the pool grows, so pruned entry lists
    # and the compiled index exist that resync() must not carry over.
    _assert_marginals_agree(reference, bitset, flat)
    pool.add_many(growth)
    reference.resync()
    bitset.resync()
    flat.resync()
    _assert_marginals_agree(reference, bitset, flat)
    for v in late_seeds:
        if v in flat.seeds:
            continue
        expected = reference.gain_pair(v)
        assert bitset.gain_pair(v) == expected
        assert flat.gain_pair(v) == expected
        reference.add_seed(v)
        bitset.add_seed(v)
        flat.add_seed(v)
    _assert_marginals_agree(reference, bitset, flat)
    assert flat.influenced_count == reference.influenced_count
    assert bitset.influenced_count == reference.influenced_count
    assert flat.estimate_benefit() == pytest.approx(
        reference.estimate_benefit()
    )
    # A fresh compile of the final pool+seeds agrees with the resynced
    # engine — resync is not a distinct state machine.
    fresh = FlatCoverage(pool)
    for v in flat.seeds:
        fresh.add_seed(v)
    assert fresh.influenced_count == flat.influenced_count
    assert fresh.fractional_count == pytest.approx(flat.fractional_count)


@given(pool_seeds_growth())
@settings(max_examples=100, deadline=None)
def test_flat_engines_sharing_a_pool_keep_their_own_state(args):
    pool, seeds, _, late_seeds = args
    # Both flat engines read the pool's one compiled index; each must
    # see only its own seeds and pruned entries.
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
