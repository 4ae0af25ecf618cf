"""Member-mask (bitset) coverage tests: exact equivalence with the
reference engine.

The pool indexes each node's coverage as per-sample member bitmasks and
the flat engine works on them with ANDs and popcounts; these tests pin
that arithmetic on a hand-built pool and on random ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample

NUM_NODES = 10


def _manual_pool():
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), communities, seed=1))
    pool.add(ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5}))))
    pool.add(ric_sample(1, 1, (2,), (frozenset({2, 4}),)))
    return pool


def test_matches_reference_step_by_step():
    pool = _manual_pool()
    # Node 4 reaches member 0 of both samples; 0/1 and 5 one member
    # each of sample 0.
    assert dict(pool.mask_index[4]) == {0: 0b01, 1: 0b1}
    assert dict(pool.mask_index[0]) == {0: 0b01}
    assert dict(pool.mask_index[5]) == {0: 0b10}
    ref = CoverageState(pool)
    fast = FlatCoverage(pool)
    for node in (4, 5, 0, 2, 1):
        assert fast.gain_pair(node) == (
            ref.gain_influenced(node),
            pytest.approx(ref.gain_fractional(node)),
        )
        ref.add_seed(node)
        fast.add_seed(node)
        assert fast.influenced_count == ref.influenced_count
        assert fast.fractional_count == pytest.approx(ref.fractional_count)
        assert fast.estimate_benefit() == pytest.approx(ref.estimate_benefit())
        assert fast.estimate_upper_bound() == pytest.approx(
            ref.estimate_upper_bound()
        )


def test_duplicate_seed_rejected():
    fast = FlatCoverage(_manual_pool())
    fast.add_seed(4)
    with pytest.raises(SolverError):
        fast.add_seed(4)


def test_gain_of_seed_is_zero():
    fast = FlatCoverage(_manual_pool())
    fast.add_seed(4)
    assert fast.gain_pair(4) == (0, 0.0)


def test_unknown_node_gains_nothing():
    fast = FlatCoverage(_manual_pool())
    assert fast.gain_pair(99) == (0, 0.0)
    fast.add_seed(99)  # harmless: touches nothing
    assert fast.influenced_count == 0


@st.composite
def random_pool_and_seed_order(draw):
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
                benefit=1.0,
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
        pool.add(
            ric_sample(idx, community.threshold, community.members, reaches)
        )
    order = draw(
        st.lists(
            st.integers(0, NUM_NODES - 1), unique=True, min_size=1, max_size=6
        )
    )
    return pool, order


@given(random_pool_and_seed_order())
@settings(max_examples=150, deadline=None)
def test_property_equivalence_with_reference(args):
    pool, order = args
    ref = CoverageState(pool)
    fast = FlatCoverage(pool)
    for node in order:
        assert fast.gain_pair(node)[0] == ref.gain_pair(node)[0]
        assert fast.gain_pair(node)[1] == pytest.approx(ref.gain_pair(node)[1])
        ref.add_seed(node)
        fast.add_seed(node)
    assert fast.influenced_count == ref.influenced_count
    assert fast.fractional_count == pytest.approx(ref.fractional_count)
