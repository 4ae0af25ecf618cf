"""CoverageState tests: incremental bookkeeping and marginal gains."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample


@pytest.fixture
def manual_pool():
    graph = from_edge_list(6, [])
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    pool.add(ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5}))))
    pool.add(ric_sample(1, 1, (2,), (frozenset({2, 4}),)))
    return pool


def test_initial_state_is_zero(manual_pool):
    state = CoverageState(manual_pool)
    assert state.influenced_count == 0
    assert state.fractional_count == 0.0
    assert state.estimate_benefit() == 0.0
    assert state.estimate_upper_bound() == 0.0


def test_add_seed_updates_counts(manual_pool):
    state = CoverageState(manual_pool)
    state.add_seed(4)  # half of sample 0, all of sample 1
    assert state.influenced_count == 1
    assert state.fractional_count == pytest.approx(0.5 + 1.0)
    state.add_seed(5)  # completes sample 0
    assert state.influenced_count == 2
    assert state.fractional_count == pytest.approx(2.0)


def test_add_seed_idempotent_coverage(manual_pool):
    state = CoverageState(manual_pool)
    state.add_seed(4)
    state.add_seed(0)  # covers member 0 of sample 0, already covered by 4
    assert state.fractional_count == pytest.approx(1.5)


def test_duplicate_seed_rejected(manual_pool):
    state = CoverageState(manual_pool)
    state.add_seed(4)
    with pytest.raises(SolverError):
        state.add_seed(4)


def test_gains_match_actual_deltas(manual_pool):
    state = CoverageState(manual_pool)
    for node in (4, 5, 0, 1, 2):
        gain_c = state.gain_influenced(node)
        gain_nu = state.gain_fractional(node)
        pair = state.gain_pair(node)
        assert pair == (gain_c, pytest.approx(gain_nu))
        before_c = state.influenced_count
        before_nu = state.fractional_count
        state.add_seed(node)
        assert state.influenced_count - before_c == gain_c
        assert state.fractional_count - before_nu == pytest.approx(gain_nu)


def test_gain_of_existing_seed_is_zero(manual_pool):
    state = CoverageState(manual_pool)
    state.add_seed(4)
    assert state.gain_influenced(4) == 0
    assert state.gain_fractional(4) == 0.0
    assert state.gain_pair(4) == (0, 0.0)


def test_gain_threshold_jump(manual_pool):
    """A node covering BOTH members of an h=2 sample gains 1 at once."""
    pool = manual_pool
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0, 3}), frozenset({1, 3})))
    )
    state = CoverageState(pool)
    assert state.gain_influenced(3) == 1
    state.add_seed(3)
    assert state.influenced_count == 1


def test_estimates_match_pool_formulas(manual_pool):
    state = CoverageState(manual_pool)
    state.add_seed(4)
    state.add_seed(5)
    assert state.estimate_benefit() == pytest.approx(
        manual_pool.estimate_benefit([4, 5])
    )
    assert state.estimate_upper_bound() == pytest.approx(
        manual_pool.estimate_upper_bound([4, 5])
    )
