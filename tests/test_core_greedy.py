"""Greedy primitive tests: eager ĉ greedy and CELF ν greedy."""

import itertools

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.greedy import greedy_eager_nu, greedy_maxr, lazy_greedy_nu
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample


def _pool_with(samples, num_nodes=10):
    graph = from_edge_list(num_nodes, [])
    members = sorted({m for s in samples for m in s.members})
    communities = CommunityStructure(
        [Community(members=tuple(members), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    for s in samples:
        pool.add(s)
    return pool


def test_greedy_maxr_k_zero_and_negative():
    pool = _pool_with(
        [ric_sample(0, 1, (0,), (frozenset({0}),))]
    )
    assert greedy_maxr(pool, 0) == []
    with pytest.raises(SolverError):
        greedy_maxr(pool, -1)


def test_greedy_maxr_picks_best_cover():
    samples = [
        ric_sample(0, 1, (0,), (frozenset({0, 7}),)),
        ric_sample(0, 1, (0,), (frozenset({0, 7}),)),
        ric_sample(0, 1, (0,), (frozenset({8}),)),
    ]
    pool = _pool_with(samples)
    seeds = greedy_maxr(pool, 2)
    # 7 (or 0) covers two samples; 8 the third.
    assert pool.influenced_count(seeds) == 3


def test_greedy_maxr_tie_break_uses_fractional_progress():
    """With h=2 samples no single node has positive ĉ gain; the
    fractional tie-break should still pick the node covering the most
    members instead of node 0."""
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 5}), frozenset({1, 6}))),
        ric_sample(0, 2, (0, 1), (frozenset({0, 5}), frozenset({1, 5}))),
    ]
    pool = _pool_with(samples)
    seeds = greedy_maxr(pool, 2)
    assert 5 in seeds  # 5 covers 3 member-slots, most progress
    assert pool.influenced_count(seeds) >= 1


def test_greedy_maxr_respects_candidate_restriction():
    samples = [ric_sample(0, 1, (0,), (frozenset({0, 5, 6}),))]
    pool = _pool_with(samples)
    seeds = greedy_maxr(pool, 1, candidates=[6])
    assert seeds == [6]


def test_lazy_greedy_nu_equals_eager():
    """CELF must match eager greedy on the submodular ν objective."""
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4}))),
        ric_sample(0, 2, (0, 1), (frozenset({0, 5}), frozenset({1, 6}))),
        ric_sample(0, 1, (0,), (frozenset({7}),)),
        ric_sample(0, 2, (0, 1), (frozenset({4, 5}), frozenset({6, 7}))),
    ]
    pool = _pool_with(samples)
    for k in range(1, 6):
        lazy = lazy_greedy_nu(pool, k)
        eager = greedy_eager_nu(pool, k)
        assert pool.fractional_count(lazy) == pytest.approx(
            pool.fractional_count(eager)
        ), k


def test_lazy_greedy_nu_on_random_pools():
    """Objective equality lazy vs eager on sampled pools."""
    graph = from_edge_list(
        12,
        [(i, j, 0.4) for i in range(6) for j in range(6, 12) if (i + j) % 3],
    )
    communities = CommunityStructure(
        [
            Community(members=(6, 7, 8), threshold=2, benefit=2.0),
            Community(members=(9, 10, 11), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=5))
    pool.grow(150)
    for k in (1, 3, 5):
        lazy = lazy_greedy_nu(pool, k)
        eager = greedy_eager_nu(pool, k)
        assert pool.fractional_count(lazy) == pytest.approx(
            pool.fractional_count(eager)
        )


def test_greedy_nu_matches_brute_force_on_tiny_pool():
    """Greedy ν achieves >= (1-1/e) of the exhaustive optimum."""
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5}))),
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4}))),
        ric_sample(0, 1, (0,), (frozenset({5, 6}),)),
    ]
    pool = _pool_with(samples)
    k = 2
    nodes = pool.touching_nodes()
    best = max(
        pool.fractional_count(combo)
        for combo in itertools.combinations(nodes, k)
    )
    achieved = pool.fractional_count(lazy_greedy_nu(pool, k))
    assert achieved >= (1 - 1 / 2.718281828) * best - 1e-9


def test_greedy_returns_fewer_when_pool_small():
    pool = _pool_with([ric_sample(0, 1, (0,), (frozenset({0}),))])
    assert len(greedy_maxr(pool, 5)) <= 1
    assert len(lazy_greedy_nu(pool, 5)) <= 1


def test_lazy_greedy_validates_k():
    pool = _pool_with([ric_sample(0, 1, (0,), (frozenset({0}),))])
    with pytest.raises(SolverError):
        lazy_greedy_nu(pool, -2)
    with pytest.raises(SolverError):
        greedy_eager_nu(pool, -2)
