"""Empirical non-submodularity analysis tests."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.curvature import (
    NonSubmodularityProfile,
    probe_nonsubmodularity,
    submodularity_violation_rate,
    supermodularity_violation_rate,
    weak_submodularity_gamma,
)
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample


def _unit_threshold_pool():
    """All thresholds 1: ĉ_R is genuinely submodular (Lemma 4)."""
    communities = CommunityStructure(
        [Community(members=(i,), threshold=1, benefit=1.0) for i in range(3)]
    )
    pool = RICSamplePool(RICSampler(DiGraph(8), communities, seed=1))
    pool.add(ric_sample(0, 1, (0,), (frozenset({0, 4, 5}),)))
    pool.add(ric_sample(1, 1, (1,), (frozenset({1, 5}),)))
    pool.add(ric_sample(2, 1, (2,), (frozenset({2, 6}),)))
    return pool


def _lemma2_pool():
    """The Lemma 2 instance: a single h=2 sample — supermodular jump."""
    communities = CommunityStructure(
        [Community(members=(0, 1), threshold=2, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(DiGraph(8), communities, seed=1))
    # Replicated so random probes hit it often; reach sets include
    # helper nodes 4/5 so the probe has enough touching nodes.
    for _ in range(5):
        pool.add(
            ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5})))
        )
    return pool


def test_unit_thresholds_have_no_submodularity_violations():
    pool = _unit_threshold_pool()
    profile = probe_nonsubmodularity(pool, trials=300, seed=2)
    assert profile.is_effectively_submodular
    assert profile.gamma_lower_bound == 1.0
    assert profile.submodularity_violation_rate == 0.0


def test_lemma2_pool_shows_submodularity_violations():
    pool = _lemma2_pool()
    profile = probe_nonsubmodularity(pool, trials=400, seed=3)
    # gain(v=1 | {0}) = 5 > gain(v=1 | {}) = 0 — violations must appear.
    assert profile.submodularity_violations > 0
    assert profile.gamma_lower_bound < 1.0


def test_c_hat_is_not_supermodular_either():
    """A submodular-looking pool must show supermodularity violations
    (diminishing returns = increasing-returns failures)."""
    pool = _unit_threshold_pool()
    rate = supermodularity_violation_rate(pool, trials=300, seed=4)
    assert rate > 0.0


def test_convenience_wrappers_match_profile():
    pool = _lemma2_pool()
    profile = probe_nonsubmodularity(pool, trials=200, seed=5)
    assert submodularity_violation_rate(pool, trials=200, seed=5) == (
        profile.submodularity_violation_rate
    )
    assert weak_submodularity_gamma(pool, trials=200, seed=5) == (
        profile.gamma_lower_bound
    )


def test_profile_counters_consistent():
    pool = _lemma2_pool()
    profile = probe_nonsubmodularity(pool, trials=150, seed=6)
    assert isinstance(profile, NonSubmodularityProfile)
    assert 0 <= profile.submodularity_violations <= profile.trials
    assert 0 <= profile.supermodularity_violations <= profile.trials
    assert 0.0 <= profile.gamma_lower_bound <= 1.0


def test_validation():
    pool = _lemma2_pool()
    with pytest.raises(SolverError):
        probe_nonsubmodularity(pool, trials=0)
    with pytest.raises(SolverError):
        probe_nonsubmodularity(pool, trials=10, max_set_size=0)
    tiny = RICSamplePool(
        RICSampler(
            DiGraph(2),
            CommunityStructure(
                [Community(members=(0,), threshold=1, benefit=1.0)]
            ),
            seed=1,
        )
    )
    tiny.add(ric_sample(0, 1, (0,), (frozenset({0}),)))
    with pytest.raises(SolverError, match="3 touching nodes"):
        probe_nonsubmodularity(tiny, trials=10)


def test_bounded_thresholds_less_violating_than_fractional():
    """The Fig. 8 story, measured directly: smaller thresholds produce
    fewer diminishing-returns violations."""
    from repro.graph.generators import planted_partition_graph
    from repro.graph.weights import assign_weighted_cascade
    from repro.communities.thresholds import (
        build_structure,
        constant_thresholds,
        fractional_thresholds,
    )

    graph, blocks = planted_partition_graph(
        [8] * 4, p_in=0.5, p_out=0.03, directed=True, seed=7
    )
    assign_weighted_cascade(graph)
    rates = {}
    for label, policy in (
        ("bounded", constant_thresholds(2)),
        ("fractional", fractional_thresholds(0.5)),
    ):
        communities = build_structure(
            blocks, size_cap=8, threshold_policy=policy
        )
        pool = RICSamplePool(RICSampler(graph, communities, seed=8))
        pool.grow(200)
        rates[label] = submodularity_violation_rate(pool, trials=250, seed=9)
    assert rates["bounded"] <= rates["fractional"] + 0.02
