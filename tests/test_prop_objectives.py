"""Property-based tests of the paper's objective-function lemmas.

- ``ν_R`` is monotone and submodular (Lemma 3's submodularity claim);
- ``ĉ_R ≤ ν_R`` everywhere (Lemma 3);
- ``ĉ_R = ν_R`` when every threshold is 1 (Lemma 4);
- ``ĉ_R`` is monotone (trivially true, but exercised);
- Lemma 5's sandwich on the influenced count.

Pools are generated directly as random collections of RIC samples —
the lemmas hold for *any* collection, not just sampled ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communities.structure import Community, CommunityStructure
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample

NUM_NODES = 10


@st.composite
def random_pools(draw, force_unit_thresholds=False):
    """A pool of hand-constructed RIC samples over NUM_NODES nodes."""
    num_communities = draw(st.integers(1, 3))
    communities = []
    next_node = 0
    for _ in range(num_communities):
        size = draw(st.integers(1, 3))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        threshold = 1 if force_unit_thresholds else draw(st.integers(1, size))
        communities.append(
            Community(members=members, threshold=threshold, benefit=1.0)
        )
    structure = CommunityStructure(communities)
    graph = DiGraph(NUM_NODES)
    pool = RICSamplePool(RICSampler(graph, structure, seed=0))
    num_samples = draw(st.integers(1, 6))
    for _ in range(num_samples):
        community_index = draw(st.integers(0, num_communities - 1))
        community = structure[community_index]
        reach_sets = []
        for member in community.members:
            extra = draw(
                st.sets(st.integers(0, NUM_NODES - 1), max_size=4)
            )
            reach_sets.append(frozenset(extra | {member}))
        pool.add(
            ric_sample(
                community_index,
                community.threshold,
                community.members,
                tuple(reach_sets),
            )
        )
    return pool


seed_sets = st.sets(st.integers(0, NUM_NODES - 1), max_size=6)


@given(random_pools(), seed_sets, st.integers(0, NUM_NODES - 1))
@settings(max_examples=200, deadline=None)
def test_nu_monotone(pool, seeds, extra):
    assert pool.estimate_upper_bound(seeds | {extra}) >= (
        pool.estimate_upper_bound(seeds) - 1e-12
    )


@given(random_pools(), seed_sets, st.integers(0, NUM_NODES - 1))
@settings(max_examples=200, deadline=None)
def test_c_hat_monotone(pool, seeds, extra):
    assert pool.estimate_benefit(seeds | {extra}) >= (
        pool.estimate_benefit(seeds) - 1e-12
    )


@given(
    random_pools(),
    seed_sets,
    seed_sets,
    st.integers(0, NUM_NODES - 1),
)
@settings(max_examples=200, deadline=None)
def test_nu_submodular(pool, small, big_extra, v):
    """Diminishing returns: gain of v at S <= gain of v at subset T of S."""
    small = frozenset(small)
    big = small | big_extra
    gain_small = pool.fractional_count(small | {v}) - pool.fractional_count(small)
    gain_big = pool.fractional_count(big | {v}) - pool.fractional_count(big)
    assert gain_big <= gain_small + 1e-9


@given(random_pools(), seed_sets)
@settings(max_examples=200, deadline=None)
def test_c_hat_bounded_by_nu(pool, seeds):
    assert pool.estimate_benefit(seeds) <= pool.estimate_upper_bound(seeds) + 1e-12


@given(random_pools(force_unit_thresholds=True), seed_sets)
@settings(max_examples=200, deadline=None)
def test_lemma4_equality_at_unit_thresholds(pool, seeds):
    assert pool.estimate_benefit(seeds) == pytest.approx(
        pool.estimate_upper_bound(seeds)
    )


@given(random_pools(), seed_sets)
@settings(max_examples=200, deadline=None)
def test_objectives_within_range(pool, seeds):
    b = pool.total_benefit
    assert 0.0 <= pool.estimate_benefit(seeds) <= b + 1e-12
    assert 0.0 <= pool.estimate_upper_bound(seeds) <= b + 1e-12


@given(random_pools(), seed_sets)
@settings(max_examples=150, deadline=None)
def test_lemma5_sandwich(pool, seeds):
    """max_u |D(S,u)| <= Σ X_g(S) <= Σ_u |D(S,u)| for u in S."""
    if not seeds:
        return
    influenced = pool.influenced_count(seeds)

    def d_size(u):
        touched = pool.samples_touched_by(u)
        return sum(
            1
            for g_idx in touched
            if pool.samples[g_idx].covered_members(seeds)
            >= pool.samples[g_idx].threshold
        )

    sizes = [d_size(u) for u in seeds]
    assert max(sizes) <= influenced <= sum(sizes)
