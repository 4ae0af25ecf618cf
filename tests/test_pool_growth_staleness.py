"""Regression tests: coverage engines vs. a pool that grows under them.

Both engines (reference and flat) snapshot the pool at construction.
Before the fix, growing the pool afterwards made a reused engine either
IndexError on new sample indices or silently ignore the new samples in
gains — corrupting the very doubling loop IMCAF relies on. Now every
accessor fails fast with SolverError, and a grown pool takes a fresh
engine: the tests below check that a fresh engine answers what the
grown pool does. (The engines had a ``resync()`` once; the ids that
name it are kept.)
"""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

ENGINES = [CoverageState, FlatCoverage]


@pytest.fixture
def pool():
    graph, blocks = planted_partition_graph(
        [5] * 4, p_in=0.6, p_out=0.05, directed=True, seed=23
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    result = RICSamplePool(RICSampler(graph, communities, seed=23))
    result.grow(120)
    return result


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_stale_engine_fails_fast_after_growth(pool, engine_cls):
    state = engine_cls(pool)
    node = pool.touching_nodes()[0]
    state.add_seed(node)
    pool.grow(40)
    probe = pool.touching_nodes()[1]
    with pytest.raises(SolverError, match="grew"):
        state.add_seed(probe)
    with pytest.raises(SolverError, match="grew"):
        state.gain_influenced(probe)
    with pytest.raises(SolverError, match="grew"):
        state.gain_fractional(probe)
    with pytest.raises(SolverError, match="grew"):
        state.gain_pair(probe)
    with pytest.raises(SolverError, match="grew"):
        state.estimate_benefit()
    with pytest.raises(SolverError, match="grew"):
        state.estimate_upper_bound()


def _assert_matches_pool(state, pool, seeds):
    """``state`` (holding ``seeds``) agrees with the pool's own counts,
    and every node's marginal pair with the pool's count differences."""
    assert state.influenced_count == pool.influenced_count(seeds)
    assert state.fractional_count == pytest.approx(
        pool.fractional_count(seeds)
    )
    assert state.estimate_benefit() == pytest.approx(
        pool.estimate_benefit(seeds)
    )
    assert state.estimate_upper_bound() == pytest.approx(
        pool.estimate_upper_bound(seeds)
    )
    base_c = pool.influenced_count(seeds)
    base_nu = pool.fractional_count(seeds)
    for node in sorted(pool.touching_nodes()):
        if node in seeds:
            continue
        gain_c, gain_nu = state.gain_pair(node)
        assert gain_c == pool.influenced_count(seeds + [node]) - base_c
        assert gain_nu == pytest.approx(
            pool.fractional_count(seeds + [node]) - base_nu
        )


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resync_matches_fresh_engine(pool, engine_cls):
    """After growth the old engine refuses, and a fresh engine given
    the same seeds matches the grown pool: counters and every
    marginal."""
    seeds = sorted(pool.touching_nodes())[:3]
    state = engine_cls(pool)
    for node in seeds:
        state.add_seed(node)
    pool.grow(80)
    with pytest.raises(SolverError, match="build a fresh"):
        state.gain_pair(seeds[0])

    fresh = engine_cls(pool)
    for node in seeds:
        fresh.add_seed(node)
    _assert_matches_pool(fresh, pool, seeds)


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resync_without_growth_is_noop(pool, engine_cls):
    """Without growth an engine needs no rebuild: it keeps answering
    what the pool does."""
    state = engine_cls(pool)
    node = pool.touching_nodes()[0]
    state.add_seed(node)
    _assert_matches_pool(state, pool, [node])


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resynced_engine_keeps_working_incrementally(pool, engine_cls):
    """A fresh engine on the grown pool keeps adding seeds correctly."""
    nodes = sorted(pool.touching_nodes())
    pool.grow(40)
    fresh = engine_cls(pool)
    fresh.add_seed(nodes[0])
    _assert_matches_pool(fresh, pool, nodes[:1])
    fresh.add_seed(nodes[1])
    _assert_matches_pool(fresh, pool, nodes[:2])


def test_cross_engine_agreement_after_resync(pool):
    """Fresh reference and flat engines on the grown pool agree."""
    seeds = sorted(pool.touching_nodes())[:2]
    pool.grow(60)
    reference = CoverageState(pool)
    flat = FlatCoverage(pool)
    for node in seeds:
        reference.add_seed(node)
        flat.add_seed(node)
    assert reference.influenced_count == flat.influenced_count
    assert reference.fractional_count == pytest.approx(
        flat.fractional_count
    )
    for node in sorted(pool.touching_nodes()):
        assert reference.gain_pair(node) == flat.gain_pair(node)
