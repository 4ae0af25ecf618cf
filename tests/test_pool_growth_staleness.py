"""Regression tests: coverage engines vs. a pool that grows under them.

Both engines (reference and flat) snapshot the pool at construction.
Before the fix, growing the pool afterwards made a reused engine either
IndexError on new sample indices or silently ignore the new samples in
gains — corrupting the very doubling loop IMCAF relies on. Now every accessor fails fast with
SolverError and ``resync()`` reconciles the engine with the grown pool.
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


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resync_matches_fresh_engine(pool, engine_cls):
    """After resync, counters and every marginal equal those of an
    engine built from scratch on the grown pool with the same seeds."""
    seeds = sorted(pool.touching_nodes())[:3]
    state = engine_cls(pool)
    for node in seeds:
        state.add_seed(node)
    pool.grow(80)
    state.resync()

    fresh = engine_cls(pool)
    for node in seeds:
        fresh.add_seed(node)

    assert state.influenced_count == fresh.influenced_count
    assert state.fractional_count == pytest.approx(fresh.fractional_count)
    assert state.estimate_benefit() == pytest.approx(fresh.estimate_benefit())
    assert state.estimate_upper_bound() == pytest.approx(
        fresh.estimate_upper_bound()
    )
    for node in sorted(pool.touching_nodes()):
        assert state.gain_pair(node)[0] == fresh.gain_pair(node)[0]
        assert state.gain_pair(node)[1] == pytest.approx(
            fresh.gain_pair(node)[1]
        )


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resync_without_growth_is_noop(pool, engine_cls):
    state = engine_cls(pool)
    node = pool.touching_nodes()[0]
    state.add_seed(node)
    before = (state.influenced_count, state.fractional_count)
    state.resync()
    assert (state.influenced_count, state.fractional_count) == before


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_resynced_engine_keeps_working_incrementally(pool, engine_cls):
    state = engine_cls(pool)
    nodes = sorted(pool.touching_nodes())
    state.add_seed(nodes[0])
    pool.grow(40)
    state.resync()
    state.add_seed(nodes[1])

    fresh = engine_cls(pool)
    fresh.add_seed(nodes[0])
    fresh.add_seed(nodes[1])
    assert state.influenced_count == fresh.influenced_count
    assert state.fractional_count == pytest.approx(fresh.fractional_count)


def test_cross_engine_agreement_after_resync(pool):
    seeds = sorted(pool.touching_nodes())[:2]
    reference = CoverageState(pool)
    flat = FlatCoverage(pool)
    for node in seeds:
        reference.add_seed(node)
        flat.add_seed(node)
    pool.grow(60)
    reference.resync()
    flat.resync()
    assert reference.influenced_count == flat.influenced_count
    assert reference.fractional_count == pytest.approx(
        flat.fractional_count
    )
    for node in sorted(pool.touching_nodes()):
        assert reference.gain_pair(node) == flat.gain_pair(node)
