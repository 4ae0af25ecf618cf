"""Sample-pool tests: inverted indexes and objective estimates."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.errors import SamplingError
from repro.graph.builders import from_edge_list
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample, singletons


def _manual_pool():
    """Pool over a trivial instance, filled with hand-built samples."""
    graph = from_edge_list(6, [])
    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 5})))
    )
    pool.add(ric_sample(1, 1, (2,), (frozenset({2, 4}),)))
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1})))
    )
    return pool


def test_coverage_index():
    pool = _manual_pool()
    index = pool.mask_index
    # node -> {sample: member mask}, samples in ascending order; bit i
    # is member i of the sample.
    assert list(index[4].items()) == [(0, 0b01), (1, 0b1)]
    assert list(index[0].items()) == [(0, 0b01), (2, 0b01)]
    assert list(index[1].items()) == [(0, 0b10), (2, 0b10)]
    assert 99 not in index
    with pytest.raises(TypeError):
        index[99] = {}  # the view is read-only


def test_touch_counts_distinct_samples():
    pool = _manual_pool()
    assert pool.touch_count(4) == 2
    assert pool.touch_count(0) == 2
    assert pool.touch_count(5) == 1
    assert pool.touch_count(99) == 0
    assert set(pool.touching_nodes()) == {0, 1, 2, 4, 5}


def test_community_counts():
    pool = _manual_pool()
    assert pool.community_count(0) == 2
    assert pool.community_count(1) == 1
    assert pool.community_counts() == {0: 2, 1: 1}


def test_samples_touched_by():
    pool = _manual_pool()
    assert pool.samples_touched_by(4) == [0, 1]
    assert pool.samples_touched_by(1) == [0, 2]


def test_influenced_count_threshold_semantics():
    pool = _manual_pool()
    # Node 4 covers one member of sample 0 (h=2) and the member of
    # sample 1 (h=1) -> influences only sample 1.
    assert pool.influenced_count([4]) == 1
    # 4 + 5 cover both members of sample 0.
    assert pool.influenced_count([4, 5]) == 2
    # 0 + 1 influence samples 0 and 2.
    assert pool.influenced_count([0, 1]) == 2
    assert pool.influenced_count([]) == 0


def test_estimate_benefit_formula():
    pool = _manual_pool()
    b = pool.total_benefit
    assert b == 2.0
    assert pool.estimate_benefit([4, 5]) == pytest.approx(b * 2 / 3)
    assert pool.estimate_benefit([]) == 0.0


def test_fractional_count_and_upper_bound():
    pool = _manual_pool()
    # Seeds {4}: sample 0 -> 1/2, sample 1 -> 1/1.
    assert pool.fractional_count([4]) == pytest.approx(1.5)
    assert pool.estimate_upper_bound([4]) == pytest.approx(2.0 * 1.5 / 3)
    # nu >= c-hat everywhere (Lemma 3).
    for seeds in ([4], [0], [0, 1], [4, 5], [2]):
        assert (
            pool.estimate_upper_bound(seeds)
            >= pool.estimate_benefit(seeds) - 1e-12
        )


def test_empty_pool_estimates_zero():
    graph = from_edge_list(2, [])
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    assert pool.estimate_benefit([0]) == 0.0
    assert pool.estimate_upper_bound([0]) == 0.0


def test_grow_and_grow_to():
    graph = from_edge_list(3, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1, 2), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=2))
    pool.grow(10)
    assert len(pool) == 10
    pool.grow_to(25)
    assert len(pool) == 25
    pool.grow_to(5)  # never shrinks
    assert len(pool) == 25
    with pytest.raises(SamplingError):
        pool.grow(-1)


def test_pool_estimates_converge_to_exact():
    from repro.diffusion.simulator import community_benefit_exact

    graph = from_edge_list(4, [(0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    communities = CommunityStructure(
        [Community(members=(2, 3), threshold=2, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=3))
    pool.grow(30_000)
    exact = community_benefit_exact(graph, communities, [0, 1])
    assert pool.estimate_benefit([0, 1]) == pytest.approx(exact, abs=0.02)


# --------------------------------------------- RR pool (singleton communities)


def test_rr_pool_membership_and_coverage():
    # RR sets {0, 1} (root 1) and {2} (root 2): coverage is the
    # influenced count and the spread estimate is n * coverage / |R|.
    graph = from_edge_list(3, [(0, 1, 1.0), (1, 2, 1.0)])
    pool = RICSamplePool(RICSampler(graph, singletons(3), seed=4))
    pool.add(ric_sample(1, 1, (1,), [{0, 1}]))
    pool.add(ric_sample(2, 1, (2,), [{2}]))
    assert pool.samples_touched_by(0) == [0]
    assert pool.influenced_count([0]) == 1
    assert pool.influenced_count([0, 2]) == 2
    assert pool.influenced_count([]) == 0
    assert pool.estimate_benefit([0, 2]) == pytest.approx(3 * 2 / 2)


def test_rr_pool_grow_and_empty_estimate():
    graph = from_edge_list(3, [(0, 1, 0.5)])
    pool = RICSamplePool(RICSampler(graph, singletons(3), seed=5))
    assert pool.estimate_benefit([0]) == 0.0
    pool.grow(12)
    assert len(pool) == 12
    with pytest.raises(SamplingError):
        pool.grow(-3)
