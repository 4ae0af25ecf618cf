"""RIC sampling tests (Algorithm 1), including unbiasedness (Lemma 1)."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.diffusion.simulator import community_benefit_exact
from repro.errors import SamplingError
from repro.graph.builders import from_edge_list
from repro.rng import make_rng
from repro.sampling.ric import RICSample, RICSampler

from tests.ric_samples import ric_sample


@pytest.fixture
def small_instance():
    """4-node graph: 0 -> 2, 1 -> 3, 2 -> 3; community {2, 3}, h=2."""
    graph = from_edge_list(4, [(0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    communities = CommunityStructure(
        [Community(members=(2, 3), threshold=2, benefit=1.0)]
    )
    return graph, communities


# -------------------------------------------------------------- RICSample


def test_ric_sample_validation():
    with pytest.raises(SamplingError):
        RICSample(0, 1, members=(1, 2), nodes=(1, 2), masks=(1,))
    with pytest.raises(SamplingError):
        RICSample(0, 3, members=(1, 2), nodes=(1, 2), masks=(1, 2))


def test_ric_sample_covered_and_influenced():
    sample = ric_sample(
        community_index=0,
        threshold=2,
        members=(10, 11),
        reach_sets=(frozenset({10, 1}), frozenset({11, 2})),
    )
    assert sample.covered_members([1]) == 1
    assert sample.covered_members([1, 2]) == 2
    assert not sample.is_influenced_by([1])
    assert sample.is_influenced_by([1, 2])
    assert sample.is_influenced_by([10, 11])
    assert not sample.is_influenced_by([])


def test_ric_sample_touched_nodes():
    sample = ric_sample(
        community_index=0,
        threshold=1,
        members=(5,),
        reach_sets=(frozenset({5, 7, 9}),),
    )
    assert sample.touched_nodes() == {5, 7, 9}


# -------------------------------------------------------------- sampler


def test_member_always_in_own_reach_set(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=1)
    for _ in range(20):
        sample = sampler.sample()
        for member, reach in zip(sample.members, sample.reach_sets):
            assert member in reach


def test_reach_sets_only_contain_reverse_reachable_nodes(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=2)
    # Structurally, only {0, 2} can ever reach 2, and {0, 1, 2, 3} can reach 3.
    for _ in range(50):
        sample = sampler.sample()
        reach_2 = sample.reach_sets[sample.members.index(2)]
        reach_3 = sample.reach_sets[sample.members.index(3)]
        assert reach_2 <= {0, 2}
        assert reach_3 <= {0, 1, 2, 3}


def test_forced_source_community(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=3)
    sample = sampler.sample(community_index=0)
    assert sample.community_index == 0
    assert sample.threshold == communities[0].threshold
    assert sample.members == communities[0].members


def test_source_distribution_follows_benefits():
    graph = from_edge_list(4, [])
    communities = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=3.0),
            Community(members=(1,), threshold=1, benefit=1.0),
        ]
    )
    sampler = RICSampler(graph, communities, seed=4)
    counts = [0, 0]
    trials = 20_000
    for _ in range(trials):
        counts[sampler.sample().community_index] += 1
    assert counts[0] / trials == pytest.approx(0.75, abs=0.02)


def test_edge_memoization_consistency():
    """A shared edge must have ONE realisation per sample: reach sets of
    different members never disagree about the same edge."""
    # 0 -> 1 and 0 -> 2; community {1, 2}. If 0 in R(1) it's because edge
    # (0,1) realised — independent of (0,2). Build a diamond where the
    # same edge feeds both members: 3 -> 0, 0 -> 1, 0 -> 2.
    graph = from_edge_list(4, [(3, 0, 0.5), (0, 1, 0.5), (0, 2, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1, 2), threshold=1, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=5)
    for _ in range(200):
        sample = sampler.sample()
        reach_1, reach_2 = sample.reach_sets
        # If 0 reaches both members, the (3,0) coin is shared: node 3
        # must appear in both reach sets or in neither.
        if 0 in reach_1 and 0 in reach_2:
            assert (3 in reach_1) == (3 in reach_2)


def test_unbiasedness_lemma1(small_instance):
    """Lemma 1: c(S) = b * E[X_g(S)], validated against exact enumeration."""
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=6)
    trials = 30_000
    for seeds in ([0, 1], [2], [1, 2], [0, 1, 2]):
        exact = community_benefit_exact(graph, communities, seeds)
        hits = sum(
            sampler.sample().is_influenced_by(seeds) for _ in range(trials)
        )
        estimate = communities.total_benefit * hits / trials
        assert estimate == pytest.approx(exact, abs=0.015), seeds


def test_unbiasedness_multiple_communities():
    graph = from_edge_list(
        5, [(0, 1, 0.4), (0, 2, 0.6), (3, 4, 0.5)]
    )
    communities = CommunityStructure(
        [
            Community(members=(1, 2), threshold=1, benefit=2.0),
            Community(members=(4,), threshold=1, benefit=1.0),
        ]
    )
    sampler = RICSampler(graph, communities, seed=7)
    trials = 40_000
    for seeds in ([0], [3], [0, 3]):
        exact = community_benefit_exact(graph, communities, seeds)
        hits = sum(
            sampler.sample().is_influenced_by(seeds) for _ in range(trials)
        )
        estimate = communities.total_benefit * hits / trials
        assert estimate == pytest.approx(exact, abs=0.03), seeds


def test_sample_many(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=8)
    samples = sampler.sample_many(25)
    assert len(samples) == 25
    with pytest.raises(SamplingError):
        sampler.sample_many(-1)


def test_sampler_validates_community_node_ids():
    graph = from_edge_list(2, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(5,), threshold=1, benefit=1.0)]
    )
    from repro.errors import CommunityError

    with pytest.raises(CommunityError):
        RICSampler(graph, communities, seed=1)


def test_sampler_deterministic_with_seed(small_instance):
    graph, communities = small_instance
    a = RICSampler(graph, communities, seed=11).sample_many(10)
    b = RICSampler(graph, communities, seed=11).sample_many(10)
    assert a == b


# ------------------------------------------- zero-benefit source regression


class _FixedRng:
    """Stub RNG whose random() returns a fixed value (regression probe)."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_zero_benefit_community_never_picked_at_draw_zero():
    """rng.random() == 0.0 used to select a zero-benefit community whose
    CDF entry duplicated its predecessor's; they are now excluded from
    the cumulative table entirely."""
    graph = from_edge_list(3, [])
    communities = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=0.0),
            Community(members=(1,), threshold=1, benefit=2.0),
            Community(members=(2,), threshold=1, benefit=0.0),
        ]
    )
    sampler = RICSampler(graph, communities, seed=1)
    assert sampler._pick_source(_FixedRng(0.0)) == 1
    # The boundary shared with a zero-benefit successor is also safe.
    for value in (0.0, 0.25, 0.5, 0.999999):
        assert sampler._pick_source(_FixedRng(value)) == 1


def test_zero_benefit_interior_community_skipped():
    graph = from_edge_list(4, [])
    communities = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=1.0),
            Community(members=(1,), threshold=1, benefit=0.0),
            Community(members=(2,), threshold=1, benefit=1.0),
            Community(members=(3,), threshold=1, benefit=2.0),
        ]
    )
    sampler = RICSampler(graph, communities, seed=2)
    picked = {sampler.sample().community_index for _ in range(2000)}
    assert 1 not in picked
    assert picked == {0, 2, 3}


def test_all_zero_benefits_rejected():
    graph = from_edge_list(2, [])
    communities = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=0.0),
            Community(members=(1,), threshold=1, benefit=0.0),
        ]
    )
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        RICSampler(graph, communities, seed=1)


# ------------------------------------------- per-sample child streams


def test_sample_from_seed_is_pure(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=17)
    child = sampler.next_sample_seed()
    first = sampler.sample_from_seed(child)
    # Repeated materialisation is identical and does not advance the
    # master stream.
    assert sampler.sample_from_seed(child) == first
    replay = RICSampler(graph, communities, seed=17)
    assert replay.sample() == first


def test_predrawn_seeds_replay_sample_many(small_instance):
    graph, communities = small_instance
    sampler = RICSampler(graph, communities, seed=29)
    seeds = [sampler.next_sample_seed() for _ in range(15)]
    materialised = [sampler.sample_from_seed(s) for s in seeds]
    assert materialised == RICSampler(
        graph, communities, seed=29
    ).sample_many(15)


# ------------------------------------------- Algorithm 6 indicator


def _shared_ancestor_gadget():
    """Members 0 and 1 share the in-neighbour 3, which node 4 feeds;
    node 5 feeds member 2 and node 6 is isolated. Every edge has weight
    1 and every node at most one in-edge, so IC and LT both realise the
    whole graph in every sample."""
    return from_edge_list(
        7, [(3, 0, 1.0), (3, 1, 1.0), (4, 3, 1.0), (5, 2, 1.0)]
    )


@pytest.mark.parametrize("model", ["ic", "lt"])
@pytest.mark.parametrize(
    "members, threshold, seeds, expected",
    [
        # A seeded member decides it before the BFS.
        pytest.param((0, 1, 2), 1, {0}, True, id="seeded-member"),
        # Realised seed edges cover h members during the BFS.
        pytest.param((0, 1, 2), 2, {4, 5}, True, id="bfs-covers-h"),
        # h-1 covered during the BFS; no DFS finds another.
        pytest.param((0, 1, 2), 2, {5}, False, id="bfs-covers-h-minus-1"),
        # Only the DFS sees that 4 reaches member 1 too.
        pytest.param((0, 1, 2), 2, {4}, True, id="dfs-covers-h"),
        # The DFS reaches h-1 covered members, then the last one misses.
        pytest.param((0, 1, 2), 3, {4}, False, id="dfs-stops-at-h-minus-1"),
        # After a miss exactly h members stay possible, and are covered.
        pytest.param((2, 0, 1), 2, {4}, True, id="miss-leaves-exactly-h"),
        # No seed is ever visited; 99 is not a node.
        pytest.param((0, 1, 2), 1, {6, 99}, False, id="no-seed-visited"),
    ],
)
def test_sample_indicator_exits_are_exact(
    model, members, threshold, seeds, expected
):
    communities = CommunityStructure(
        [Community(members=members, threshold=threshold, benefit=1.0)]
    )
    graph = _shared_ancestor_gadget()
    sampler = RICSampler(graph, communities, seed=3, model=model)
    twin = RICSampler(graph, communities, seed=3, model=model)
    assert sampler.sample_indicator(frozenset(seeds)) == (0, expected)
    assert twin.sample().is_influenced_by(seeds) is expected
    assert sampler.next_sample_seed() == twin.next_sample_seed()
