"""BT (Alg. 4), BT^(d) and MB solver tests."""

import itertools
import math

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB, _Collection
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample


def _pool_with(samples, communities, num_nodes=12):
    graph = from_edge_list(num_nodes, [])
    pool = RICSamplePool(RICSampler(graph, communities, seed=1))
    for s in samples:
        pool.add(s)
    return pool


@pytest.fixture
def bounded_communities():
    return CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2, 3), threshold=2, benefit=1.0),
        ]
    )


@pytest.fixture
def bounded_pool(bounded_communities):
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 6}), frozenset({1, 7}))),
        ric_sample(0, 2, (0, 1), (frozenset({0, 6}), frozenset({1, 6}))),
        ric_sample(1, 2, (2, 3), (frozenset({2, 6}), frozenset({3, 7}))),
    ]
    return _pool_with(samples, bounded_communities)


# ----------------------------------------------------------- _Collection


def test_collection_from_pool(bounded_pool):
    col = _Collection.from_pool(bounded_pool)
    assert len(col) == 3
    assert col.max_threshold() == 2
    assert col.auto_influenced == 0


def test_collection_reduce_by(bounded_pool):
    col = _Collection.from_pool(bounded_pool)
    reduced = col.reduce_by(6)
    # 6 touches all three samples.
    assert len(reduced) == 3
    # Sample 1: both members reached by 6 -> threshold 0 (auto).
    assert reduced.auto_influenced == 1
    # Samples 0 and 2: one member removed, threshold 1 left.
    assert sorted(reduced.thresholds) == [0, 1, 1]


def test_collection_influenced_count_includes_auto(bounded_pool):
    col = _Collection.from_pool(bounded_pool)
    reduced = col.reduce_by(6)
    # 7 covers the remaining member of samples 0 and 2.
    assert reduced.influenced_count([7]) == 3
    assert reduced.influenced_count([]) == 1  # just the auto one


def test_collection_touched_by(bounded_pool):
    col = _Collection.from_pool(bounded_pool)
    assert col.touched_by(6) == [0, 1, 2]
    assert col.touched_by(7) == [0, 2]
    assert col.touched_by(99) == []


# -------------------------------------------------------------------- BT


def test_bt_finds_optimal_pair(bounded_pool):
    result = BT().solve(bounded_pool, 2)
    # {6, 7} influences all 3 samples.
    assert set(result.seeds) == {6, 7}
    assert bounded_pool.influenced_count(result.seeds) == 3


def test_bt_theorem4_guarantee(bounded_pool):
    k = 2
    result = BT().solve(bounded_pool, k)
    best = max(
        bounded_pool.estimate_benefit(combo)
        for combo in itertools.combinations(range(12), k)
    )
    guarantee = (1 - 1 / math.e) / k
    assert result.objective >= guarantee * best - 1e-9


def test_bt_rejects_overbound_thresholds():
    communities = CommunityStructure(
        [Community(members=(0, 1, 2), threshold=3, benefit=1.0)]
    )
    samples = [
        ric_sample(
            0,
            3,
            (0, 1, 2),
            (frozenset({0}), frozenset({1}), frozenset({2})),
        )
    ]
    pool = _pool_with(samples, communities)
    with pytest.raises(SolverError, match="max threshold 3"):
        BT(threshold_bound=2).solve(pool, 2)


def test_bt_d3_handles_threshold_3():
    communities = CommunityStructure(
        [Community(members=(0, 1, 2), threshold=3, benefit=1.0)]
    )
    samples = [
        ric_sample(
            0,
            3,
            (0, 1, 2),
            (frozenset({0, 5}), frozenset({1, 5}), frozenset({2, 6})),
        ),
    ]
    pool = _pool_with(samples, communities)
    result = BT(threshold_bound=3).solve(pool, 2)
    # {5, 6} covers all three members.
    assert pool.influenced_count(result.seeds) == 1


def test_bt_alpha_formula(bounded_pool):
    assert BT(threshold_bound=2).alpha(bounded_pool, 4) == pytest.approx(
        (1 - 1 / math.e) / 4
    )
    assert BT(threshold_bound=3).alpha(bounded_pool, 4) == pytest.approx(
        (1 - 1 / math.e) / 16
    )


def test_bt_candidate_limit_still_returns(bounded_pool):
    result = BT(candidate_limit=1).solve(bounded_pool, 2)
    assert len(result.seeds) >= 1


def test_bt_invalid_config():
    with pytest.raises(SolverError):
        BT(threshold_bound=0)


def test_bt_validates_k(bounded_pool):
    with pytest.raises(SolverError):
        BT().solve(bounded_pool, 0)


def test_bt_k1(bounded_pool):
    result = BT().solve(bounded_pool, 1)
    assert len(result.seeds) == 1
    # 6 alone fully influences sample 1.
    assert result.objective > 0


# -------------------------------------------------------------------- MB


def test_mb_best_of_both(bounded_pool):
    result = MB(seed=2).solve(bounded_pool, 2)
    assert result.solver == "MB"
    assert result.metadata["arm"] in ("MAF", "BT")
    assert result.objective >= result.metadata["value_maf"] - 1e-12
    assert result.objective >= result.metadata["value_bt"] - 1e-12


def test_mb_theorem5_guarantee(bounded_pool):
    k = 2
    result = MB(seed=3).solve(bounded_pool, k)
    best = max(
        bounded_pool.estimate_benefit(combo)
        for combo in itertools.combinations(range(12), k)
    )
    r = 2
    guarantee = math.sqrt((1 - 1 / math.e) * (k // 2) / (k * r))
    assert result.objective >= guarantee * best - 1e-9


def test_mb_alpha(bounded_pool):
    alpha = MB().alpha(bounded_pool, 4)
    assert alpha == pytest.approx(math.sqrt((1 - 1 / math.e) * 2 / (4 * 2)))


def test_paper_s2_counterexample_mb_still_guarantees():
    """The Theorem 3 discussion's counterexample where top-appearance
    nodes (S2) alone score 0; MB must still do well via its other arms."""
    communities = CommunityStructure(
        [
            Community(members=tuple(range(3 * i, 3 * i + 3)), threshold=2, benefit=1.0)
            for i in range(6)
        ]
    )
    u, v = 18, 19
    samples = []
    for i in range(6):
        members = tuple(range(3 * i, 3 * i + 3))
        hub = u if i < 3 else v
        reaches = tuple(
            frozenset({m, hub}) if j == 0 else frozenset({m})
            for j, m in enumerate(members)
        )
        samples.append(ric_sample(i, 2, members, reaches))
    pool = _pool_with(samples, communities, num_nodes=20)
    # S2 = {u, v} influences nothing:
    assert pool.influenced_count([u, v]) == 0
    result = MB(seed=4).solve(pool, 2)
    # MB picks 2 members of one community instead (1 sample influenced).
    assert pool.influenced_count(result.seeds) >= 1
