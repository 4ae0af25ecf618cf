"""UBG (Alg. 2) and MAF (Alg. 3) solver tests."""

import math

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.maf import MAF
from repro.core.ubg import UBG, GreedyC
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
def simple_communities():
    return CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=2.0),
            Community(members=(2, 3), threshold=1, benefit=1.0),
        ]
    )


@pytest.fixture
def simple_pool(simple_communities):
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 6}), frozenset({1, 6}))),
        ric_sample(0, 2, (0, 1), (frozenset({0, 6}), frozenset({1, 7}))),
        ric_sample(1, 1, (2, 3), (frozenset({2, 8}), frozenset({3}))),
        ric_sample(1, 1, (2, 3), (frozenset({2, 8}), frozenset({3, 6}))),
    ]
    return _pool_with(samples, simple_communities)


# ------------------------------------------------------------------ UBG


def test_ubg_returns_selection_with_metadata(simple_pool):
    result = UBG().solve(simple_pool, 2)
    assert result.solver == "UBG"
    assert 0 < len(result.seeds) <= 2
    assert result.objective == pytest.approx(
        simple_pool.estimate_benefit(result.seeds)
    )
    meta = result.metadata
    assert 0.0 <= meta["sandwich_ratio"] <= 1.0 + 1e-9
    assert meta["arm"] in ("c-greedy", "nu-greedy")
    assert meta["num_samples"] == 4


def test_ubg_beats_or_matches_each_arm(simple_pool):
    result = UBG().solve(simple_pool, 2)
    assert result.objective >= result.metadata["value_nu_arm"] - 1e-12
    if result.metadata["value_c_arm"] is not None:
        assert result.objective >= result.metadata["value_c_arm"] - 1e-12


def test_ubg_single_node_influences_h2_sample(simple_pool):
    # Node 6 covers both members of the first sample.
    result = UBG().solve(simple_pool, 1)
    assert result.objective > 0


def test_ubg_nu_only_variant(simple_pool):
    result = UBG(run_c_greedy=False).solve(simple_pool, 2)
    assert result.metadata["arm"] == "nu-greedy"
    assert result.metadata["value_c_arm"] is None


def test_ubg_eager_matches_lazy(simple_pool):
    lazy = UBG(lazy=True).solve(simple_pool, 2)
    eager = UBG(lazy=False).solve(simple_pool, 2)
    assert lazy.objective == pytest.approx(eager.objective)


def test_ubg_alpha_is_one_minus_inv_e(simple_pool):
    assert UBG().alpha(simple_pool, 3) == pytest.approx(1 - 1 / math.e)


def test_ubg_validates_k(simple_pool):
    with pytest.raises(SolverError):
        UBG().solve(simple_pool, 0)


def test_ubg_sandwich_guarantee_on_sampled_instance():
    """UBG's data-dependent guarantee holds against brute force:
    ĉ(S_UBG) >= ratio * (1-1/e) * ĉ(OPT)."""
    import itertools

    graph = from_edge_list(
        10, [(i, j, 0.5) for i in range(4) for j in range(4, 10) if (i * j) % 2 == 0]
    )
    communities = CommunityStructure(
        [
            Community(members=(4, 5, 6), threshold=2, benefit=1.0),
            Community(members=(7, 8, 9), threshold=2, benefit=1.0),
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=3))
    pool.grow(200)
    k = 2
    result = UBG().solve(pool, k)
    best = max(
        pool.estimate_benefit(combo)
        for combo in itertools.combinations(range(10), k)
    )
    ratio = result.metadata["sandwich_ratio"]
    assert result.objective >= ratio * (1 - 1 / math.e) * best - 1e-9


# ------------------------------------------------------------------ MAF


def test_maf_result_structure(simple_pool):
    result = MAF(seed=2).solve(simple_pool, 2)
    assert result.solver == "MAF"
    assert result.metadata["arm"] in ("S1-communities", "S2-nodes")
    assert result.objective == pytest.approx(
        simple_pool.estimate_benefit(result.seeds)
    )


def test_maf_s1_prefers_frequent_communities(simple_communities):
    # Community 0 is the source of 3 of 4 samples.
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1}))),
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1}))),
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1}))),
        ric_sample(1, 1, (2, 3), (frozenset({2}), frozenset({3}))),
    ]
    pool = _pool_with(samples, simple_communities)
    solver = MAF(seed=3)
    s1 = solver._build_s1(pool, 2)
    assert set(s1) == {0, 1}  # threshold-2 community fully seeded


def test_maf_s2_is_top_touch_count(simple_pool):
    solver = MAF(seed=4)
    s2 = solver._build_s2(simple_pool, 2)
    # Node 6 touches 3 samples; nodes 0/1/2/3/8 tie at 2 and the
    # smallest id wins the tie.
    assert s2 == [6, 0]


def test_maf_returns_better_arm(simple_pool):
    result = MAF(seed=5).solve(simple_pool, 2)
    assert result.objective >= result.metadata["value_s1"] - 1e-12
    assert result.objective >= result.metadata["value_s2"] - 1e-12


def test_maf_theorem3_guarantee_brute_force():
    """ĉ(S_MAF) >= (⌊k/h⌋/r)·ĉ(OPT) on an exhaustive tiny instance."""
    import itertools

    communities = CommunityStructure(
        [
            Community(members=(0, 1), threshold=2, benefit=1.0),
            Community(members=(2, 3), threshold=2, benefit=1.0),
        ]
    )
    samples = [
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4}))),
        ric_sample(1, 2, (2, 3), (frozenset({2, 5}), frozenset({3}))),
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1}))),
    ]
    pool = _pool_with(samples, communities, num_nodes=8)
    k = 2
    result = MAF(seed=6).solve(pool, k)
    best = max(
        pool.estimate_benefit(combo)
        for combo in itertools.combinations(range(8), k)
    )
    h = communities.max_threshold
    guarantee = (k // h) / communities.r
    assert result.objective >= guarantee * best - 1e-9


def test_maf_alpha(simple_pool):
    solver = MAF()
    # h=2, r=2 -> floor(4/2)/2 = 1.
    assert solver.alpha(simple_pool, 4) == pytest.approx(1.0)
    assert solver.alpha(simple_pool, 1) == 0.0  # k < h


def test_maf_deterministic_given_seed(simple_pool):
    a = MAF(seed=9).solve(simple_pool, 2)
    b = MAF(seed=9).solve(simple_pool, 2)
    assert a.seeds == b.seeds


def test_maf_validates_k(simple_pool):
    with pytest.raises(SolverError):
        MAF().solve(simple_pool, 0)


# -------------------------------------------------------------- GreedyC


def test_greedy_c_standalone(simple_pool):
    result = GreedyC().solve(simple_pool, 2)
    assert result.solver == "GreedyC"
    assert result.objective > 0
    assert GreedyC().alpha(simple_pool, 2) > 0
