"""FlatCoverage engine and pool mask-index unit tests.

The flat engine must be behaviourally indistinguishable from the
reference ``CoverageState`` (the hypothesis suite cross-checks random
pools; here we pin the engine-specific mechanics: the shared mask
index, the grown-pool guard, fresh engines after growth, and agreement
on a serving-sized pool deep into saturation).
"""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.core.ubg import UBG, GreedyC
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.serving.scenarios import ScenarioSpec, build_instance

from tests.ric_samples import ric_sample


def build_pool(samples=120, seed=3):
    graph, blocks = planted_partition_graph(
        [8] * 4, p_in=0.4, p_out=0.03, directed=True, seed=13
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=seed))
    pool.grow(samples)
    return pool


def tiny_pool():
    communities = CommunityStructure(
        [Community(members=(0, 1), threshold=2, benefit=3.0)]
    )
    pool = RICSamplePool(RICSampler(DiGraph(6), communities, seed=0))
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4})))
    )
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0, 4}), frozenset({1, 4})))
    )
    return pool


def test_flat_matches_reference_on_every_gain():
    pool = build_pool()
    reference = CoverageState(pool)
    flat = FlatCoverage(pool)
    nodes = pool.touching_nodes()
    for _ in range(4):
        for v in nodes:
            assert flat.gain_pair(v) == reference.gain_pair(v)
        best = max(
            (v for v in nodes if v not in reference.seeds),
            key=lambda v: reference.gain_pair(v),
        )
        reference.add_seed(best)
        flat.add_seed(best)
        assert flat.influenced_count == reference.influenced_count
        assert flat.fractional_count == pytest.approx(
            reference.fractional_count
        )
        assert flat.estimate_benefit() == pytest.approx(
            reference.estimate_benefit()
        )
        assert flat.estimate_upper_bound() == pytest.approx(
            reference.estimate_upper_bound()
        )


def test_flat_rejects_duplicate_seed_and_unknown_node_is_zero():
    pool = build_pool(samples=40)
    flat = FlatCoverage(pool)
    node = pool.touching_nodes()[0]
    flat.add_seed(node)
    with pytest.raises(SolverError):
        flat.add_seed(node)
    assert flat.gain_pair(node) == (0, 0.0)
    # A node touching no sample gains nothing (and is not an error).
    untouched = max(pool.touching_nodes()) + 1
    assert flat.gain_pair(untouched) == (0, 0.0)
    assert flat.gain_influenced(untouched) == 0
    assert flat.gain_fractional(untouched) == 0.0


def test_flat_stale_pool_guard_and_resync():
    pool = build_pool(samples=60)
    flat = FlatCoverage(pool)
    node = pool.touching_nodes()[0]
    flat.add_seed(node)
    pool.grow(40)
    with pytest.raises(SolverError):
        flat.gain_pair(node)
    with pytest.raises(SolverError, match="build a fresh engine"):
        flat.estimate_benefit()
    # A grown pool takes a fresh engine, which agrees with the oracle.
    flat = FlatCoverage(pool)
    flat.add_seed(node)
    reference = CoverageState(pool)
    reference.add_seed(node)
    assert flat.influenced_count == reference.influenced_count
    for v in pool.touching_nodes():
        assert flat.gain_pair(v) == reference.gain_pair(v)


def test_flat_on_empty_pool():
    communities = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=1.0)]
    )
    pool = RICSamplePool(RICSampler(DiGraph(2), communities, seed=0))
    flat = FlatCoverage(pool)
    assert flat.estimate_benefit() == 0.0
    assert flat.estimate_upper_bound() == 0.0
    assert flat.gain_pair(0) == (0, 0.0)


def test_add_extends_the_mask_index():
    pool = tiny_pool()
    snapshot = pool.influenced_count([0, 1])
    pool.add(
        ric_sample(0, 2, (0, 1), (frozenset({0}), frozenset({1})))
    )
    assert pool.influenced_count([0, 1]) == snapshot + 1
    # The new sample is the last entry of each member's node.
    assert list(pool.mask_index[0].items())[-1] == (2, 0b01)
    assert list(pool.mask_index[1].items())[-1] == (2, 0b10)
    assert pool.touch_count(4) == 2


def test_evaluate_benefit_identical_across_engines():
    # MAF, BT and MB evaluate with pool.estimate_benefit; it reads the
    # same masks as the flat engine and must match both engines.
    pool = build_pool(samples=100)
    seeds = sorted(pool.touching_nodes())[:5]
    reference, flat = CoverageState(pool), FlatCoverage(pool)
    for v in seeds:
        reference.add_seed(v)
        flat.add_seed(v)
    assert pool.estimate_benefit(seeds) == reference.estimate_benefit()
    assert pool.estimate_benefit(seeds) == flat.estimate_benefit()
    assert pool.estimate_benefit([]) == 0.0


def test_solvers_accept_flat_engine():
    pool = build_pool(samples=120)
    default = UBG().solve(pool, 5)
    for engine in ("flat", "reference"):
        chosen = UBG(engine=engine).solve(pool, 5)
        assert chosen.seeds == default.seeds
        assert chosen.objective == default.objective
    with pytest.raises(SolverError):
        UBG(engine="bitset").solve(pool, 5)


def test_reference_and_flat_agree_after_interleaved_growth():
    pool = build_pool(samples=80)
    seeds = []
    for round_idx in range(3):
        pool.grow(30)
        # Fresh engines on the grown pool, replaying the seeds so far.
        reference = CoverageState(pool)
        flat = FlatCoverage(pool)
        for seed in seeds:
            reference.add_seed(seed)
            flat.add_seed(seed)
        nodes = sorted(pool.touching_nodes())
        for v in nodes:
            assert flat.gain_pair(v) == reference.gain_pair(v)
        seed = nodes[round_idx * 3]
        if seed not in seeds:
            seeds.append(seed)
            reference.add_seed(seed)
            flat.add_seed(seed)
        assert flat.influenced_count == reference.influenced_count


def test_flat_engines_share_the_pool_mask_index():
    pool = build_pool(samples=60)
    index = pool.mask_index
    snapshot = {v: dict(masks) for v, masks in index.items()}
    first, second = FlatCoverage(pool), FlatCoverage(pool)
    node = sorted(pool.touching_nodes())[0]
    first.add_seed(node)
    for v in pool.touching_nodes():
        first.gain_pair(v)  # prunes first's own entry lists
    # Engines read the index in place and never write it.
    assert {v: dict(masks) for v, masks in index.items()} == snapshot
    assert second.gain_pair(node) == CoverageState(pool).gain_pair(node)
    node_masks = index[node]
    pool.grow(10)  # add() extends the same per-node dicts in place
    assert pool.mask_index[node] is node_masks
    # A fresh engine on the grown pool reads the same, extended index.
    fresh = FlatCoverage(pool)
    fresh.add_seed(node)
    reference = CoverageState(pool)
    reference.add_seed(node)
    for v in pool.touching_nodes():
        assert fresh.gain_pair(v) == reference.gain_pair(v)


def test_flat_matches_reference_on_a_saturated_serving_pool():
    # A 600-sample facebook pool as a serving shard warms it: budgets up
    # to 40 drive most samples past their thresholds, which the small
    # hypothesis pools never reach.
    spec = ScenarioSpec(
        name="fb", dataset="facebook", scale=0.2, seed=100, pool_size=600
    )
    graph, communities = build_instance(spec)
    sampler = RICSampler(
        graph, communities, seed=spec.seed, model=spec.model, workers=1
    )
    try:
        pool = RICSamplePool(sampler)
        pool.grow(spec.pool_size)
        for k in (2, 8, 20, 40):
            for solver in (UBG, GreedyC):
                flat = solver(engine="flat").solve(pool, k)
                reference = solver(engine="reference").solve(pool, k)
                assert flat.seeds == reference.seeds
                assert flat.objective == reference.objective
        # The last budget really saturates the pool.
        assert pool.influenced_count(flat.seeds) >= 0.9 * len(pool)
    finally:
        sampler.close()
