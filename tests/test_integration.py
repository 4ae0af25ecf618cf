"""Integration tests: the full IMC pipeline end to end."""

import itertools

import pytest

from repro.baselines import hbc_seeds, im_seeds, ks_seeds, ris_im
from repro.communities.louvain import louvain_communities
from repro.communities.structure import Community, CommunityStructure
from repro.communities.thresholds import build_structure, constant_thresholds
from repro.core.bt import BT, MB
from repro.core.framework import solve_imc
from repro.core.maf import MAF
from repro.core.ubg import UBG
from repro.diffusion.simulator import (
    BenefitEvaluator,
    community_benefit_monte_carlo,
    spread_monte_carlo,
)
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture(scope="module")
def pipeline_instance():
    graph, blocks = planted_partition_graph(
        [6] * 8, p_in=0.5, p_out=0.02, directed=True, seed=3
    )
    assign_weighted_cascade(graph)
    detected = louvain_communities(graph, seed=3)
    communities = build_structure(
        detected, size_cap=8, threshold_policy=constant_thresholds(2)
    )
    return graph, communities


@pytest.mark.parametrize(
    "solver_factory",
    [
        lambda: UBG(),
        lambda: MAF(seed=1),
        lambda: BT(candidate_limit=20),
        lambda: MB(candidate_limit=20, seed=1),
    ],
    ids=["UBG", "MAF", "BT", "MB"],
)
def test_imcaf_with_every_solver(pipeline_instance, solver_factory):
    graph, communities = pipeline_instance
    result = solve_imc(
        graph,
        communities,
        k=6,
        solver=solver_factory(),
        seed=9,
        max_samples=4000,
    )
    assert 1 <= len(result.selection.seeds) <= 6
    evaluator = BenefitEvaluator(graph, communities, num_trials=400, seed=11)
    benefit = evaluator(result.selection.seeds)
    # Sanity: positive and consistent with the pool estimate (loose band).
    assert benefit > 0
    assert benefit <= communities.total_benefit
    assert result.selection.objective == pytest.approx(benefit, rel=0.5)


def test_solvers_beat_naive_baselines(pipeline_instance):
    graph, communities = pipeline_instance
    k = 8
    evaluator = BenefitEvaluator(graph, communities, num_trials=500, seed=21)
    ubg = solve_imc(
        graph, communities, k=k, solver=UBG(), seed=5, max_samples=4000
    )
    ubg_benefit = evaluator(ubg.selection.seeds)
    ks_benefit = evaluator(ks_seeds(communities, k))
    assert ubg_benefit >= ks_benefit * 0.95  # UBG ~matches or beats KS


def test_imc_beats_plain_im_on_community_objective(pipeline_instance):
    """The paper's central claim: community-aware seeding wins on c(S)."""
    graph, communities = pipeline_instance
    k = 8
    evaluator = BenefitEvaluator(graph, communities, num_trials=600, seed=31)
    ubg = solve_imc(
        graph, communities, k=k, solver=UBG(), seed=6, max_samples=6000
    )
    im = im_seeds(graph, k, seed=6, max_samples=6000)
    assert evaluator(ubg.selection.seeds) >= 0.95 * evaluator(im)


def test_im_special_case_reduction():
    """IMC with singleton communities and h=1 IS classic IM: the UBG
    solution's spread must be close to the RIS-IM solution's spread."""
    graph, _ = planted_partition_graph(
        [5] * 6, p_in=0.5, p_out=0.05, directed=True, seed=8
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=(v,), threshold=1, benefit=1.0)
            for v in range(graph.num_nodes)
        ]
    )
    k = 5
    result = solve_imc(
        graph, communities, k=k, solver=UBG(), seed=9, max_samples=8000
    )
    im, _ = ris_im(graph, k, seed=9, max_samples=8000)
    ours = spread_monte_carlo(graph, result.selection.seeds, num_trials=800, seed=10)
    theirs = spread_monte_carlo(graph, im, num_trials=800, seed=10)
    assert ours >= 0.9 * theirs
    # And c(S) == sigma(S) in this reduction (unit benefit per node).
    c_value = community_benefit_monte_carlo(
        graph, communities, result.selection.seeds, num_trials=800, seed=10
    )
    assert c_value == pytest.approx(ours, rel=0.1)


def test_tiny_instance_exhaustive_cross_check():
    """On a tiny instance all solvers stay within their guarantees of
    the exhaustively optimal pool objective."""
    graph, blocks = planted_partition_graph(
        [3] * 3, p_in=0.8, p_out=0.1, directed=True, seed=12
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [Community(members=tuple(b), threshold=2, benefit=1.0) for b in blocks]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=13))
    pool.grow(300)
    k = 2
    best = max(
        pool.estimate_benefit(c)
        for c in itertools.combinations(range(graph.num_nodes), k)
    )
    for solver in (UBG(), MAF(seed=2), BT(), MB(seed=2)):
        value = solver.solve(pool, k).objective
        assert value >= 0.4 * best, solver.name  # all far above worst case


def test_full_pipeline_louvain_to_seeds(pipeline_instance):
    """Smoke the exact quickstart pipeline: graph -> Louvain ->
    structure -> IMCAF -> evaluation, all deterministic under seeds."""
    graph, communities = pipeline_instance
    first = solve_imc(
        graph, communities, k=4, solver=MAF(seed=3), seed=14, max_samples=3000
    )
    second = solve_imc(
        graph, communities, k=4, solver=MAF(seed=3), seed=14, max_samples=3000
    )
    assert first.selection.seeds == second.selection.seeds


def test_hbc_runs_on_pipeline_instance(pipeline_instance):
    graph, communities = pipeline_instance
    seeds = hbc_seeds(graph, communities, 5)
    assert len(seeds) == 5
    evaluator = BenefitEvaluator(graph, communities, num_trials=200, seed=15)
    assert evaluator(seeds) > 0
