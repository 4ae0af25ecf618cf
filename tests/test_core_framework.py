"""IMCAF framework tests (Alg. 5 + Alg. 6)."""

import math
import statistics

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.framework import (
    EstimateResult,
    estimate_benefit,
    lambda_stop_threshold,
    optimal_benefit_lower_bound,
    psi_sample_bound,
    solve_imc,
)
from repro.core.maf import MAF
from repro.core.ubg import UBG
from repro.diffusion.estimators import (
    dagum_stopping_rule,
    stopping_rule_threshold,
)
from repro.diffusion.simulator import community_benefit_exact
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs.diagnostics import ConvergenceMonitor
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture
def small_imc_instance():
    graph, blocks = planted_partition_graph(
        [4] * 5, p_in=0.7, p_out=0.05, directed=True, seed=13
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


# ------------------------------------------------------------- bounds


def test_lower_bound_formula(two_communities):
    # beta=1, h=2 -> beta*k/h.
    assert optimal_benefit_lower_bound(two_communities, 4) == pytest.approx(2.0)


def test_lower_bound_skips_zero_benefits():
    structure = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=0.0),
            Community(members=(1,), threshold=1, benefit=2.0),
        ]
    )
    assert optimal_benefit_lower_bound(structure, 2) == pytest.approx(4.0)


def test_lower_bound_all_zero_raises():
    structure = CommunityStructure(
        [Community(members=(0,), threshold=1, benefit=0.0)]
    )
    with pytest.raises(SolverError):
        optimal_benefit_lower_bound(structure, 1)


def test_psi_decreasing_in_alpha_epsilon(two_communities):
    graph = from_edge_list(6, [])
    base = psi_sample_bound(graph, two_communities, 2, 0.5, 0.2, 0.2)
    assert psi_sample_bound(graph, two_communities, 2, 0.9, 0.2, 0.2) <= base
    assert psi_sample_bound(graph, two_communities, 2, 0.5, 0.4, 0.2) < base
    with pytest.raises(SolverError):
        psi_sample_bound(graph, two_communities, 2, 0.0, 0.2, 0.2)


def test_psi_scales_inversely_with_the_optimum_lower_bound(two_communities):
    graph = from_edge_list(6, [])
    lower = optimal_benefit_lower_bound(two_communities, 2)
    base = psi_sample_bound(graph, two_communities, 2, 0.5, 0.2, 0.2)
    assert psi_sample_bound(
        graph, two_communities, 2, 0.5, 0.2, 0.2, lower
    ) == base
    assert psi_sample_bound(
        graph, two_communities, 2, 0.5, 0.2, 0.2, 2 * lower
    ) == pytest.approx(base / 2)
    for bad in (0.0, -1.0):
        with pytest.raises(SolverError, match="lower bound"):
            psi_sample_bound(graph, two_communities, 2, 0.5, 0.2, 0.2, bad)


def test_psi_grows_with_n(two_communities):
    small = from_edge_list(6, [])
    big = from_edge_list(600, [])
    assert psi_sample_bound(
        big, two_communities, 2, 0.5, 0.2, 0.2
    ) > psi_sample_bound(small, two_communities, 2, 0.5, 0.2, 0.2)


def test_lambda_threshold_positive_and_decreasing_in_epsilon():
    lam = lambda_stop_threshold(0.2, 0.2)
    assert lam > 100  # substantial for the paper's parameters
    assert lambda_stop_threshold(0.4, 0.2) < lam
    with pytest.raises(SolverError):
        lambda_stop_threshold(1.5, 0.2)


# ------------------------------------------------------ Estimate (Alg 6)


def test_estimate_benefit_converges_to_exact():
    graph = from_edge_list(4, [(0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    communities = CommunityStructure(
        [Community(members=(2, 3), threshold=2, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=21)
    exact = community_benefit_exact(graph, communities, [0, 1])
    result = estimate_benefit(sampler, [0, 1], epsilon=0.1, delta=0.1)
    assert result.converged
    assert result.value == pytest.approx(exact, rel=0.15)


def test_estimate_benefit_budget_exhaustion_returns_none():
    graph = from_edge_list(3, [(0, 1, 0.01)])
    communities = CommunityStructure(
        [Community(members=(1, 2), threshold=2, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=22)
    # Seeds {0} can never influence (node 2 unreachable): zero mean.
    result = estimate_benefit(
        sampler, [0], epsilon=0.2, delta=0.2, max_trials=100
    )
    assert not result.converged
    assert result.value is None


def test_estimate_benefit_rejects_empty_seed_set():
    graph = from_edge_list(2, [(0, 1, 0.5)])
    communities = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    sampler = RICSampler(graph, communities, seed=23)
    with pytest.raises(SolverError):
        estimate_benefit(sampler, [], epsilon=0.2, delta=0.2)


def test_estimate_benefit_rejects_seed_ids_outside_the_graph(
    fig2_graph, fig2_communities
):
    """A seed id outside the graph never influences any sample, so the
    stopping rule would never stop; the id is named up front instead."""
    sampler = RICSampler(fig2_graph, fig2_communities, seed=1)
    with pytest.raises(SolverError, match=r"\[7\]"):
        estimate_benefit(
            sampler, [7], epsilon=0.2, delta=0.2, max_trials=5000
        )


def test_estimate_benefit_matches_full_sample_reference(small_imc_instance):
    """The indicator path returns what drawing full samples returns.

    A twin sampler runs the reference loop — ``sample()`` plus
    ``is_influenced_by`` — through the same stopping rule. Value, trial
    count, convergence, the monitor's trial counts and per-community
    activation counts, and the master stream must all agree.
    """
    graph, communities = small_imc_instance
    seeds = [0, 5, 9, 14]
    fast = RICSampler(graph, communities, seed=41)
    twin = RICSampler(graph, communities, seed=41)
    monitor = ConvergenceMonitor()
    result = estimate_benefit(
        fast, seeds, epsilon=0.1, delta=0.1, monitor=monitor
    )

    reference_monitor = ConvergenceMonitor()
    outcomes = []

    def draw():
        sample = twin.sample()
        outcome = 1.0 if sample.is_influenced_by(seeds) else 0.0
        reference_monitor.observe_trial(
            outcome, community_index=sample.community_index
        )
        outcomes.append(outcome)
        return outcome

    reference = dagum_stopping_rule(draw, 0.1, 0.1)
    assert result == EstimateResult(
        value=communities.total_benefit * reference.value,
        trials=reference.trials,
        converged=reference.converged,
    )
    assert result.trials > 100
    assert (monitor.trials, monitor.influenced_trials) == (
        reference_monitor.trials,
        reference_monitor.influenced_trials,
    )
    assert monitor.trials == result.trials
    # The summary's moments of the 0/1 indicators, from the counts.
    trials = monitor.summary()["estimate_trials"]
    assert trials["count"] == len(outcomes)
    assert trials["mean"] == pytest.approx(statistics.fmean(outcomes))
    assert trials["std"] == pytest.approx(statistics.stdev(outcomes))
    assert monitor.activation.rates() == reference_monitor.activation.rates()
    assert fast.next_sample_seed() == twin.next_sample_seed()


def test_estimate_benefit_skips_a_budget_below_the_threshold(
    small_imc_instance,
):
    """``max_trials < Λ'`` cannot converge: nothing is drawn or observed,
    and the master stream ends where the full run of trials leaves it."""
    graph, communities = small_imc_instance
    seeds = [0, 5, 9, 14]
    max_trials = math.ceil(stopping_rule_threshold(0.2, 0.2)) - 1
    skipped = RICSampler(graph, communities, seed=42)
    twin = RICSampler(graph, communities, seed=42)
    monitor = ConvergenceMonitor()
    result = estimate_benefit(
        skipped,
        seeds,
        epsilon=0.2,
        delta=0.2,
        max_trials=max_trials,
        monitor=monitor,
    )
    assert result == EstimateResult(value=None, trials=0, converged=False)
    assert monitor.trials == 0
    assert monitor.activation.rates() == {}

    seed_set = frozenset(seeds)
    reference = dagum_stopping_rule(
        lambda: 1.0 if twin.sample_indicator(seed_set)[1] else 0.0,
        0.2,
        0.2,
        max_trials=max_trials,
    )
    assert reference.trials == max_trials and not reference.converged
    assert skipped.next_sample_seed() == twin.next_sample_seed()


def test_estimate_benefit_draws_at_a_budget_of_ceil_threshold(
    small_imc_instance,
):
    """With every member seeded each trial succeeds, so ``ceil(Λ')``
    trials are exactly enough to converge."""
    graph, communities = small_imc_instance
    members = [u for community in communities for u in community.members]
    threshold = stopping_rule_threshold(0.2, 0.2)
    trials = math.ceil(threshold)
    monitor = ConvergenceMonitor()
    result = estimate_benefit(
        RICSampler(graph, communities, seed=43),
        members,
        epsilon=0.2,
        delta=0.2,
        max_trials=trials,
        monitor=monitor,
    )
    assert result == EstimateResult(
        value=communities.total_benefit * threshold / trials,
        trials=trials,
        converged=True,
    )
    assert monitor.trials == monitor.influenced_trials == trials


def test_estimate_benefit_rejects_a_negative_budget(small_imc_instance):
    graph, communities = small_imc_instance
    sampler = RICSampler(graph, communities, seed=44)
    with pytest.raises(SolverError, match="max_trials"):
        estimate_benefit(
            sampler, [0], epsilon=0.2, delta=0.2, max_trials=-1
        )


# ---------------------------------------------------------------- IMCAF


def test_solve_imc_returns_valid_result(small_imc_instance):
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=4, solver=UBG(), seed=31, max_samples=8000
    )
    assert 1 <= len(result.selection.seeds) <= 4
    assert result.stopped_by in ("estimate", "psi", "max_samples")
    assert result.num_samples >= math.ceil(result.lambda_threshold)
    assert result.alpha > 0
    assert result.psi > result.lambda_threshold


def test_solve_imc_quality_near_exhaustive(small_imc_instance):
    """IMCAF+UBG solution close to Monte-Carlo-scored brute force on a
    tiny budget."""
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=2, solver=UBG(), seed=32, max_samples=8000
    )
    from repro.diffusion.simulator import community_benefit_monte_carlo

    ours = community_benefit_monte_carlo(
        graph, communities, result.selection.seeds, num_trials=2000, seed=1
    )
    # Compare against each community's threshold-pair (the natural
    # candidate optima for k=2).
    best_pair = max(
        community_benefit_monte_carlo(
            graph, communities, communities[i].members[:2], num_trials=2000, seed=1
        )
        for i in range(communities.r)
    )
    assert ours >= 0.8 * best_pair


def test_solve_imc_estimate_stop_on_generous_budget(small_imc_instance):
    graph, communities = small_imc_instance
    result = solve_imc(
        graph, communities, k=6, solver=MAF(seed=5), seed=33, max_samples=60_000
    )
    if result.stopped_by == "estimate":
        assert result.benefit_estimate is not None
        assert result.selection.objective <= (
            1 + result.metadata["epsilon"] / 4
        ) * result.benefit_estimate + 1e-9


def test_solve_imc_validates_k(small_imc_instance):
    graph, communities = small_imc_instance
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=0, solver=UBG())
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=graph.num_nodes + 1, solver=UBG())


def test_solve_imc_rejects_foreign_pool(small_imc_instance):
    graph, communities = small_imc_instance
    other_graph = from_edge_list(3, [(0, 1, 0.5)])
    other_com = CommunityStructure(
        [Community(members=(1,), threshold=1, benefit=1.0)]
    )
    foreign = RICSamplePool(RICSampler(other_graph, other_com, seed=1))
    with pytest.raises(SolverError):
        solve_imc(graph, communities, k=2, solver=UBG(), pool=foreign)


def test_solve_imc_reuses_supplied_pool(small_imc_instance):
    graph, communities = small_imc_instance
    pool = RICSamplePool(RICSampler(graph, communities, seed=44))
    pool.grow(100)
    result = solve_imc(
        graph,
        communities,
        k=3,
        solver=MAF(seed=2),
        seed=45,
        max_samples=4000,
        pool=pool,
    )
    assert result.num_samples == len(pool)
    assert len(pool) >= 100


def test_solve_imc_deterministic_given_seed(small_imc_instance):
    graph, communities = small_imc_instance
    a = solve_imc(
        graph, communities, k=3, solver=MAF(seed=1), seed=77, max_samples=3000
    )
    b = solve_imc(
        graph, communities, k=3, solver=MAF(seed=1), seed=77, max_samples=3000
    )
    assert a.selection.seeds == b.selection.seeds
    assert a.num_samples == b.num_samples


def test_solve_imc_progress_callback(small_imc_instance):
    graph, communities = small_imc_instance
    events = []
    solve_imc(
        graph,
        communities,
        k=3,
        solver=MAF(seed=4),
        seed=55,
        max_samples=2000,
        progress=events.append,
    )
    assert events, "progress hook never fired"
    for event in events:
        assert set(event) == {
            "stage",
            "num_samples",
            "coverage",
            "objective",
            "lambda",
            "psi",
            "sampling_profile",
        }
        # In-process sampling: the full profile, with trivial fan-out.
        profile = event["sampling_profile"]
        assert len(profile) == 12
        assert profile["mode"] == "serial"
        assert profile["workers"] == 1
        assert profile["worker_utilization"] is None
        assert profile["retries"] == 0
    stages = [e["stage"] for e in events]
    assert stages == list(range(1, len(events) + 1))
    sizes = [e["num_samples"] for e in events]
    assert sizes == sorted(sizes)
