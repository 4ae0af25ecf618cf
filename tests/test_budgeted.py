"""Budgeted (cost-aware) IMC tests."""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.budgeted import (
    BudgetedUBG,
    best_single_affordable,
    budgeted_lazy_greedy_nu,
    degree_proportional_costs,
    uniform_costs,
)
from repro.errors import SolverError
from repro.graph.builders import from_edge_list
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample


def _pool_with(samples, communities, num_nodes=10):
    pool = RICSamplePool(RICSampler(DiGraph(num_nodes), communities, seed=1))
    for s in samples:
        pool.add(s)
    return pool


@pytest.fixture
def cost_pool():
    communities = CommunityStructure(
        [
            Community(members=(0,), threshold=1, benefit=1.0),
            Community(members=(1,), threshold=1, benefit=1.0),
            Community(members=(2,), threshold=1, benefit=1.0),
        ]
    )
    samples = [
        ric_sample(0, 1, (0,), (frozenset({0, 5}),)),
        ric_sample(1, 1, (1,), (frozenset({1, 5}),)),
        ric_sample(2, 1, (2,), (frozenset({2, 6}),)),
    ]
    return _pool_with(samples, communities)


def test_uniform_costs_recovers_cardinality(cost_pool):
    costs = uniform_costs(range(10))
    seeds = budgeted_lazy_greedy_nu(cost_pool, costs, budget=2.0)
    assert len(seeds) <= 2
    # 5 covers two samples, 6 the third.
    assert cost_pool.influenced_count(seeds) == 3


def test_cost_ratio_changes_choice(cost_pool):
    # Make the double-covering node 5 very expensive: per-cost greedy
    # should now prefer cheap singles.
    costs = uniform_costs(range(10))
    costs[5] = 10.0
    seeds = budgeted_lazy_greedy_nu(cost_pool, costs, budget=3.0)
    assert 5 not in seeds
    assert set(seeds) <= {0, 1, 2, 6}


def test_budget_never_exceeded(cost_pool):
    costs = {v: 0.7 for v in range(10)}
    seeds = budgeted_lazy_greedy_nu(cost_pool, costs, budget=1.5)
    assert sum(costs[v] for v in seeds) <= 1.5
    assert len(seeds) == 2


def test_best_single_affordable(cost_pool):
    costs = uniform_costs(range(10))
    assert best_single_affordable(cost_pool, costs, budget=1.0) == [5]
    costs[5] = 99.0
    assert best_single_affordable(cost_pool, costs, budget=1.0) != [5]


def test_best_single_empty_when_nothing_affordable(cost_pool):
    costs = {v: 100.0 for v in range(10)}
    assert best_single_affordable(cost_pool, costs, budget=1.0) == []


def test_guard_arm_beats_ratio_greedy_trap():
    """One expensive node covers everything; many cheap nodes cover one
    sample each. Per-cost greedy fills the budget with cheap nodes; the
    singleton guard must rescue the solution."""
    communities = CommunityStructure(
        [
            Community(members=tuple(range(6)), threshold=1, benefit=6.0),
        ]
    )
    # 10 samples; node 9 covers all; nodes 0..5 cover one each, cheap.
    samples = []
    for i in range(6):
        samples.append(
            ric_sample(0, 1, tuple(range(6)), tuple(
                frozenset({m, 9}) if m == i else frozenset({m, 9})
                for m in range(6)
            ))
        )
    pool = _pool_with(samples, communities)
    costs = {v: 0.5 for v in range(9)}
    costs[9] = 3.0
    result = BudgetedUBG().solve(pool, costs, budget=3.0)
    assert result.objective == pool.total_benefit  # everything influenced
    assert result.metadata["spent"] <= 3.0


def test_budgeted_ubg_metadata(cost_pool):
    costs = uniform_costs(range(10))
    result = BudgetedUBG().solve(cost_pool, costs, budget=2.0)
    assert result.solver == "BudgetedUBG"
    assert result.metadata["arm"] in ("cost-greedy", "best-single")
    assert result.metadata["spent"] <= result.metadata["budget"]
    assert 0.0 <= result.metadata["sandwich_ratio"] <= 1.0 + 1e-9


def test_validation(cost_pool):
    with pytest.raises(SolverError):
        budgeted_lazy_greedy_nu(cost_pool, {}, budget=2.0)
    with pytest.raises(SolverError):
        budgeted_lazy_greedy_nu(
            cost_pool, {v: 0.0 for v in range(10)}, budget=2.0
        )
    with pytest.raises(SolverError):
        budgeted_lazy_greedy_nu(
            cost_pool, uniform_costs(range(10)), budget=0.0
        )
    with pytest.raises(SolverError):
        uniform_costs(range(3), cost=-1.0)


def test_degree_proportional_costs():
    g = from_edge_list(3, [(0, 1, 1.0), (0, 2, 1.0)])
    costs = degree_proportional_costs(g, base=1.0, per_degree=0.5)
    assert costs[0] == 2.0
    assert costs[1] == 1.0
    with pytest.raises(SolverError):
        degree_proportional_costs(g, base=0.0)


def test_budgeted_on_sampled_instance():
    """End-to-end on a sampled pool with degree-proportional costs."""
    from repro.graph.generators import planted_partition_graph
    from repro.graph.weights import assign_weighted_cascade

    graph, blocks = planted_partition_graph(
        [5] * 4, p_in=0.6, p_out=0.05, directed=True, seed=9
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [Community(members=tuple(b), threshold=2, benefit=float(len(b))) for b in blocks]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=10))
    pool.grow(300)
    costs = degree_proportional_costs(graph)
    result = BudgetedUBG().solve(pool, costs, budget=8.0)
    assert result.objective > 0
    assert result.metadata["spent"] <= 8.0 + 1e-9
