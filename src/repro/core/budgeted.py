"""Budgeted (cost-aware) IMC — the paper's future-work direction.

The authors' own prior work (CTVM, ref. [8]) generalises IM with
per-node seeding costs and a budget ``B``; this module ports that
generalisation to IMC's sandwich machinery: a cost-aware lazy greedy on
the submodular upper bound ``ν_R`` using the benefit-per-cost rule,
combined with the best single affordable node — the classic guard that
restores a constant-factor guarantee (``(1-1/e)/2``-style) for budgeted
submodular maximisation (Khuller-Moss-Naor / Leskovec's CELF paper).

Like UBG, the result's quality relative to the *non-submodular* ``ĉ_R``
carries the data-dependent sandwich factor ``ĉ(S_ν)/ν(S_ν)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core.flat_engine import FlatCoverage
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.sampling.pool import RICSamplePool
from repro.utils.heap import LazyMaxHeap


def _check_costs(costs: Mapping[int, float], nodes: Iterable[int]) -> None:
    for node in nodes:
        cost = costs.get(node)
        if cost is None:
            raise SolverError(f"node {node} has no seeding cost")
        if cost <= 0:
            raise SolverError(f"node {node} has non-positive cost {cost}")


def budgeted_lazy_greedy_nu(
    pool: RICSamplePool,
    costs: Mapping[int, float],
    budget: float,
) -> List[int]:
    """Cost-aware CELF on ``ν_R``: pick by marginal-gain / cost.

    Only nodes whose remaining cost fits the budget are considered each
    round. Lazy evaluation stays sound: dividing a submodular marginal
    by a constant cost preserves the upper-bound invariant.
    """
    if budget <= 0:
        raise SolverError(f"budget must be positive, got {budget}")
    candidates = sorted(pool.touching_nodes())
    _check_costs(costs, candidates)
    state = FlatCoverage(pool)
    heap: LazyMaxHeap[int] = LazyMaxHeap()
    for node in candidates:
        gain = state.gain_fractional(node)
        if gain > 0.0:
            heap.push(node, gain / costs[node])
    chosen: List[int] = []
    spent = 0.0
    skipped: List[int] = []
    while heap:
        node, _ = heap.pop_max()
        if spent + costs[node] > budget:
            skipped.append(node)  # may fit later? no — costs fixed; drop
            continue
        fresh = state.gain_fractional(node)
        if fresh <= 0.0:
            continue
        ratio = fresh / costs[node]
        if heap:
            _, next_best = heap.peek_max()
            if ratio < next_best - 1e-12:
                heap.push(node, ratio)
                continue
        state.add_seed(node)
        chosen.append(node)
        spent += costs[node]
    return chosen


def best_single_affordable(
    pool: RICSamplePool,
    costs: Mapping[int, float],
    budget: float,
) -> List[int]:
    """The single affordable node with the largest ``ν_R`` value.

    The guard arm of budgeted submodular maximisation: benefit-per-cost
    greedy alone can be arbitrarily bad when one expensive node
    dominates; taking the max against the best singleton restores the
    constant factor.
    """
    state = FlatCoverage(pool)
    best_node: Optional[int] = None
    best_gain = 0.0
    for node in sorted(pool.touching_nodes()):
        cost = costs.get(node)
        if cost is None or cost > budget:
            continue
        gain = state.gain_fractional(node)
        if gain > best_gain:
            best_gain = gain
            best_node = node
    return [best_node] if best_node is not None else []


class BudgetedUBG:
    """Cost-aware UBG: sandwich greedy under a seeding budget.

    ``solve`` takes the pool, per-node costs and the budget ``B``;
    returns the better (under ``ĉ_R``) of the cost-aware ν greedy and
    the best affordable singleton.
    """

    name = "BudgetedUBG"

    def solve(
        self,
        pool: RICSamplePool,
        costs: Mapping[int, float],
        budget: float,
    ) -> SeedSelection:
        """Run both budgeted arms and keep the better under ``ĉ_R``."""
        greedy = budgeted_lazy_greedy_nu(pool, costs, budget)
        single = best_single_affordable(pool, costs, budget)
        value_greedy = pool.estimate_benefit(greedy)
        value_single = pool.estimate_benefit(single)
        if value_greedy >= value_single:
            winner, value, arm = greedy, value_greedy, "cost-greedy"
        else:
            winner, value, arm = single, value_single, "best-single"
        spent = sum(costs[v] for v in winner)
        upper = pool.estimate_upper_bound(winner)
        return SeedSelection(
            seeds=tuple(winner),
            objective=value,
            solver=self.name,
            metadata={
                "arm": arm,
                "budget": budget,
                "spent": spent,
                "sandwich_ratio": value / upper if upper > 0 else 1.0,
                "num_samples": len(pool),
            },
        )


def uniform_costs(nodes: Iterable[int], cost: float = 1.0) -> Dict[int, float]:
    """Convenience: the same seeding cost for every node (budget = k
    recovers cardinality-constrained IMC)."""
    if cost <= 0:
        raise SolverError(f"cost must be positive, got {cost}")
    return {node: cost for node in nodes}


def degree_proportional_costs(
    graph, base: float = 1.0, per_degree: float = 0.1
) -> Dict[int, float]:
    """Costs growing with out-degree — influential users charge more,
    the standard cost model of the cost-aware IM literature."""
    if base <= 0 or per_degree < 0:
        raise SolverError("base must be positive and per_degree non-negative")
    return {
        v: base + per_degree * graph.out_degree(v) for v in graph.nodes()
    }
