"""Property-based tests for solvers and baselines.

- KS's knapsack DP is exactly optimal vs brute force;
- every MAXR solver's result respects its proved guarantee on random
  pools (Theorems 3-5 made executable at property scale);
- seed sets never exceed the budget and never contain duplicates.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.knapsack import knapsack_communities, ks_seeds
from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB
from repro.core.maf import MAF
from repro.core.ubg import UBG
from repro.graph.digraph import DiGraph
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

from tests.ric_samples import ric_sample

# ------------------------------------------------------------ knapsack


@st.composite
def knapsack_instances(draw):
    r = draw(st.integers(1, 7))
    communities = []
    next_node = 0
    for _ in range(r):
        size = draw(st.integers(1, 4))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=draw(st.integers(1, size)),
                benefit=float(draw(st.integers(0, 10))),
            )
        )
    budget = draw(st.integers(1, 10))
    return CommunityStructure(communities), budget


@given(knapsack_instances())
@settings(max_examples=200, deadline=None)
def test_knapsack_matches_brute_force(args):
    structure, budget = args
    chosen = knapsack_communities(structure, budget)
    costs = structure.thresholds()
    values = structure.benefits()
    assert sum(costs[i] for i in chosen) <= budget
    best = 0.0
    for size in range(structure.r + 1):
        for combo in itertools.combinations(range(structure.r), size):
            if sum(costs[i] for i in combo) <= budget:
                best = max(best, sum(values[i] for i in combo))
    assert sum(values[i] for i in chosen) == best


@given(knapsack_instances())
@settings(max_examples=100, deadline=None)
def test_ks_seeds_within_budget_and_distinct(args):
    structure, budget = args
    seeds = ks_seeds(structure, budget)
    assert len(seeds) <= budget
    assert len(seeds) == len(set(seeds))


# -------------------------------------------------- solver guarantees

NUM_NODES = 9


@st.composite
def bounded_pools(draw):
    """Pools whose thresholds are bounded by 2 (BT/MB's precondition)."""
    num_communities = draw(st.integers(1, 3))
    communities = []
    next_node = 0
    for _ in range(num_communities):
        size = draw(st.integers(1, 3))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        communities.append(
            Community(
                members=members,
                threshold=min(2, draw(st.integers(1, size))),
                benefit=1.0,
            )
        )
    structure = CommunityStructure(communities)
    pool = RICSamplePool(RICSampler(DiGraph(NUM_NODES), structure, seed=0))
    for _ in range(draw(st.integers(1, 5))):
        idx = draw(st.integers(0, num_communities - 1))
        community = structure[idx]
        reaches = tuple(
            frozenset(
                draw(st.sets(st.integers(0, NUM_NODES - 1), max_size=3))
                | {member}
            )
            for member in community.members
        )
        pool.add(ric_sample(idx, community.threshold, community.members, reaches))
    k = draw(st.integers(1, 4))
    return pool, k


def _brute_force_optimum(pool, k):
    nodes = pool.touching_nodes()
    if not nodes:
        return 0.0
    best = 0.0
    for size in range(1, min(k, len(nodes)) + 1):
        for combo in itertools.combinations(nodes, size):
            best = max(best, pool.estimate_benefit(combo))
    return best


@given(bounded_pools())
@settings(max_examples=60, deadline=None)
def test_maf_respects_theorem3(args):
    pool, k = args
    result = MAF(seed=1).solve(pool, k)
    communities = pool.sampler.communities
    h = communities.max_threshold
    guarantee = min(1.0, (k // h) / communities.r)
    optimum = _brute_force_optimum(pool, k)
    assert result.objective >= guarantee * optimum - 1e-9


@given(bounded_pools())
@settings(max_examples=60, deadline=None)
def test_bt_respects_theorem4(args):
    pool, k = args
    result = BT().solve(pool, k)
    guarantee = (1 - 1 / math.e) / k
    optimum = _brute_force_optimum(pool, k)
    assert result.objective >= guarantee * optimum - 1e-9


@given(bounded_pools())
@settings(max_examples=60, deadline=None)
def test_mb_respects_theorem5(args):
    pool, k = args
    result = MB(seed=2).solve(pool, k)
    r = pool.sampler.communities.r
    if k >= 2:
        guarantee = math.sqrt((1 - 1 / math.e) * (k // 2) / (k * r))
    else:
        guarantee = (1 - 1 / math.e) / k
    optimum = _brute_force_optimum(pool, k)
    assert result.objective >= guarantee * optimum - 1e-9


@given(bounded_pools())
@settings(max_examples=60, deadline=None)
def test_ubg_respects_sandwich_bound(args):
    pool, k = args
    result = UBG().solve(pool, k)
    ratio = result.metadata["sandwich_ratio"]
    optimum = _brute_force_optimum(pool, k)
    assert result.objective >= ratio * (1 - 1 / math.e) * optimum - 1e-9


@given(bounded_pools())
@settings(max_examples=60, deadline=None)
def test_all_solvers_budget_and_distinctness(args):
    pool, k = args
    for solver in (UBG(), MAF(seed=3), BT(), MB(seed=3)):
        seeds = solver.solve(pool, k).seeds
        assert len(seeds) <= max(
            k, pool.sampler.communities.max_threshold
        )
        assert len(seeds) == len(set(seeds))
