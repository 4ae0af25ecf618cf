"""Solvers on LT-mode pools and remaining solver edge cases.

The MAXR solvers are model-agnostic — they consume reach sets, not the
diffusion model. These tests run every solver on LT-realised pools and
cover the remaining solver corner cases (deep BT recursion shortcut,
MB metadata, GreedyC on LT, framework over an LT pool at h=1 where the
problem collapses to classic coverage).
"""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB
from repro.core.maf import MAF
from repro.core.ubg import UBG, GreedyC
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture(scope="module")
def lt_pool():
    graph, blocks = planted_partition_graph(
        [5] * 4, p_in=0.6, p_out=0.05, directed=True, seed=71
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=72, model="lt"))
    pool.grow(400)
    return pool


@pytest.mark.parametrize(
    "solver_factory",
    [
        lambda: UBG(),
        lambda: GreedyC(),
        lambda: MAF(seed=1),
        lambda: BT(candidate_limit=15),
        lambda: MB(candidate_limit=15, seed=1),
    ],
    ids=["UBG", "GreedyC", "MAF", "BT", "MB"],
)
def test_every_solver_runs_on_lt_pool(lt_pool, solver_factory):
    result = solver_factory().solve(lt_pool, 5)
    assert 1 <= len(result.seeds) <= 5
    assert result.objective == pytest.approx(
        lt_pool.estimate_benefit(result.seeds)
    )
    assert result.objective > 0


def test_lt_worlds_are_in_degree_one_functional_graphs():
    """Under weighted-cascade weights every node's incoming mass is
    exactly 1, so the LT triggering draw keeps exactly one in-edge per
    node with in-neighbours — the realised world is a functional graph
    on its reverse edges. (Notably this means LT reach is NOT generally
    smaller than IC reach here: IC keeps each in-edge only with
    probability 1/d and often keeps none.)"""
    graph, blocks = planted_partition_graph(
        [5] * 4, p_in=0.6, p_out=0.05, directed=True, seed=73
    )
    assign_weighted_cascade(graph)
    from repro.diffusion.linear_threshold import lt_live_edge_graph

    for trial in range(20):
        world = lt_live_edge_graph(graph, seed=trial)
        for v in graph.nodes():
            if graph.in_degree(v) > 0:
                assert world.in_degree(v) == 1
            else:
                assert world.in_degree(v) == 0


def test_bt_depth_shortcut_on_unit_thresholds():
    """BT with a d=3 bound but an all-h=1 collection must shortcut to
    plain greedy (max_threshold() <= 1 branch) and still be optimal."""
    communities = CommunityStructure(
        [
            Community(members=(i,), threshold=1, benefit=1.0)
            for i in range(4)
        ]
    )
    from repro.graph.digraph import DiGraph
    from tests.ric_samples import ric_sample

    pool = RICSamplePool(RICSampler(DiGraph(10), communities, seed=75))
    for i in range(4):
        pool.add(
            ric_sample(i, 1, (i,), (frozenset({i, 8}),))
        )
    result = BT(threshold_bound=3).solve(pool, 1)
    assert result.seeds == (8,)  # covers all four samples
    assert pool.influenced_count(result.seeds) == 4


def test_mb_metadata_reports_both_arms(lt_pool):
    result = MB(candidate_limit=10, seed=2).solve(lt_pool, 4)
    assert result.metadata["arm"] in ("MAF", "BT")
    assert result.metadata["value_maf"] >= 0
    assert result.metadata["value_bt"] >= 0
    assert result.objective == max(
        result.metadata["value_maf"], result.metadata["value_bt"]
    )


def test_framework_lt_h1_reduces_to_coverage():
    """At h=1 the LT IMC is classic LT influence maximization; UBG's
    two arms coincide (Lemma 4) so the sandwich ratio is exactly 1."""
    graph, blocks = planted_partition_graph(
        [4] * 3, p_in=0.7, p_out=0.05, directed=True, seed=76
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [Community(members=tuple(b), threshold=1, benefit=1.0) for b in blocks]
    )
    pool = RICSamplePool(RICSampler(graph, communities, seed=77, model="lt"))
    pool.grow(300)
    result = UBG().solve(pool, 3)
    assert result.metadata["sandwich_ratio"] == pytest.approx(1.0)
