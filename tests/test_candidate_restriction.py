"""Candidate-restricted (targeted) seeding tests.

Only a subset of users may be seeded (opted-in users, monitorable
accounts, ...). Every MAXR solver accepts a ``candidates`` restriction
and must never seed outside it.
"""

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB
from repro.core.framework import solve_imc
from repro.core.maf import MAF
from repro.core.ubg import UBG, GreedyC
from repro.errors import SolverError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler


@pytest.fixture(scope="module")
def pool():
    graph, blocks = planted_partition_graph(
        [5] * 5, p_in=0.6, p_out=0.05, directed=True, seed=51
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    p = RICSamplePool(RICSampler(graph, communities, seed=52))
    p.grow(400)
    return p


EVEN_NODES = frozenset(range(0, 25, 2))


EVERY_SOLVER = pytest.mark.parametrize(
    "solver_factory",
    [
        lambda c: UBG(candidates=c),
        lambda c: GreedyC(candidates=c),
        lambda c: MAF(seed=1, candidates=c),
        lambda c: BT(candidate_limit=15, candidates=c),
        lambda c: MB(candidate_limit=15, seed=1, candidates=c),
    ],
    ids=["UBG", "GreedyC", "MAF", "BT", "MB"],
)


@EVERY_SOLVER
def test_solvers_respect_candidate_set(pool, solver_factory):
    solver = solver_factory(EVEN_NODES)
    result = solver.solve(pool, 5)
    assert set(result.seeds) <= EVEN_NODES
    assert result.seeds  # something was still selectable


@EVERY_SOLVER
def test_solvers_reject_candidates_outside_the_graph(pool, solver_factory):
    """Ids outside ``[0, n)`` are an error naming them, never seeds."""
    n = pool.sampler.graph.num_nodes
    for outside in ({10**6}, {-5, 3}, {n, 0}):
        with pytest.raises(SolverError) as caught:
            solver_factory(outside).solve(pool, 3)
        named = sorted(v for v in outside if not 0 <= v < n)
        assert str(named) in str(caught.value)


def test_imcaf_rejects_candidates_outside_the_graph(pool):
    sampler = pool.sampler
    with pytest.raises(SolverError, match="1000000"):
        solve_imc(
            sampler.graph,
            sampler.communities,
            2,
            GreedyC(candidates=[10**6, -1]),
            seed=1,
            max_samples=500,
        )


def test_restriction_costs_quality(pool):
    """Restricting to a thin candidate set cannot improve the optimum."""
    free = UBG().solve(pool, 5)
    restricted = UBG(candidates=frozenset(range(0, 25, 5))).solve(pool, 5)
    assert restricted.objective <= free.objective + 1e-9


def test_unrestricted_default_unchanged(pool):
    a = UBG().solve(pool, 4)
    b = UBG(candidates=None).solve(pool, 4)
    assert a.seeds == b.seeds


def test_maf_s1_skips_uncoverable_communities(pool):
    """With candidates excluding whole communities, S1 only seeds
    communities it can fully cover to threshold."""
    candidates = frozenset(range(0, 10))  # only the first two blocks
    solver = MAF(seed=2, candidates=candidates)
    s1 = solver._build_s1(pool, 6)
    assert set(s1) <= candidates


def test_restriction_to_single_community(pool):
    only_first = frozenset(range(0, 5))
    result = MB(candidate_limit=10, seed=3, candidates=only_first).solve(
        pool, 4
    )
    assert set(result.seeds) <= only_first
    # Seeding within one block can influence at least that block's
    # samples.
    assert result.objective > 0


def test_empty_candidate_intersection_yields_empty_seeds(pool):
    """Candidates touching nothing: solvers return empty selections
    gracefully (objective 0)."""
    ghost = frozenset({24})  # may touch something; use an id beyond graph
    solver = MAF(seed=4, candidates=frozenset())
    result = solver.solve(pool, 3)
    assert result.seeds == ()
    assert result.objective == 0.0
