"""The ``IM`` baseline: maximize spread, then measure community benefit.

"IM selects k nodes that maximize the influence spread. Then we
estimate their expected benefit on influenced communities."
(Section VI-A.)

Classic IM is IMC with one community per node, threshold 1 and
benefit 1: a RIC sample of such a community is an RR set (Borgs et al.
2014), ``ĉ_R(S)`` is the RIS spread estimate ``n · coverage / |R|`` and
``ν_R`` is coverage. So the baseline runs on the IMC sampler, pool and
CELF greedy (:func:`~repro.core.greedy.lazy_greedy_nu`), with SSA's
stop-and-stare doubling but without its full statistical apparatus.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.communities.structure import Community, CommunityStructure
from repro.core.greedy import lazy_greedy_nu
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.validation import check_fraction, check_seed_budget


def ris_im(
    graph: DiGraph,
    k: int,
    epsilon: float = 0.2,
    delta: float = 0.2,
    seed: SeedLike = None,
    max_samples: int = 100_000,
) -> Tuple[List[int], float]:
    """Select ``k`` seeds maximizing spread via RR sets.

    Returns ``(seeds, estimated_spread)``. The pool starts at Λ RR sets
    and doubles until the greedy solution covers at least the SSA-style
    threshold ``Λ = (2 + 2ε/3)·ln(1/δ)/ε²`` of them (or holds
    ``max_samples``), so the spread estimate has bounded relative error
    at the returned solution. A negative cap raises
    :class:`~repro.errors.SolverError`; any cap still allows the first
    stage's ``Λ`` samples.
    """
    check_seed_budget(k, graph.num_nodes, SolverError)
    check_fraction(epsilon, "epsilon", SolverError)
    check_fraction(delta, "delta", SolverError)
    if max_samples < 0:
        raise SolverError(f"max_samples must be >= 0, got {max_samples}")
    lam = (2.0 + 2.0 * epsilon / 3.0) * math.log(1.0 / delta) / (epsilon * epsilon)
    singletons = CommunityStructure(
        [
            Community(members=(v,), threshold=1, benefit=1.0)
            for v in range(graph.num_nodes)
        ]
    )
    pool = RICSamplePool(RICSampler(graph, singletons, seed=seed))
    pool.grow(math.ceil(lam))
    while True:
        seeds = lazy_greedy_nu(pool, k)
        if pool.influenced_count(seeds) >= lam or len(pool) >= max_samples:
            return seeds, pool.estimate_benefit(seeds)
        pool.grow(min(len(pool), max_samples - len(pool)))


def im_seeds(
    graph: DiGraph,
    k: int,
    epsilon: float = 0.2,
    delta: float = 0.2,
    seed: SeedLike = None,
    max_samples: int = 100_000,
) -> List[int]:
    """Seeds of the classic-IM baseline (community-blind)."""
    seeds, _ = ris_im(
        graph,
        k,
        epsilon=epsilon,
        delta=delta,
        seed=seed,
        max_samples=max_samples,
    )
    return seeds
