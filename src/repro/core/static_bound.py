"""One-shot (IMM-style) sample budgeting for IMC.

IMCAF (Algorithm 5) follows the SSA stop-and-stare pattern: double the
pool until a statistical check accepts. The other state-of-the-art IM
framework the paper cites — IMM (Tang et al., SIGMOD'15) — instead
*estimates a lower bound on the optimum first*, derives a single sample
count θ from it, and solves once. This module ports that pattern to
IMC:

1. **LB phase** — geometric search over guesses ``x = b/2, b/4, ...``:
   for each guess, grow the pool to the θ(x) implied by the guess and
   test whether the greedy solution's estimate clears ``x``; the first
   cleared guess yields ``LB = x / (1 + ε')``.
2. **Solve phase** — grow to ``θ(LB)`` (eq. 16 with ``c(S*) -> LB``)
   and run the MAXR solver once.

Same `α(1-ε)` flavour of guarantee, different constant factors and —
like IMM vs SSA — sometimes substantially fewer samples because the
data-driven LB is far above the worst-case ``βk/h`` bound of eq. 22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.communities.structure import CommunityStructure
from repro.core.framework import (
    MAXRSolver,
    optimal_benefit_lower_bound,
    psi_sample_bound,
)
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.graph.digraph import DiGraph
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.validation import check_fraction, check_seed_budget


@dataclass(frozen=True)
class StaticIMCResult:
    """Result of :func:`solve_imc_static`."""

    selection: SeedSelection
    num_samples: int
    lower_bound: float
    theta: float
    guesses_tried: int


def solve_imc_static(
    graph: DiGraph,
    communities: CommunityStructure,
    k: int,
    solver: MAXRSolver,
    epsilon: float = 0.2,
    delta: float = 0.2,
    seed: SeedLike = None,
    max_samples: int = 100_000,
    model: str = "ic",
) -> StaticIMCResult:
    """Solve IMC with IMM-style one-shot sample budgeting.

    ``max_samples`` caps every phase (the guarantee degrades to
    best-effort beyond it, as with :func:`~repro.core.framework.solve_imc`).
    """
    check_seed_budget(k, graph.num_nodes, SolverError)
    check_fraction(epsilon, "epsilon", SolverError)
    check_fraction(delta, "delta", SolverError)
    rng = make_rng(seed)
    sampler = RICSampler(graph, communities, seed=spawn_rng(rng), model=model)
    pool = RICSamplePool(sampler)
    alpha = solver.alpha(pool, k)
    if alpha <= 0:
        alpha = 1e-3

    b = communities.total_benefit
    eps_prime = epsilon / 2.0
    # Spread the LB phase's failure probability over its guesses.
    max_guesses = max(1, math.ceil(math.log2(b / max(communities.min_benefit, 1e-9))))
    delta_guess = delta / (2.0 * max_guesses)

    lower_bound = None
    guesses = 0
    x = b / 2.0
    for _ in range(max_guesses):
        guesses += 1
        theta_x = min(
            psi_sample_bound(
                graph, communities, k, alpha, epsilon, delta_guess, x
            ),
            float(max_samples),
        )
        pool.grow_to(math.ceil(theta_x))
        candidate = solver.solve(pool, k)
        if candidate.objective >= (1.0 + eps_prime) * x * alpha:
            lower_bound = x
            break
        x /= 2.0
        if len(pool) >= max_samples:
            break
    if lower_bound is None:
        # All guesses failed (or the cap bit): fall back to the paper's
        # worst-case bound so the final phase is still well-defined.
        lower_bound = optimal_benefit_lower_bound(communities, k)

    theta = min(
        psi_sample_bound(
            graph, communities, k, alpha, epsilon, delta / 2.0, lower_bound
        ),
        float(max_samples),
    )
    pool.grow_to(math.ceil(theta))
    selection = solver.solve(pool, k)
    return StaticIMCResult(
        selection=selection,
        num_samples=len(pool),
        lower_bound=lower_bound,
        theta=theta,
        guesses_tried=guesses,
    )
