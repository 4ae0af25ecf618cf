"""Upper Bound Greedy (UBG) — Algorithm 2.

UBG instantiates the Sandwich Approximation with the submodular upper
bound ``ν_R(S) = (b/|R|) Σ_g min(|I_g(S)|/h_g, 1)`` (eq. 7). It runs
greedy on both ``ν_R`` (lazily — submodular) and ``ĉ_R`` (no marginal
reused across rounds — non-submodular — but each round skips the
candidates whose ĉ-gain bound cannot win) and keeps whichever seed set
scores higher on ``ĉ_R``, yielding the data-dependent ratio
``(ĉ_R(S_ν)/ν_R(S_ν)) · (1 - 1/e)`` (Theorem 2 + Lemma 3).

No step of either greedy reads the budget, so the answer for ``k``
depends only on the first ``k`` picks of each run. Given a
:class:`~repro.core.greedy.RunCache` (``runs=``), both solvers draw
their arms from it, and solves on one pool at many budgets share one
run per arm.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Set, Tuple, Type

from repro.core.greedy import (
    EagerNuRun,
    GreedyMaxrRun,
    GreedyRun,
    LazyNuRun,
    RunCache,
)
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.obs import trace
from repro.sampling.pool import RICSamplePool
from repro.utils.retry import Deadline
from repro.utils.validation import check_candidates, check_positive


def _take(
    solver,
    arm: Type[GreedyRun],
    pool: RICSamplePool,
    k: int,
    deadline: Optional[Deadline],
) -> Tuple[List[int], bool]:
    """``arm``'s first ``k`` picks and whether a deadline cut them short.

    The run comes from the solver's :class:`RunCache` when it has one.
    Otherwise it is built for this call and dropped on return, so one
    arm's engine is freed before the next arm builds its own.
    """
    if solver.runs is None:
        run = arm(pool, solver.candidates, solver.engine)
    else:
        run = solver.runs.run(arm, pool, solver.candidates, solver.engine)
    return run.take(k, deadline), run.cut_short(k)


class UBG:
    """Upper Bound Greedy MAXR solver (the paper's best-quality method)."""

    name = "UBG"

    def __init__(
        self,
        lazy: bool = True,
        run_c_greedy: bool = True,
        candidates: Optional[Iterable[int]] = None,
        engine: str = "flat",
        runs: Optional[RunCache] = None,
    ) -> None:
        #: Use CELF for the ν arm (sound because ν is submodular).
        self.lazy = lazy
        #: Coverage engine for both greedy arms: "flat" (default) or
        #: "reference" — identical seed sets, different speed.
        self.engine = engine
        #: Also run greedy on ĉ_R (Alg. 2 line 2). Disabling keeps only
        #: the ν arm — the variant IMCAF integrates (Section V-B), whose
        #: ratio is consistent across stop stages.
        self.run_c_greedy = run_c_greedy
        #: Restrict seeding to these nodes (targeted-marketing setting
        #: where only opted-in users may be seeded). None = all nodes.
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )
        #: Greedy runs kept across solves (None: fresh runs per solve).
        self.runs = runs

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """A-priori ratio used for sample bounds: ``1 - 1/e``.

        The data-dependent factor ``ĉ(S_ν)/ν(S_ν)`` is only known after
        solving; it is reported in the selection metadata instead.
        """
        return 1.0 - 1.0 / math.e

    def solve(
        self,
        pool: RICSamplePool,
        k: int,
        deadline: Optional[Deadline] = None,
    ) -> SeedSelection:
        """Run Algorithm 2 on the pool.

        ``deadline`` is polled between greedy picks. When it expires
        mid-run the ν arm returns its best-so-far seeds and the ĉ arm is
        skipped entirely. The selection is flagged ``truncated`` only
        when an arm stopped on the deadline short of ``k`` picks or the
        ĉ arm was skipped; a deadline that passes after both arms
        finished flags nothing.
        """
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        nu_arm = LazyNuRun if self.lazy else EagerNuRun
        with trace.span("ubg/nu_arm", k=k, num_samples=len(pool)):
            seeds_nu, truncated = _take(self, nu_arm, pool, k, deadline)
            value_nu = pool.estimate_benefit(seeds_nu)
            upper_nu = pool.estimate_upper_bound(seeds_nu)
        sandwich = value_nu / upper_nu if upper_nu > 0 else 1.0

        if self.run_c_greedy and not (
            deadline is not None and deadline.expired()
        ):
            with trace.span("ubg/c_arm", k=k, num_samples=len(pool)):
                seeds_c, cut_short = _take(
                    self, GreedyMaxrRun, pool, k, deadline
                )
                value_c = pool.estimate_benefit(seeds_c)
            truncated = truncated or cut_short
        else:
            seeds_c, value_c = [], float("-inf")
            truncated = truncated or self.run_c_greedy

        if value_c > value_nu:
            winner, value, arm = seeds_c, value_c, "c-greedy"
        else:
            winner, value, arm = seeds_nu, value_nu, "nu-greedy"
        return SeedSelection(
            seeds=tuple(winner),
            objective=value,
            solver=self.name,
            metadata={
                "arm": arm,
                "sandwich_ratio": sandwich,
                "value_nu_arm": value_nu,
                "upper_bound_nu_arm": upper_nu,
                "value_c_arm": value_c if self.run_c_greedy else None,
                "num_samples": len(pool),
            },
            truncated=truncated,
        )


class GreedyC:
    """Plain greedy on ``ĉ_R`` — the second arm of UBG as a standalone.

    No approximation guarantee (``ĉ_R`` is non-submodular, Lemma 2);
    provided as an ablation baseline.
    """

    name = "GreedyC"

    def __init__(
        self,
        candidates: Optional[Iterable[int]] = None,
        engine: str = "flat",
        runs: Optional[RunCache] = None,
    ) -> None:
        #: Optional seeding-candidate restriction (None = all nodes).
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )
        #: Coverage engine for the greedy ("flat" or "reference").
        self.engine = engine
        #: Greedy runs kept across solves (None: a fresh run per solve).
        self.runs = runs

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """No guarantee; a tiny constant keeps sample bounds finite."""
        return 1e-6

    def solve(
        self,
        pool: RICSamplePool,
        k: int,
        deadline: Optional[Deadline] = None,
    ) -> SeedSelection:
        """Greedy selection on ``ĉ_R`` (Alg. 2 line 2, standalone).

        ``deadline`` is polled between greedy picks. Flagged
        ``truncated`` only when the run stopped on the deadline short of
        ``k`` picks.
        """
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        with trace.span("greedyc/select", k=k, num_samples=len(pool)):
            seeds, truncated = _take(
                self, GreedyMaxrRun, pool, k, deadline
            )
        return SeedSelection(
            seeds=tuple(seeds),
            objective=pool.estimate_benefit(seeds),
            solver=self.name,
            metadata={"num_samples": len(pool)},
            truncated=truncated,
        )
