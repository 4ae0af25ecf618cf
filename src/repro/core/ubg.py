"""Upper Bound Greedy (UBG) — Algorithm 2.

UBG instantiates the Sandwich Approximation with the submodular upper
bound ``ν_R(S) = (b/|R|) Σ_g min(|I_g(S)|/h_g, 1)`` (eq. 7). It runs
greedy on both ``ν_R`` (lazily — submodular) and ``ĉ_R`` (no marginal
reused across rounds — non-submodular — but each round skips the
candidates whose ĉ-gain bound cannot win) and keeps whichever seed set
scores higher on ``ĉ_R``, yielding the data-dependent ratio
``(ĉ_R(S_ν)/ν_R(S_ν)) · (1 - 1/e)`` (Theorem 2 + Lemma 3).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Set

from repro.core.greedy import greedy_maxr, lazy_greedy_nu
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.obs import trace
from repro.sampling.pool import RICSamplePool
from repro.utils.retry import Deadline, as_deadline
from repro.utils.validation import check_candidates, check_positive


class UBG:
    """Upper Bound Greedy MAXR solver (the paper's best-quality method)."""

    name = "UBG"

    def __init__(
        self,
        lazy: bool = True,
        run_c_greedy: bool = True,
        candidates: Optional[Iterable[int]] = None,
        engine: str = "flat",
        deadline: Optional[Deadline] = None,
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
        #: Optional time bound (Deadline or seconds): polled between
        #: CELF iterations; on expiry the best-so-far seed set is
        #: returned with ``truncated=True`` instead of hanging.
        self.deadline: Optional[Deadline] = as_deadline(deadline)

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """A-priori ratio used for sample bounds: ``1 - 1/e``.

        The data-dependent factor ``ĉ(S_ν)/ν(S_ν)`` is only known after
        solving; it is reported in the selection metadata instead.
        """
        return 1.0 - 1.0 / math.e

    def solve(self, pool: RICSamplePool, k: int) -> SeedSelection:
        """Run Algorithm 2 on the pool.

        When a deadline is set and expires mid-run the ν arm returns its
        best-so-far seeds, the ĉ arm is skipped entirely, and the
        selection is flagged ``truncated``.
        """
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        from repro.core.greedy import greedy_eager_nu

        deadline = self.deadline
        nu_greedy = lazy_greedy_nu if self.lazy else greedy_eager_nu
        with trace.span("ubg/nu_arm", k=k, num_samples=len(pool)):
            seeds_nu = nu_greedy(
                pool,
                k,
                candidates=self.candidates,
                engine=self.engine,
                deadline=deadline,
            )
            value_nu = pool.estimate_benefit(seeds_nu)
            upper_nu = pool.estimate_upper_bound(seeds_nu)
        sandwich = value_nu / upper_nu if upper_nu > 0 else 1.0

        if self.run_c_greedy and not (
            deadline is not None and deadline.expired()
        ):
            with trace.span("ubg/c_arm", k=k, num_samples=len(pool)):
                seeds_c = greedy_maxr(
                    pool,
                    k,
                    candidates=self.candidates,
                    engine=self.engine,
                    deadline=deadline,
                )
                value_c = pool.estimate_benefit(seeds_c)
        else:
            seeds_c, value_c = [], float("-inf")

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
            truncated=deadline is not None and deadline.expired(),
        )

    def __call__(self, pool: RICSamplePool, k: int) -> SeedSelection:
        return self.solve(pool, k)


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
        deadline: Optional[Deadline] = None,
    ) -> None:
        #: Optional seeding-candidate restriction (None = all nodes).
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )
        #: Coverage engine for the greedy ("flat" or "reference").
        self.engine = engine
        #: Optional time bound; best-so-far + ``truncated`` on expiry.
        self.deadline: Optional[Deadline] = as_deadline(deadline)

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """No guarantee; a tiny constant keeps sample bounds finite."""
        return 1e-6

    def solve(self, pool: RICSamplePool, k: int) -> SeedSelection:
        """Greedy selection on ``ĉ_R`` (Alg. 2 line 2, standalone)."""
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        with trace.span("greedyc/select", k=k, num_samples=len(pool)):
            seeds = greedy_maxr(
                pool,
                k,
                candidates=self.candidates,
                engine=self.engine,
                deadline=self.deadline,
            )
        return SeedSelection(
            seeds=tuple(seeds),
            objective=pool.estimate_benefit(seeds),
            solver=self.name,
            metadata={"num_samples": len(pool)},
            truncated=self.deadline is not None and self.deadline.expired(),
        )

    def __call__(self, pool: RICSamplePool, k: int) -> SeedSelection:
        return self.solve(pool, k)
