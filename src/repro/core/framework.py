"""IMCAF — the IMC Algorithmic Framework (Algorithm 5) and the
``Estimate`` procedure (Algorithm 6).

IMCAF turns any ``α``-approximate MAXR solver into an ``α(1-ε)``
approximation for IMC holding with probability ``1-δ``:

1. Compute the worst-case sample budget ``Ψ`` (eq. 22, using the
   ``c(S*) ≥ βk/h`` lower bound) and the stop-stage threshold ``Λ``.
2. Generate ``Λ`` RIC samples; solve MAXR on the pool.
3. When the candidate influences ≥ ``Λ`` pool samples, cross-check it
   against an *independent* Dagum stopping-rule estimate ``c*`` of its
   true benefit (Algorithm 6); accept when ``ĉ_R(S) ≤ (1+ε₁)c*``.
4. Otherwise double the pool and repeat, up to ``Ψ`` samples.

The paper's parameter conventions (Section VI-A) are the defaults:
``ε = δ = 0.2``, ``ε₁ = ε₂ = ε/2`` for the Ψ bound and
``ε₁ = ε₂ = ε₃ = ε/4`` for the stop-stage constants. Where the paper's
typesetting of Λ is ambiguous we use the SSA constant
``Λ = (1+ε₁)(1+ε₂)(2 + 2ε₃/3)·ln(3/δ)/ε₃²`` from the framework IMCAF
modifies (Nguyen et al., SIGMOD'16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Protocol, Union

from repro.communities.structure import CommunityStructure
from repro.core.solution import SeedSelection
from repro.diffusion.estimators import (
    dagum_stopping_rule,
    stopping_rule_threshold,
)
from repro.errors import DeadlineExceededError, SolverError
from repro.graph.digraph import DiGraph
from repro.obs import metrics, trace
from repro.obs.diagnostics import ConvergenceCriterion, ConvergenceMonitor
from repro.rng import SeedLike, make_rng, spawn_rng
from repro.sampling.parallel import ParallelRICSampler
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.math import log_binomial
from repro.utils.retry import Deadline, as_deadline
from repro.utils.validation import (
    check_candidates,
    check_fraction,
    check_seed_budget,
)


class MAXRSolver(Protocol):
    """Interface every MAXR algorithm exposes (UBG, MAF, BT, MB, ...)."""

    name: str

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """A-priori approximation ratio used in the Ψ bound."""

    def solve(self, pool: RICSamplePool, k: int) -> SeedSelection:
        """Select up to ``k`` seeds maximizing influenced samples."""


# ----------------------------------------------------------------------
# Sample-count bounds
# ----------------------------------------------------------------------


def optimal_benefit_lower_bound(
    communities: CommunityStructure, k: int
) -> float:
    """The paper's ``c(S*) ≥ βk/h`` lower bound (Section V-A).

    With budget ``k`` the optimum can always influence at least
    ``k/h`` communities' worth of benefit at ``β`` each (as long as
    ``k`` covers at least one threshold; below that we fall back to
    ``β·k/h < β``, which is only *more* conservative).
    """
    beta = communities.min_benefit
    h = communities.max_threshold
    if beta <= 0:
        # A zero-benefit community cannot be the binding term of ρ; use
        # the smallest positive benefit instead so Ψ stays finite.
        positive = [b for b in communities.benefits() if b > 0]
        if not positive:
            raise SolverError("all community benefits are zero")
        beta = min(positive)
    return beta * k / h


def psi_sample_bound(
    graph: DiGraph,
    communities: CommunityStructure,
    k: int,
    alpha: float,
    epsilon: float,
    delta: float,
) -> float:
    """``Ψ`` of eq. 22 with ``ε₁ = ε₂ = ε/2`` and ``δ₁ = δ₂ = δ/2``.

    ``Ψ = (b·h)/(β·k) · max(2 ln(1/δ₁)/ε₁², 3 ln(C(n,k)/δ₂)/(α²ε₂²))``
    """
    check_fraction(epsilon, "epsilon", SolverError)
    check_fraction(delta, "delta", SolverError)
    if alpha <= 0:
        raise SolverError(f"alpha must be positive, got {alpha}")
    eps1 = eps2 = epsilon / 2.0
    delta1 = delta2 = delta / 2.0
    b = communities.total_benefit
    lower = optimal_benefit_lower_bound(communities, k)
    term1 = 2.0 * math.log(1.0 / delta1) / (eps1 * eps1)
    log_union = log_binomial(graph.num_nodes, k) + math.log(1.0 / delta2)
    term2 = 3.0 * log_union / (alpha * alpha * eps2 * eps2)
    return (b / lower) * max(term1, term2)


def lambda_stop_threshold(epsilon: float, delta: float) -> float:
    """Stop-stage coverage threshold ``Λ`` (Alg. 5 line 4).

    Uses ``ε₁ = ε₂ = ε₃ = ε/4`` (which satisfies line 3's constraint
    ``ε ≥ ε₁+ε₂+ε₃+ε₁ε₂``) in the SSA-style constant.
    """
    check_fraction(epsilon, "epsilon", SolverError)
    check_fraction(delta, "delta", SolverError)
    e3 = epsilon / 4.0
    e1 = e2 = epsilon / 4.0
    return (
        (1.0 + e1)
        * (1.0 + e2)
        * (2.0 + 2.0 * e3 / 3.0)
        * math.log(3.0 / delta)
        / (e3 * e3)
    )


# ----------------------------------------------------------------------
# Algorithm 6 — Estimate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateResult:
    """Outcome of the ``Estimate`` procedure (Algorithm 6)."""

    value: Optional[float]
    trials: int
    converged: bool


def estimate_benefit(
    sampler: RICSampler,
    seeds,
    epsilon: float,
    delta: float,
    max_trials: Optional[int] = None,
    monitor: Optional[ConvergenceMonitor] = None,
) -> EstimateResult:
    """Dagum stopping-rule estimate of ``c(S)`` via fresh RIC samples.

    Draws the influence indicator ``X_g(S)`` of independent RIC samples
    (:meth:`~repro.sampling.ric.RICSampler.sample_indicator`, which
    decides it without building reach sets) and feeds it to the
    stopping rule; on convergence returns
    ``b · Λ'/T``, an ``(ε, δ)`` multiplicative approximation of
    ``c(S) = b·E[X_g(S)]`` (Lemma 1). ``value`` is ``None`` when
    ``max_trials`` ran out first (Alg. 6 returns -1) — IMCAF responds by
    growing its pool instead.

    Each trial adds at most 1 to the running sum, so when ``max_trials``
    is below the threshold ``Λ'`` no run can converge. Then nothing is
    drawn: the result is ``(None, 0, False)`` and the sampler's master
    stream is advanced by the ``max_trials`` seeds the trials would have
    taken, so a later Estimate on the same sampler draws the samples it
    would have drawn anyway.

    ``monitor``, when given, observes every drawn indicator
    (:meth:`~repro.obs.diagnostics.ConvergenceMonitor.observe_trial`)
    — a pure tap on the trial stream that changes neither the draws nor
    the stopping decision. Seed ids outside the graph and a negative
    ``max_trials`` raise :class:`~repro.errors.SolverError`.
    """
    seed_set = frozenset(seeds)
    if not seed_set:
        raise SolverError("cannot estimate the benefit of an empty seed set")
    check_candidates(seed_set, sampler.graph.num_nodes, SolverError)
    if max_trials is not None:
        if max_trials < 0:
            raise SolverError(
                f"max_trials must be non-negative, got {max_trials}"
            )
        if max_trials < stopping_rule_threshold(epsilon, delta):
            for _ in range(max_trials):
                sampler.next_sample_seed()
            return EstimateResult(value=None, trials=0, converged=False)
    indicator = sampler.sample_indicator

    def draw() -> float:
        community_index, influenced = indicator(seed_set)
        outcome = 1.0 if influenced else 0.0
        if monitor is not None:
            monitor.observe_trial(outcome, community_index=community_index)
        return outcome

    outcome = dagum_stopping_rule(draw, epsilon, delta, max_trials=max_trials)
    b = sampler.communities.total_benefit
    value = b * outcome.value if outcome.value is not None else None
    return EstimateResult(
        value=value, trials=outcome.trials, converged=outcome.converged
    )


# ----------------------------------------------------------------------
# Algorithm 5 — IMCAF
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class IMCResult:
    """Result of :func:`solve_imc`.

    ``stopped_by`` records which exit fired: ``"estimate"`` (the
    statistical cross-check accepted the candidate), ``"psi"`` (the
    worst-case sample bound was reached — the guarantee still holds, by
    Theorem 6), ``"max_samples"`` (the practical cap; guarantee
    heuristic beyond this point), ``"converged"`` (an adaptive-sampling
    :class:`~repro.obs.diagnostics.ConvergenceCriterion` was satisfied
    — see ``convergence=``), or ``"deadline"`` (the time budget
    expired — the best seed set found so far is returned with
    ``selection.truncated`` set).

    When a convergence monitor was attached, ``metadata["estimator"]``
    carries its summary: final mean/CI/sample count, the ĉ(S)
    trajectory, per-community activation rates and pool composition.
    """

    selection: SeedSelection
    num_samples: int
    psi: float
    lambda_threshold: float
    iterations: int
    stopped_by: str
    benefit_estimate: Optional[float]
    alpha: float
    metadata: Dict[str, Any] = field(default_factory=dict)


def solve_imc(
    graph: DiGraph,
    communities: CommunityStructure,
    k: int,
    solver: MAXRSolver,
    epsilon: float = 0.2,
    delta: float = 0.2,
    seed: SeedLike = None,
    max_samples: Optional[int] = 100_000,
    pool: Optional[RICSamplePool] = None,
    model: str = "ic",
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    engine: str = "serial",
    workers: Optional[int] = None,
    deadline: Union[None, float, Deadline] = None,
    convergence: Union[None, ConvergenceCriterion, ConvergenceMonitor] = None,
) -> IMCResult:
    """Solve IMC with the IMCAF framework (Algorithm 5).

    Returns an ``α(1-ε)``-approximate seed set with probability at least
    ``1-δ`` when allowed to reach ``Ψ`` samples; ``max_samples``
    (default 100 000) caps the pool for laptop-scale runs — the cap is
    recorded in the result so callers know when the formal guarantee was
    traded for tractability. Pass ``max_samples=None`` for the faithful
    unbounded-budget behaviour.

    A pre-built ``pool`` may be supplied to share samples across calls
    (e.g. sweeping ``k`` on one dataset); it must wrap the same graph
    and communities (and then ``engine``/``workers`` are ignored — the
    pool's own sampler is used). ``model`` selects the diffusion model
    the RIC samples realise: ``"ic"`` (the paper's) or ``"lt"`` (the
    extension it sketches in Section II-A).

    ``engine`` selects the sampling engine: ``"serial"`` (one BFS at a
    time) or ``"parallel"`` (process-pool fan-out over ``workers``
    processes, default ``os.cpu_count()``). Both engines produce the
    *identical* pool for a fixed ``seed``, so results are reproducible
    across engines and worker counts.

    ``progress``, when given, is called once per stop stage with a dict
    ``{stage, num_samples, coverage, objective, lambda, psi,
    sampling_profile}`` — the hook long-running callers use for
    logging/UI without the library imposing a logging policy.
    ``sampling_profile`` carries the active engine's unified sampling
    profile (:data:`repro.sampling.profile.PROFILE_KEYS`): samples/sec,
    batch shape, worker utilisation and self-healing counters. Both
    engines emit the same key set; under the serial engine the fan-out
    fields are trivial (``mode="serial"``, one batch, no utilisation).

    ``convergence`` attaches estimator-quality diagnostics
    (``docs/observability.md``, "Estimator quality"). Pass a
    :class:`~repro.obs.diagnostics.ConvergenceMonitor` to *observe*:
    the monitor sees every sample batch, every stop-stage evaluation
    and every Estimate trial, records the ĉ(S)-vs-sample-count
    trajectory, and fills ``metadata["estimator"]`` — results stay
    byte-identical (the monitor is a pure observer: no RNG draws, no
    pool mutation). Pass a
    :class:`~repro.obs.diagnostics.ConvergenceCriterion` to also *act*:
    sampling stops early once the relative CI width of ĉ(S) reaches the
    criterion's target (``stopped_by="converged"``) — the one
    diagnostics mode that changes results.

    ``deadline`` bounds wall-clock time: seconds (float) or a
    :class:`~repro.utils.retry.Deadline`. It is checked between stop
    stages and handed down to the solver when the solver exposes an
    unset ``deadline`` attribute (UBG/MAF/BT/MB/GreedyC all do). On
    expiry the best seed set found so far is returned with
    ``stopped_by="deadline"`` and ``selection.truncated=True``;
    :class:`~repro.errors.DeadlineExceededError` is raised only when
    the budget expires before *any* candidate was selected.
    """
    check_seed_budget(k, graph.num_nodes, SolverError)
    communities.validate_against(graph.num_nodes)
    if engine not in ("serial", "parallel"):
        raise SolverError(
            f"engine must be 'serial' or 'parallel', got {engine!r}"
        )
    deadline = as_deadline(deadline)
    # Hand the deadline down to the solver so it truncates *within* a
    # stage too, not only between stages — but never clobber a deadline
    # the caller installed on the solver directly.
    solver_owns_deadline = (
        deadline is not None
        and hasattr(solver, "deadline")
        and getattr(solver, "deadline") is None
    )
    if solver_owns_deadline:
        solver.deadline = deadline  # type: ignore[attr-defined]
    monitor: Optional[ConvergenceMonitor] = None
    if convergence is not None:
        monitor = (
            convergence
            if isinstance(convergence, ConvergenceMonitor)
            else ConvergenceMonitor(convergence)
        )
    rng = make_rng(seed)
    owns_sampler = pool is None
    if pool is None:
        if engine == "parallel":
            sampler = ParallelRICSampler(
                graph,
                communities,
                seed=spawn_rng(rng),
                model=model,
                workers=workers,
            )
        else:
            sampler = RICSampler(
                graph, communities, seed=spawn_rng(rng), model=model
            )
        pool = RICSamplePool(sampler)
    else:
        if pool.sampler.graph is not graph or pool.sampler.communities is not communities:
            raise SolverError(
                "supplied pool wraps a different graph/community structure"
            )
        sampler = pool.sampler
        model = sampler.model
    # Independent sampler for the Estimate cross-check so its samples
    # never enter the pool the candidate was optimised on.
    estimate_sampler = RICSampler(
        graph, communities, seed=spawn_rng(rng), model=model
    )

    alpha = solver.alpha(pool, k)
    if alpha <= 0:
        # Solvers whose a-priori ratio degenerates (e.g. MAF with k < h)
        # still run; use a floor so Ψ stays finite and let max_samples
        # do the practical capping.
        alpha = 1e-3
    psi = psi_sample_bound(graph, communities, k, alpha, epsilon, delta)
    lam = lambda_stop_threshold(epsilon, delta)
    cap = psi if max_samples is None else min(psi, float(max_samples))
    cap = max(cap, lam)  # always allow at least the first stop stage

    eps_stage = epsilon / 4.0
    iterations = 0
    stopped_by = "max_iterations"
    benefit_estimate: Optional[float] = None
    def out_of_time() -> bool:
        return deadline is not None and deadline.expired()

    def grow_pool(amount: Optional[int] = None, target: Optional[int] = None):
        """Grow the pool, showing the monitor each landed batch."""
        before = len(pool)
        if target is not None:
            pool.grow_to(target)
        else:
            pool.grow(amount or 0)
        if monitor is not None and len(pool) > before:
            monitor.observe_batch(
                pool.samples[before:],
                sampler.last_profile()
                if hasattr(sampler, "last_profile")
                else None,
            )

    try:
        grow_pool(target=math.ceil(lam))
        with trace.span("imc/select", stage=1, num_samples=len(pool)):
            selection = solver.solve(pool, k)

        while True:
            iterations += 1
            # Explicit coverage-engine rebuild point: after each pool
            # growth the solver MUST rebuild its engine on the grown
            # pool — CoverageState / FlatCoverage snapshot the sample
            # count and fail fast if reused across a grow(). Calling
            # solver.solve afresh per stage is that rebuild.
            if iterations > 1:
                with trace.span(
                    "imc/select", stage=iterations, num_samples=len(pool)
                ):
                    selection = solver.solve(pool, k)
            if out_of_time():
                if not selection.seeds:
                    raise DeadlineExceededError(
                        "time budget expired before IMCAF selected any "
                        "seed (no best-so-far result to return)"
                    )
                stopped_by = "deadline"
                selection = replace(selection, truncated=True)
                break
            with trace.span("imc/evaluate", stage=iterations):
                coverage = pool.influenced_count(selection.seeds)
            if progress is not None:
                progress(
                    {
                        "stage": iterations,
                        "num_samples": len(pool),
                        "coverage": coverage,
                        "objective": selection.objective,
                        "lambda": lam,
                        "psi": psi,
                        "sampling_profile": (
                            sampler.last_profile()
                            if hasattr(sampler, "last_profile")
                            else None
                        ),
                    }
                )
            if monitor is not None:
                monitor.observe_stage(pool, selection.seeds, coverage)
                if monitor.should_stop():
                    # Adaptive sampling: the relative CI width of ĉ(S)
                    # reached the criterion's target — stop before
                    # paying for the Estimate cross-check or another
                    # doubling. Only reachable with a criterion, so
                    # monitoring alone never alters the control flow.
                    stopped_by = "converged"
                    metrics.inc("estimator.adaptive.stops")
                    break
            if coverage >= lam and selection.seeds:
                # Line 9: δ' spreads δ/3 over the doubling stages.
                stages = max(1.0, math.log2(max(psi / lam, 2.0)))
                delta_stage = delta / (3.0 * stages)
                t_max = math.ceil(
                    len(pool) * (1.0 + eps_stage) / (1.0 - eps_stage)
                )
                with trace.span("imc/estimate", stage=iterations):
                    estimate = estimate_benefit(
                        estimate_sampler,
                        selection.seeds,
                        epsilon=eps_stage,
                        delta=min(delta_stage, 0.5),
                        max_trials=t_max,
                        monitor=monitor,
                    )
                if estimate.converged and estimate.value is not None:
                    benefit_estimate = estimate.value
                    if selection.objective <= (1.0 + eps_stage) * estimate.value:
                        stopped_by = "estimate"
                        break
            if len(pool) >= cap:
                stopped_by = "psi" if cap >= psi else "max_samples"
                break
            if out_of_time() and selection.seeds:
                # Growing the pool is the expensive step; don't start it
                # on an expired budget.
                stopped_by = "deadline"
                selection = replace(selection, truncated=True)
                break
            grow_pool(amount=min(len(pool), math.ceil(cap) - len(pool)))
    finally:
        # Release worker processes when this call created the sampler.
        if owns_sampler and hasattr(sampler, "close"):
            sampler.close()
        if solver_owns_deadline:
            solver.deadline = None  # type: ignore[attr-defined]

    metadata: Dict[str, Any] = {"epsilon": epsilon, "delta": delta, "k": k}
    if monitor is not None:
        monitor.finalize(pool)
        metadata["estimator"] = monitor.summary()
    return IMCResult(
        selection=selection,
        num_samples=len(pool),
        psi=psi,
        lambda_threshold=lam,
        iterations=iterations,
        stopped_by=stopped_by,
        benefit_estimate=benefit_estimate,
        alpha=alpha,
        metadata=metadata,
    )
