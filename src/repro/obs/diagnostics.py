"""Estimator-quality diagnostics: the ĉ(S) interval, convergence, composition.

Everything the library reports ultimately rests on the RIC Monte-Carlo
estimate of the non-submodular objective ``c(S)``; this module
quantifies how *trustworthy* those numbers are. It provides:

- :func:`benefit_interval` — the pool estimate ĉ(S) with its
  ``1 - CI_DELTA`` normal confidence interval, the one interval both a
  serving shard's ``ci_width`` top-up and IMCAF's adaptive stop read;
  :func:`normal_halfwidth` and :func:`bernoulli_sample_variance` are
  its parts;
- :class:`ActivationTracker` — per-community activation-probability
  counts (how often samples sourced at each community were influenced
  by the seed set under evaluation);
- :class:`ConvergenceMonitor` — the streaming observer ``solve_imc``
  attaches via its ``convergence=`` argument: it watches sample batches
  as they land, records the ĉ(S)-vs-sample-count trajectory, and
  optionally implements a relative-CI-width stopping rule
  (:class:`ConvergenceCriterion`) that turns monitoring into *adaptive
  sampling*;
- pool-composition diagnostics (:func:`pool_composition`,
  :func:`pool_memory_bytes`, :func:`observe_pool`) — reach-size
  histograms, sources-per-community and a memory-footprint gauge.

Monitors are **pure observers**: they draw nothing from any RNG stream
and mutate neither pool nor sampler, so attaching one (without a
stopping rule) leaves every result byte-identical —
``tests/test_obs_diagnostics.py`` pins that down for both sampling
engines. Metric emission inside a monitor goes through
:mod:`repro.obs.metrics` and is therefore a no-op unless an
instrumentation session is active; the monitor's own summary
(:meth:`ConvergenceMonitor.summary`) works either way.

See ``docs/observability.md`` ("Estimator quality") for the statistics
and the exact stopping rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs import _gate
from repro.obs.metrics import metrics

#: Bucket upper edges for the reach-size histogram
#: (``pool.reach.histogram``): powers of two spanning singleton reach
#: sets to very large cascades.
REACH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Bucket upper edges for the samples-per-source-community histogram
#: (``pool.sources.histogram``).
SOURCE_COUNT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 5000)


#: Confidence level of the reported ĉ(S) interval (``1 - CI_DELTA``).
CI_DELTA = 0.05


def normal_halfwidth(variance: float, n: int, delta: float) -> float:
    """Half-width of the normal-approximation ``1 - delta`` CI.

    ``z_{1-δ/2} · sqrt(V / n)`` with ``V`` the sample variance — the
    classic CLT interval. Cheap and tight for large ``n``; anti-
    conservative for tiny ``n`` or means near the support boundary.
    """
    if n < 1:
        raise ObservabilityError(f"confidence interval needs n >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ObservabilityError(f"delta must be in (0, 1), got {delta}")
    if variance < 0:
        raise ObservabilityError(f"variance must be >= 0, got {variance}")
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)
    return z * math.sqrt(variance / n)


def bernoulli_sample_variance(successes: float, n: int) -> float:
    """Unbiased sample variance of ``n`` Bernoulli trials.

    ``(n / (n-1)) · p̂ · (1 - p̂)`` with ``p̂ = successes / n`` — the
    closed form of the sample variance of ``n`` 0/1 indicators; 0.0
    for ``n < 2``.
    """
    if n < 1:
        raise ObservabilityError(f"need n >= 1 Bernoulli trials, got {n}")
    if not (0.0 <= successes <= n):
        raise ObservabilityError(
            f"successes must be in [0, {n}], got {successes}"
        )
    if n < 2:
        return 0.0
    p = successes / n
    return n / (n - 1) * p * (1.0 - p)


def benefit_interval(
    total_benefit: float, influenced: int, n: int
) -> Tuple[float, float, Optional[float]]:
    """The pool estimate ĉ(S) and its ``1 - CI_DELTA`` normal interval.

    ``influenced`` is the pool coverage ``Σ_g X_g(S)`` over ``n``
    samples and ``total_benefit`` is ``b``. Returns ``(estimate,
    halfwidth, relative_width)``: ``ĉ = b · influenced / n`` (eq. 3),
    ``b`` times the :func:`normal_halfwidth` of the ``n`` indicators'
    :func:`bernoulli_sample_variance`, and ``halfwidth / ĉ`` — ``None``
    for a zero estimate, whose relative width is unbounded.
    """
    halfwidth = total_benefit * normal_halfwidth(
        bernoulli_sample_variance(influenced, n), n, CI_DELTA
    )
    estimate = total_benefit * influenced / n
    relative = halfwidth / estimate if estimate > 0 else None
    return estimate, halfwidth, relative


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Relative-CI-width stopping rule for adaptive sampling.

    Sampling may stop once the :func:`benefit_interval` half-width of
    the running ĉ(S) estimate drops to at most ``ci_width`` of the
    estimate itself (``halfwidth / ĉ <= ci_width``) *and* at least
    ``min_samples`` samples back the estimate. A zero estimate never
    satisfies the rule — its relative width is unbounded — so adaptive
    runs cannot stop on "no influence observed yet".

    Passing a criterion to ``solve_imc(..., convergence=...)`` is the
    one diagnostics feature that **changes results**: the pool stops
    growing as soon as the rule fires (``stopped_by="converged"``).
    Attaching a bare :class:`ConvergenceMonitor` instead observes
    without intervening.
    """

    ci_width: float
    min_samples: int = 100

    def __post_init__(self) -> None:
        if not 0 < self.ci_width < math.inf:
            raise ObservabilityError(
                f"ci_width must be a positive finite number, got "
                f"{self.ci_width}"
            )
        if self.min_samples < 1:
            raise ObservabilityError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for manifests."""
        return {"ci_width": self.ci_width, "min_samples": self.min_samples}


class ActivationTracker:
    """Per-community activation-probability counts.

    Tracks, for each source community, how many influence observations
    were made on samples it sourced and how many of those came out
    influenced — the per-community activation probability ``p̂_i`` the
    seed set achieves. Feed it one observation at a time
    (:meth:`observe`, used by the Algorithm 6 trial stream) or in bulk
    (:meth:`add_counts`, used after each pool evaluation stage).
    """

    def __init__(self) -> None:
        self._seen: Dict[int, int] = {}
        self._influenced: Dict[int, int] = {}

    def observe(self, community_index: int, influenced: bool) -> None:
        """Record one influence observation for one sample."""
        self._seen[community_index] = self._seen.get(community_index, 0) + 1
        if influenced:
            self._influenced[community_index] = (
                self._influenced.get(community_index, 0) + 1
            )

    def add_counts(
        self, seen: Dict[int, int], influenced: Dict[int, int]
    ) -> None:
        """Fold bulk per-community (seen, influenced) counts in."""
        for index, count in seen.items():
            self._seen[index] = self._seen.get(index, 0) + count
        for index, count in influenced.items():
            self._influenced[index] = self._influenced.get(index, 0) + count

    def rates(self) -> Dict[int, Dict[str, float]]:
        """Per-community ``{seen, influenced, rate}``, by index."""
        return {
            index: {
                "seen": seen,
                "influenced": self._influenced.get(index, 0),
                "rate": self._influenced.get(index, 0) / seen,
            }
            for index, seen in sorted(self._seen.items())
        }


def pool_memory_bytes(pool) -> int:
    """Shallow structural memory estimate of a RIC sample pool, in bytes.

    Sums ``sys.getsizeof`` over the sample list, each sample and its
    three tuples (members and the ``(node, mask)`` pairs), and the mask
    index: its node table and each node's ``{sample: mask}`` dict.
    Element integers (node ids, sample indices, masks) are not charged;
    treat the number as a comparable footprint gauge, not an exact RSS
    prediction.
    """
    total = sys.getsizeof(pool.samples)
    for sample in pool.samples:
        total += sys.getsizeof(sample)
        total += sys.getsizeof(sample.members)
        total += sys.getsizeof(sample.nodes)
        total += sys.getsizeof(sample.masks)
    index = pool._masks
    total += sys.getsizeof(index)
    total += sum(map(sys.getsizeof, index.values()))
    return total


def pool_composition(pool) -> Dict[str, Any]:
    """Composition diagnostics of a RIC sample pool.

    Returns the sample count, samples per source community, and the
    :func:`pool_memory_bytes` footprint. One full pass over the pool —
    call it at end of run (the monitor does so in
    :meth:`ConvergenceMonitor.finalize`), not per batch. The reach-size
    distribution is the ``pool.reach.histogram`` metric.
    """
    return {
        "samples": len(pool.samples),
        "sources": {
            str(index): count
            for index, count in sorted(pool.community_counts().items())
        },
        "bytes": pool_memory_bytes(pool),
    }


def observe_pool(pool) -> Dict[str, Any]:
    """Emit a pool's composition diagnostics to the metrics registry.

    Computes :func:`pool_composition` and publishes it: the reach-size
    histogram (``pool.reach.histogram``), the samples-per-source
    histogram (``pool.sources.histogram``) and the footprint gauge
    (``pool.bytes``). Returns the composition dict, so callers can
    embed it in a manifest. All emission is gated on the
    instrumentation session like every other metric call.
    """
    composition = pool_composition(pool)
    for sample in pool.samples:
        for size in sample.reach_sizes():
            metrics.observe(
                "pool.reach.histogram", size, buckets=REACH_SIZE_BUCKETS
            )
    for count in pool.community_counts().values():
        metrics.observe(
            "pool.sources.histogram", count, buckets=SOURCE_COUNT_BUCKETS
        )
    metrics.set_gauge("pool.bytes", composition["bytes"])
    return composition


class ConvergenceMonitor:
    """Streaming observer of an IMC run's estimator quality.

    Attach one via ``solve_imc(..., convergence=monitor)`` (or pass a
    :class:`ConvergenceCriterion` and let ``solve_imc`` wrap it). The
    framework then feeds the monitor:

    - :meth:`observe_batch` — every batch of RIC samples as it lands:
      reach sizes feed the ``pool.reach.histogram``;
    - :meth:`observe_stage` — every stop-stage evaluation of the
      candidate seed set: one :func:`benefit_interval` trajectory point
      plus per-community activation counts;
    - :meth:`observe_trial` — every Algorithm 6 (Dagum) cross-check
      draw: the trial and influenced-trial counts;
    - :meth:`finalize` — once, at end of run: pool-composition
      diagnostics and the footprint gauge.

    The monitor is strictly read-only with respect to the run: no RNG
    draws, no pool mutation. With no criterion it never asks to stop
    and results are byte-identical to an unmonitored run; with a
    criterion, :meth:`should_stop` turns the latest trajectory point
    into an adaptive-sampling early exit. One monitor observes one run
    — attach a fresh instance per ``solve_imc`` call.
    """

    def __init__(
        self, criterion: Optional[ConvergenceCriterion] = None
    ) -> None:
        self.criterion = criterion
        #: ĉ(S) trajectory: one dict per observed stage.
        self.trajectory: List[Dict[str, Any]] = []
        #: Algorithm 6 draws, and how many of them were influenced.
        self.trials = 0
        self.influenced_trials = 0
        #: Per-community activation counts (stages + Alg. 6 trials).
        self.activation = ActivationTracker()
        self._samples_observed = 0
        self._converged = False
        self._composition: Optional[Dict[str, Any]] = None

    # -- observation hooks ---------------------------------------------

    def observe_batch(self, samples: Sequence[Any]) -> None:
        """Record one landed batch of RIC samples.

        The reach sizes are only worked out while an instrumentation
        session records the histogram.
        """
        if _gate.active:
            for sample in samples:
                for size in sample.reach_sizes():
                    metrics.observe(
                        "pool.reach.histogram",
                        size,
                        buckets=REACH_SIZE_BUCKETS,
                    )
        self._samples_observed += len(samples)

    def observe_stage(self, pool, seeds: Iterable[int], influenced: int) -> None:
        """Record one stop-stage evaluation of the candidate seed set.

        ``influenced`` is the pool coverage ``Σ_g X_g(S)`` the framework
        already computed; the monitor derives ĉ(S) and its
        :func:`benefit_interval`, appends the trajectory point,
        publishes the ``estimator.samples.used`` gauge, and folds the
        per-community influence split into the activation tracker.
        """
        n = len(pool)
        if n < 1:
            raise ObservabilityError("cannot observe a stage on an empty pool")
        estimate, halfwidth, relative = benefit_interval(
            pool.total_benefit, influenced, n
        )
        self.trajectory.append(
            {
                "samples": n,
                "influenced": influenced,
                "estimate": estimate,
                "halfwidth": halfwidth,
                "relative_width": relative,
            }
        )
        seen, hit = pool.influenced_count_by_community(seeds)
        self.activation.add_counts(seen, hit)
        metrics.set_gauge("estimator.samples.used", n)

    def observe_trial(
        self, value: float, community_index: Optional[int] = None
    ) -> None:
        """Record one Algorithm 6 influence-indicator draw (0 or 1)."""
        influenced = value > 0
        self.trials += 1
        self.influenced_trials += influenced
        if community_index is not None:
            self.activation.observe(community_index, influenced)

    # -- stopping rule -------------------------------------------------

    def should_stop(self) -> bool:
        """Whether the criterion is satisfied at the latest stage.

        Always ``False`` without a criterion (pure monitoring) or
        before the first :meth:`observe_stage`.
        """
        if self.criterion is None or not self.trajectory:
            return False
        point = self.trajectory[-1]
        if point["samples"] < self.criterion.min_samples:
            return False
        relative = point["relative_width"]
        if relative is None or relative > self.criterion.ci_width:
            return False
        self._converged = True
        return True

    @property
    def converged(self) -> bool:
        """Whether the stopping rule ever fired."""
        return self._converged

    # -- finalisation --------------------------------------------------

    def finalize(self, pool) -> None:
        """End-of-run pool diagnostics: composition and footprint gauge.

        Idempotent per monitor; safe to skip (``summary`` then omits the
        pool block).
        """
        composition = pool_composition(pool)
        for count in pool.community_counts().values():
            metrics.observe(
                "pool.sources.histogram", count, buckets=SOURCE_COUNT_BUCKETS
            )
        metrics.set_gauge("pool.bytes", composition["bytes"])
        self._composition = composition

    def summary(self) -> Dict[str, Any]:
        """JSON-ready estimator block for manifests and reports.

        Final mean/CI/sample count, the full trajectory, the criterion
        (when adaptive), the Algorithm 6 trial count with the mean and
        standard deviation of its indicators, per-community activation
        rates, and (after :meth:`finalize`) pool composition.
        """
        last = self.trajectory[-1] if self.trajectory else None
        trials = None
        if self.trials:
            trials = {
                "count": self.trials,
                "mean": self.influenced_trials / self.trials,
                "std": math.sqrt(
                    bernoulli_sample_variance(
                        self.influenced_trials, self.trials
                    )
                ),
            }
        return {
            "criterion": self.criterion.as_dict() if self.criterion else None,
            "converged": self._converged,
            "samples": last["samples"] if last else self._samples_observed,
            "mean": last["estimate"] if last else None,
            "halfwidth": last["halfwidth"] if last else None,
            "relative_width": last["relative_width"] if last else None,
            "stages": len(self.trajectory),
            "trajectory": list(self.trajectory),
            "estimate_trials": trials,
            "communities": {
                str(index): stats
                for index, stats in self.activation.rates().items()
            },
            "pool": self._composition,
        }
