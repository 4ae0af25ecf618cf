"""Estimator-quality diagnostics: convergence, confidence, composition.

Everything the library reports ultimately rests on the RIC Monte-Carlo
estimate of the non-submodular objective ``c(S)``; this module
quantifies how *trustworthy* those numbers are. It provides:

- :class:`StreamingMoments` — a Welford (mean/variance) accumulator
  that never stores its observations, with a Chan-style :meth:`merge`
  so per-batch accumulators combine exactly;
- :func:`normal_halfwidth` and :func:`empirical_bernstein_halfwidth` —
  confidence-interval half-widths (normal approximation and the
  variance-adaptive Maurer–Pontil empirical-Bernstein bound);
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
from typing import Any, Dict, Iterable, List, Optional, Sequence

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


class StreamingMoments:
    """Welford's online mean/variance accumulator.

    Numerically stable, O(1) memory, exact merge: ``push`` each
    observation as it arrives; ``mean`` / ``variance`` (the unbiased
    sample variance) are available at any point. :meth:`merge` combines
    two accumulators as if their streams had been interleaved (Chan et
    al.'s pairwise update), which is what lets per-batch accumulators
    from parallel sampling be folded into one.
    """

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        #: Smallest / largest observation seen (``None`` when empty).
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def push(self, value: float) -> None:
        """Fold one observation into the running moments."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def push_many(self, values: Iterable[float]) -> None:
        """Fold a batch of observations."""
        for value in values:
            self.push(value)

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another accumulator's stream into this one (exactly)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        if other.min is not None and other.min < self.min:  # type: ignore[operator]
            self.min = other.min
        if other.max is not None and other.max > self.max:  # type: ignore[operator]
            self.max = other.max

    @property
    def mean(self) -> float:
        """Running mean (0.0 when empty)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than 2 points)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary: count, mean, variance, std, min, max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


def _check_ci_inputs(n: int, delta: float) -> None:
    if n < 1:
        raise ObservabilityError(f"confidence interval needs n >= 1, got {n}")
    if not (0.0 < delta < 1.0):
        raise ObservabilityError(
            f"delta must be in (0, 1), got {delta}"
        )


def normal_halfwidth(variance: float, n: int, delta: float) -> float:
    """Half-width of the normal-approximation ``1 - delta`` CI.

    ``z_{1-δ/2} · sqrt(V / n)`` with ``V`` the sample variance — the
    classic CLT interval. Cheap and tight for large ``n``; anti-
    conservative for tiny ``n`` or means near the support boundary
    (use :func:`empirical_bernstein_halfwidth` there).
    """
    _check_ci_inputs(n, delta)
    if variance < 0:
        raise ObservabilityError(f"variance must be >= 0, got {variance}")
    z = NormalDist().inv_cdf(1.0 - delta / 2.0)
    return z * math.sqrt(variance / n)


def empirical_bernstein_halfwidth(
    variance: float, value_range: float, n: int, delta: float
) -> float:
    """Maurer–Pontil empirical-Bernstein ``1 - delta`` half-width.

    ``sqrt(2·V·ln(2/δ)/n) + 7·R·ln(2/δ)/(3·(n-1))`` for observations in
    an interval of width ``R`` with sample variance ``V``. Unlike
    Hoeffding it adapts to the *observed* variance, and unlike the
    normal approximation it is a true finite-sample concentration bound
    — the right tool near thresholds where estimator noise decides seed
    quality. Returns ``inf`` for ``n = 1`` (the bound needs ``n >= 2``).
    """
    _check_ci_inputs(n, delta)
    if variance < 0:
        raise ObservabilityError(f"variance must be >= 0, got {variance}")
    if value_range <= 0:
        raise ObservabilityError(
            f"value_range must be positive, got {value_range}"
        )
    if n < 2:
        return float("inf")
    log_term = math.log(2.0 / delta)
    return math.sqrt(2.0 * variance * log_term / n) + (
        7.0 * value_range * log_term / (3.0 * (n - 1))
    )


def bernoulli_sample_variance(successes: float, n: int) -> float:
    """Unbiased sample variance of ``n`` Bernoulli trials.

    ``(n / (n-1)) · p̂ · (1 - p̂)`` with ``p̂ = successes / n`` — the
    closed form of pushing ``n`` indicator values through
    :class:`StreamingMoments`; 0.0 for ``n < 2``.
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


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Relative-CI-width stopping rule for adaptive sampling.

    Sampling may stop once the ``1 - delta`` confidence half-width of
    the running ĉ(S) estimate drops to at most ``ci_width`` of the
    estimate itself (``halfwidth / ĉ <= ci_width``) *and* at least
    ``min_samples`` samples back the estimate. ``method`` picks the
    interval: ``"normal"`` (CLT) or ``"bernstein"``
    (:func:`empirical_bernstein_halfwidth`; conservative, finite-
    sample). A zero estimate never satisfies the rule — its relative
    width is unbounded — so adaptive runs cannot stop on "no influence
    observed yet".

    Passing a criterion to ``solve_imc(..., convergence=...)`` is the
    one diagnostics feature that **changes results**: the pool stops
    growing as soon as the rule fires (``stopped_by="converged"``).
    Attaching a bare :class:`ConvergenceMonitor` instead observes
    without intervening.
    """

    ci_width: float
    min_samples: int = 100
    delta: float = 0.05
    method: str = "normal"

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
        if not (0.0 < self.delta < 1.0):
            raise ObservabilityError(
                f"delta must be in (0, 1), got {self.delta}"
            )
        if self.method not in ("normal", "bernstein"):
            raise ObservabilityError(
                f"method must be 'normal' or 'bernstein', got {self.method!r}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for manifests."""
        return {
            "ci_width": self.ci_width,
            "min_samples": self.min_samples,
            "delta": self.delta,
            "method": self.method,
        }


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

    Returns the sample count, reach-size moments (one size per member
    of each sample), samples per source community, and the
    :func:`pool_memory_bytes` footprint. One full pass over the pool —
    call it at end of run (the monitor does so in
    :meth:`ConvergenceMonitor.finalize`), not per batch.
    """
    sizes = StreamingMoments()
    for sample in pool.samples:
        for size in sample.reach_sizes():
            sizes.push(size)
    return {
        "samples": len(pool.samples),
        "reach_size": sizes.as_dict(),
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

    - :meth:`observe_batch` — every batch of RIC samples as it lands
      (from either sampling engine, alongside that engine's unified
      ``last_profile()`` dict): reach sizes feed the
      ``pool.reach.histogram`` and the batch shape is remembered;
    - :meth:`observe_stage` — every stop-stage evaluation of the
      candidate seed set: one ``(num_samples, ĉ, halfwidth)`` trajectory
      point plus per-community activation counts;
    - :meth:`observe_trial` — every Algorithm 6 (Dagum) cross-check
      draw: the influence indicators stream into a
      :class:`StreamingMoments`;
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
        #: Algorithm 6 influence-indicator moments (Welford).
        self.trial_moments = StreamingMoments()
        #: Per-community activation counts (stages + Alg. 6 trials).
        self.activation = ActivationTracker()
        self._batch_profiles: List[Dict[str, Any]] = []
        self._samples_observed = 0
        self._converged = False
        self._composition: Optional[Dict[str, Any]] = None

    # -- observation hooks ---------------------------------------------

    def observe_batch(
        self,
        samples: Sequence[Any],
        profile: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one landed batch of RIC samples.

        ``profile`` is the generating engine's ``last_profile()`` dict
        (the unified schema both engines share); its mode/shape is kept
        for the summary's batch log. The reach sizes are only worked out
        while an instrumentation session records the histogram.
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
        if profile is not None:
            self._batch_profiles.append(
                {
                    "mode": profile.get("mode"),
                    "samples": profile.get("samples"),
                    "samples_per_sec": profile.get("samples_per_sec"),
                    "workers": profile.get("workers"),
                }
            )

    def observe_stage(self, pool, seeds: Iterable[int], influenced: int) -> None:
        """Record one stop-stage evaluation of the candidate seed set.

        ``influenced`` is the pool coverage ``Σ_g X_g(S)`` the framework
        already computed; the monitor derives ĉ(S), its confidence
        half-width (per the criterion's method and delta, defaulting to
        a 95% normal interval when unmonitored), appends the trajectory
        point, publishes the ``estimator.samples.used`` gauge, and
        folds the per-community influence split into the activation
        tracker.
        """
        n = len(pool)
        if n < 1:
            raise ObservabilityError("cannot observe a stage on an empty pool")
        b = pool.total_benefit
        delta = self.criterion.delta if self.criterion else 0.05
        method = self.criterion.method if self.criterion else "normal"
        p_variance = bernoulli_sample_variance(influenced, n)
        if method == "bernstein":
            halfwidth = b * empirical_bernstein_halfwidth(
                p_variance, 1.0, n, delta
            )
        else:
            halfwidth = b * normal_halfwidth(p_variance, n, delta)
        estimate = b * influenced / n
        relative = halfwidth / estimate if estimate > 0 else None
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
        """Record one Algorithm 6 influence-indicator draw."""
        self.trial_moments.push(value)
        if community_index is not None:
            self.activation.observe(community_index, value > 0)

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
        (when adaptive), Algorithm 6 trial moments, per-community
        activation rates, batch shapes, and (after :meth:`finalize`)
        pool composition.
        """
        last = self.trajectory[-1] if self.trajectory else None
        return {
            "criterion": self.criterion.as_dict() if self.criterion else None,
            "converged": self._converged,
            "samples": last["samples"] if last else self._samples_observed,
            "mean": last["estimate"] if last else None,
            "halfwidth": last["halfwidth"] if last else None,
            "relative_width": last["relative_width"] if last else None,
            "stages": len(self.trajectory),
            "trajectory": list(self.trajectory),
            "estimate_trials": (
                self.trial_moments.as_dict()
                if self.trial_moments.count
                else None
            ),
            "communities": {
                str(index): stats
                for index, stats in self.activation.rates().items()
            },
            "batches": list(self._batch_profiles),
            "pool": self._composition,
        }
