"""Retry and deadline primitives for fault-tolerant execution.

Long-running entry points (parallel sampling, IMCAF, the serving
cluster) share two small building blocks:

- :class:`Deadline` — a monotonic-clock point in time. Hot loops poll
  ``expired()`` between iterations and degrade gracefully instead of
  hanging; ``Deadline(math.inf)`` never expires.
- :class:`RetryPolicy` — bounded attempts with exponential backoff and
  *deterministically seeded* jitter (via :mod:`repro.rng`), so retry
  schedules are reproducible in tests and benchmarks. The policy is a
  plain picklable dataclass; the parallel sampler ships it unchanged.

Determinism note: jitter randomness never touches any sampling RNG
stream — a retried run produces byte-identical samples because sample
child seeds are pre-drawn before dispatch (see
:mod:`repro.sampling.parallel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple, Type

from repro.errors import SolverError
from repro.rng import make_rng

Clock = Callable[[], float]


class Deadline:
    """A point on the monotonic clock after which work should stop.

    ``Deadline(seconds)`` expires ``seconds`` from construction, and
    ``Deadline(math.inf)`` never does. The clock is injectable for
    tests.
    """

    __slots__ = ("_clock", "_expires_at")

    def __init__(
        self, seconds: float, clock: Clock = time.monotonic
    ) -> None:
        if not seconds >= 0:  # also rejects NaN, which never expires
            raise SolverError(
                f"deadline seconds must be non-negative, got {seconds}"
            )
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired, ``inf`` never)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self._clock() >= self._expires_at

    # -- pickling -------------------------------------------------------
    #
    # ``_expires_at`` is an anchor on *this process's* monotonic clock,
    # whose epoch is unspecified and need not match any other process's
    # (``time.monotonic`` only promises meaningful differences within
    # one process). A deadline shipped raw to a freshly spawned shard
    # worker would therefore measure a different clock and expire
    # arbitrarily early or late. Pickling ships the *remaining budget*
    # plus a wall-clock send stamp instead; unpickling re-anchors on the
    # receiver's monotonic clock, charging the (same-machine) transit
    # time against the budget. Injected test clocks do not survive the
    # trip — the re-anchored deadline always runs on ``time.monotonic``.

    def __getstate__(self) -> dict:
        return {"remaining": self.remaining(), "sent_wall": time.time()}

    def __setstate__(self, state: dict) -> None:
        transit = max(0.0, time.time() - state["sent_wall"])
        remaining = state["remaining"]
        self._clock = time.monotonic
        if remaining == float("inf"):
            self._expires_at = float("inf")
        else:
            self._expires_at = time.monotonic() + remaining - transit

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


def as_deadline(value) -> Optional[Deadline]:
    """Coerce ``None`` / seconds / :class:`Deadline` to a deadline.

    Public entry points accept ``deadline=`` as either a number of
    seconds (convenience) or a pre-built :class:`Deadline` (so one
    budget can span several calls); this normalises both.
    """
    if value is None or isinstance(value, Deadline):
        return value
    if isinstance(value, (int, float)):
        return Deadline(float(value))
    raise SolverError(
        f"deadline must be None, seconds, or a Deadline, got {type(value).__name__}"
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_attempts`` counts *total* tries (1 = no retry). Delay before
    retry ``i`` (1-based) is ``base_delay * multiplier**(i-1)``, capped
    at ``max_delay``, plus a jitter of up to ``jitter`` of itself drawn
    from a stream seeded by ``seed`` — identical schedules across runs
    for a fixed seed, and no draw from any shared RNG. ``retry_on``
    filters which exception types are retryable (:meth:`retryable`);
    everything else propagates immediately.

    The dataclass is frozen and picklable so it can ride along to
    worker processes unchanged.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    seed: Optional[int] = 0
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SolverError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise SolverError("retry delays must be non-negative")
        if self.multiplier < 1.0:
            raise SolverError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise SolverError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    def delays(self) -> Iterator[float]:
        """The deterministic backoff schedule (one delay per retry).

        Yields ``max_attempts - 1`` values; a fresh iterator always
        replays the identical schedule for a fixed ``seed``.
        """
        rng = make_rng(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(
                self.max_delay, self.base_delay * self.multiplier ** attempt
            )
            yield delay * (1.0 + self.jitter * rng.random())

    def delay_for(self, retry_number: int) -> float:
        """The delay before retry ``retry_number`` (1-based), by index.

        Random access into the same deterministic schedule
        :meth:`delays` yields — callers pacing retries across *events*
        rather than a loop (the cluster supervisor restarting a replica
        per crash incident) ask for the n-th delay directly instead of
        holding an iterator. Raises once the schedule is exhausted
        (``retry_number >= max_attempts``), mirroring the iterator
        running dry.
        """
        if not 1 <= retry_number <= self.max_attempts - 1:
            raise SolverError(
                f"retry_number must be within [1, {self.max_attempts - 1}],"
                f" got {retry_number}"
            )
        for index, delay in enumerate(self.delays(), start=1):
            if index == retry_number:
                return delay
        raise AssertionError("unreachable")  # pragma: no cover

    def retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` is covered by ``retry_on``."""
        return isinstance(exc, self.retry_on)
