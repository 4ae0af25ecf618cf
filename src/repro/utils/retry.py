"""Retry and deadline primitives for fault-tolerant execution.

Long-running entry points (parallel sampling, IMCAF, campaign drivers)
share three small building blocks:

- :class:`Deadline` — a monotonic-clock point in time. Hot loops poll
  ``expired()`` between iterations and degrade gracefully instead of
  hanging; ``check()`` raises
  :class:`~repro.errors.DeadlineExceededError` for callers that have
  nothing partial to return.
- :class:`TimeBudget` — a reusable pot of seconds that only ticks
  inside ``with budget.charge():`` sections, so a solver can be charged
  for its own work but not for time spent in other components.
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

from repro.errors import DeadlineExceededError, SolverError
from repro.rng import make_rng

Clock = Callable[[], float]


class Deadline:
    """A point on the monotonic clock after which work should stop.

    ``Deadline(seconds)`` expires ``seconds`` from construction;
    :meth:`never` builds a deadline that cannot expire (useful as a
    no-op default so call sites avoid ``if deadline is not None``
    branching). The clock is injectable for tests.
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

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline infinitely far in the future (never expires)."""
        deadline = cls.__new__(cls)
        deadline._clock = time.monotonic
        deadline._expires_at = float("inf")
        return deadline

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired, ``inf`` never)."""
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self._clock() >= self._expires_at

    def check(self, context: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the deadline passed."""
        if self.expired():
            raise DeadlineExceededError(
                f"{context} exceeded its deadline "
                f"(over by {-self.remaining():.3f}s)"
            )

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


class TimeBudget:
    """A pot of seconds consumed only inside ``charge()`` sections.

    Unlike :class:`Deadline` (which ticks continuously), a budget is
    charged explicitly::

        budget = TimeBudget(5.0)
        with budget.charge():
            run_solver_stage()          # elapsed seconds are deducted
        if budget.exhausted():
            return partial_result

    ``deadline()`` converts the *remaining* budget into a
    :class:`Deadline` to hand to a deadline-aware callee.
    """

    def __init__(
        self, seconds: float, clock: Clock = time.monotonic
    ) -> None:
        if not seconds >= 0:  # also rejects NaN, which never runs out
            raise SolverError(
                f"budget seconds must be non-negative, got {seconds}"
            )
        self._clock = clock
        self._remaining = float(seconds)
        self._charge_started: Optional[float] = None

    def remaining(self) -> float:
        """Unspent seconds (charges in progress are counted live)."""
        live = 0.0
        if self._charge_started is not None:
            live = self._clock() - self._charge_started
        return self._remaining - live

    def exhausted(self) -> bool:
        """Whether the budget has been fully consumed."""
        return self.remaining() <= 0.0

    def deadline(self) -> Deadline:
        """A :class:`Deadline` expiring when the remaining budget would."""
        return Deadline(max(0.0, self.remaining()), clock=self._clock)

    def charge(self) -> "TimeBudget":
        """Context manager deducting the elapsed time of its body."""
        return self

    def __enter__(self) -> "TimeBudget":
        if self._charge_started is not None:
            raise SolverError("TimeBudget.charge() sections cannot nest")
        self._charge_started = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        started = self._charge_started
        self._charge_started = None
        if started is not None:
            self._remaining -= self._clock() - started

    def __repr__(self) -> str:
        return f"TimeBudget(remaining={self.remaining():.3f}s)"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``max_attempts`` counts *total* tries (1 = no retry). Delay before
    retry ``i`` (1-based) is ``base_delay * multiplier**(i-1)``, capped
    at ``max_delay``, plus a jitter of up to ``jitter`` of itself drawn
    from a stream seeded by ``seed`` — identical schedules across runs
    for a fixed seed, and no draw from any shared RNG. ``retry_on``
    filters which exception types are retryable; everything else
    propagates immediately.

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

    def call(
        self,
        fn: Callable,
        *args,
        deadline: Optional[Deadline] = None,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        **kwargs,
    ):
        """Invoke ``fn`` with retries; return its first successful result.

        Non-retryable exceptions propagate immediately; retryable ones
        are re-raised once attempts (or the optional ``deadline``) run
        out. ``on_retry(attempt_number, exception)`` is called before
        each backoff sleep — the observability hook tests and loggers
        use.
        """
        delays = self.delays()
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - filtered below
                if not self.retryable(exc) or attempt == self.max_attempts:
                    raise
                if deadline is not None and deadline.expired():
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(next(delays))
        raise AssertionError("unreachable")  # pragma: no cover
