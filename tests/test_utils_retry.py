"""Unit tests for the retry/deadline/fault-injection primitives."""

import pickle

import pytest

from repro.errors import DeadlineExceededError, ReproError, SolverError
from repro.utils.faults import Fault, FaultInjected, FaultInjector
from repro.utils.retry import Deadline, RetryPolicy, TimeBudget, as_deadline


class FakeClock:
    """Manually advanced monotonic clock for deterministic timing tests."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------


def test_deadline_expires_on_fake_clock():
    clock = FakeClock()
    deadline = Deadline(5.0, clock=clock)
    assert not deadline.expired()
    assert deadline.remaining() == pytest.approx(5.0)
    clock.advance(4.999)
    assert not deadline.expired()
    clock.advance(0.001)
    assert deadline.expired()
    assert deadline.remaining() <= 0.0


def test_deadline_check_raises_with_context():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    deadline.check("stage")  # not expired: no-op
    clock.advance(2.0)
    with pytest.raises(DeadlineExceededError, match="stage"):
        deadline.check("stage")


def test_deadline_never_does_not_expire():
    deadline = Deadline.never()
    assert not deadline.expired()
    assert deadline.remaining() == float("inf")
    deadline.check()


def test_deadline_rejects_negative_seconds():
    # NaN is not negative, but a NaN deadline would never expire.
    for seconds in (-1.0, float("nan")):
        with pytest.raises(SolverError):
            Deadline(seconds)


def test_as_deadline_coercions():
    assert as_deadline(None) is None
    deadline = Deadline(1.0)
    assert as_deadline(deadline) is deadline
    coerced = as_deadline(0.5)
    assert isinstance(coerced, Deadline)
    assert 0.0 < coerced.remaining() <= 0.5
    with pytest.raises(SolverError):
        as_deadline("soon")


# ----------------------------------------------------------------------
# TimeBudget
# ----------------------------------------------------------------------


def test_time_budget_only_ticks_inside_charge():
    clock = FakeClock()
    budget = TimeBudget(10.0, clock=clock)
    clock.advance(100.0)  # outside charge: free
    assert budget.remaining() == pytest.approx(10.0)
    with budget.charge():
        clock.advance(4.0)
    assert budget.remaining() == pytest.approx(6.0)
    assert not budget.exhausted()
    with budget.charge():
        clock.advance(7.0)
    assert budget.exhausted()


def test_time_budget_live_charge_and_deadline():
    clock = FakeClock()
    budget = TimeBudget(10.0, clock=clock)
    with budget.charge():
        clock.advance(3.0)
        # Mid-charge, the elapsed time counts live.
        assert budget.remaining() == pytest.approx(7.0)
        deadline = budget.deadline()
        assert deadline.remaining() == pytest.approx(7.0)
    with pytest.raises(SolverError):
        with budget.charge():
            with budget.charge():
                pass


def test_time_budget_rejects_negative():
    with pytest.raises(SolverError):
        TimeBudget(-0.1)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------


def test_retry_policy_delays_are_deterministic_and_bounded():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, max_delay=0.5, multiplier=2.0,
        jitter=0.5, seed=42,
    )
    first = list(policy.delays())
    second = list(policy.delays())
    assert first == second  # seeded jitter: identical schedules
    assert len(first) == 4
    for i, delay in enumerate(first):
        base = min(0.5, 0.1 * 2.0 ** i)
        assert base <= delay <= base * 1.5


def test_retry_policy_delay_for_matches_the_iterator_schedule():
    policy = RetryPolicy(
        max_attempts=5, base_delay=0.1, max_delay=0.5, multiplier=2.0,
        jitter=0.5, seed=42,
    )
    schedule = list(policy.delays())
    assert [policy.delay_for(i) for i in (1, 2, 3, 4)] == schedule
    # Random access replays, it does not advance: asking twice for the
    # same retry returns the same delay.
    assert policy.delay_for(2) == schedule[1]


def test_retry_policy_delay_for_rejects_out_of_schedule():
    policy = RetryPolicy(max_attempts=3)
    with pytest.raises(SolverError, match="retry_number"):
        policy.delay_for(0)
    with pytest.raises(SolverError, match="retry_number"):
        policy.delay_for(3)  # only 2 retries exist for 3 attempts


def test_retry_policy_call_retries_then_succeeds():
    attempts = []
    observed = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise ValueError("transient")
        return "ok"

    policy = RetryPolicy(
        max_attempts=3, base_delay=0.0, jitter=0.0, sleep=lambda s: None
    )
    result = policy.call(flaky, on_retry=lambda n, exc: observed.append(n))
    assert result == "ok"
    assert len(attempts) == 3
    assert observed == [1, 2]


def test_retry_policy_exhaustion_reraises_last_error():
    def always_fails():
        raise ValueError("permanent")

    policy = RetryPolicy(
        max_attempts=2, base_delay=0.0, jitter=0.0, sleep=lambda s: None
    )
    with pytest.raises(ValueError, match="permanent"):
        policy.call(always_fails)


def test_retry_policy_non_retryable_propagates_immediately():
    attempts = []

    def fails():
        attempts.append(1)
        raise KeyError("nope")

    policy = RetryPolicy(
        max_attempts=5, base_delay=0.0, jitter=0.0,
        retry_on=(ValueError,), sleep=lambda s: None,
    )
    with pytest.raises(KeyError):
        policy.call(fails)
    assert len(attempts) == 1


def test_retry_policy_respects_deadline():
    clock = FakeClock()
    deadline = Deadline(1.0, clock=clock)
    attempts = []

    def fails():
        attempts.append(1)
        clock.advance(2.0)  # the first try blows the budget
        raise ValueError("transient")

    policy = RetryPolicy(
        max_attempts=10, base_delay=0.0, jitter=0.0, sleep=lambda s: None
    )
    with pytest.raises(ValueError):
        policy.call(fails, deadline=deadline)
    assert len(attempts) == 1


def test_retry_policy_validation():
    with pytest.raises(SolverError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(SolverError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(SolverError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(SolverError):
        RetryPolicy(jitter=2.0)


def test_retry_policy_is_picklable():
    policy = RetryPolicy(max_attempts=4, seed=9)
    clone = pickle.loads(pickle.dumps(policy))
    assert list(clone.delays()) == list(policy.delays())


# ----------------------------------------------------------------------
# FaultInjector
# ----------------------------------------------------------------------


def test_fault_injector_raises_on_nth_call():
    injector = FaultInjector([Fault.raise_on("stage", call=2)])
    injector.fire("stage")
    injector.fire("stage")
    with pytest.raises(FaultInjected, match="injected fault"):
        injector.fire("stage")  # 0-based call #2
    assert injector.fired == {"stage": 1}
    assert injector.call_count("stage") == 3


def test_fault_injector_matches_explicit_coordinates():
    injector = FaultInjector(
        [Fault.raise_on("batch", message="batch 8 down", start=8)]
    )
    injector.fire("batch", start=0)
    injector.fire("batch", start=16)
    with pytest.raises(FaultInjected, match="batch 8 down"):
        injector.fire("batch", start=8)


def test_fault_injector_custom_exception_type():
    injector = FaultInjector(
        [Fault.raise_on("io", exception_type=OSError, message="disk gone")]
    )
    with pytest.raises(OSError, match="disk gone"):
        injector.fire("io")


def test_fault_injector_delay_fires_and_counts():
    injector = FaultInjector([Fault.delay_on("slow", seconds=0.0, call=0)])
    injector.fire("slow")
    assert injector.fired == {"slow": 1}
    injector.fire("slow")  # only call 0 delays
    assert injector.fired == {"slow": 1}


def test_fault_injector_pickle_resets_counters():
    injector = FaultInjector([Fault.raise_on("site", call=0)])
    with pytest.raises(FaultInjected):
        injector.fire("site")
    clone = pickle.loads(pickle.dumps(injector))
    assert clone.call_count("site") == 0
    assert clone.fired == {}
    with pytest.raises(FaultInjected):
        clone.fire("site")  # counts restart: call 0 fires again


def test_fault_injected_is_not_a_repro_error():
    # Injected faults simulate infrastructure failures, which the
    # library must treat as foreign exceptions, not library errors.
    assert not issubclass(FaultInjected, ReproError)


def test_fault_rejects_unknown_action():
    with pytest.raises(ReproError):
        Fault(site="x", action="explode")


def test_fault_injector_add_extends_plan():
    injector = FaultInjector()
    injector.fire("site")
    injector.add(Fault.raise_on("site", call=1))
    with pytest.raises(FaultInjected):
        injector.fire("site")
