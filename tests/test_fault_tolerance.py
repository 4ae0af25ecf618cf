"""Fault-tolerance integration tests: crash recovery, retry exhaustion,
deadline degradation, and close-while-sampling semantics.

These tests use the deterministic :class:`~repro.utils.faults.FaultInjector`
to kill/fail worker processes at planned coordinates, then assert the
self-healing parallel sampler recovers *byte-identically* to a serial
run — the library's central robustness contract: recovery never changes
results.
"""

import dataclasses

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.bt import BT, MB
from repro.core.framework import solve_imc
from repro.core.greedy import greedy_maxr, lazy_greedy_nu
from repro.core.maf import MAF
from repro.core.ubg import UBG, GreedyC
from repro.errors import SamplingError, WorkerCrashError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.parallel import ParallelRICSampler
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler
from repro.utils.faults import Fault, FaultInjected, FaultInjector
from repro.utils.retry import Deadline, RetryPolicy

#: Fast retry schedule so healing tests don't sleep.
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def instance():
    graph, blocks = planted_partition_graph(
        [6] * 5, p_in=0.5, p_out=0.05, directed=True, seed=5
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


# ------------------------------------------------- worker crash healing


@pytest.mark.fault
def test_worker_kill_recovers_byte_identical(instance):
    graph, communities = instance
    count = 48
    expected = RICSampler(graph, communities, seed=11).sample_many(count)
    injector = FaultInjector(
        # Hard-kill the worker handling batch start=8 on the first
        # attempt only; the re-dispatched batch (attempt 1) survives.
        [Fault.kill_on("sample", start=8, attempt=0, index=2)]
    )
    with ParallelRICSampler(
        graph,
        communities,
        seed=11,
        workers=2,
        batch_size=8,
        retry=FAST_RETRY,
        fault_injector=injector,
    ) as sampler:
        got = sampler.sample_many(count)
        profile = sampler.last_profile()
    assert got == expected
    assert profile["worker_restarts"] >= 1
    assert profile["retries"] >= 1
    assert 8 in profile["failed_batches"]
    assert profile["attempts"] >= 2


@pytest.mark.fault
def test_worker_exception_heals_without_pool_restart(instance):
    graph, communities = instance
    count = 48
    expected = RICSampler(graph, communities, seed=11).sample_many(count)
    injector = FaultInjector(
        # A plain exception (not a crash): the pool itself stays healthy,
        # only the failed batch is re-dispatched.
        [Fault.raise_on("generate_batch", start=16, attempt=0)]
    )
    with ParallelRICSampler(
        graph,
        communities,
        seed=11,
        workers=2,
        batch_size=8,
        retry=FAST_RETRY,
        fault_injector=injector,
    ) as sampler:
        got = sampler.sample_many(count)
        profile = sampler.last_profile()
    assert got == expected
    assert profile["worker_restarts"] == 0
    assert profile["failed_batches"] == [16]
    assert profile["retries"] == 1


@pytest.mark.fault
def test_retry_exhaustion_raises_worker_crash_error(instance):
    graph, communities = instance
    injector = FaultInjector(
        # No attempt constraint: batch 0 fails on *every* attempt.
        [Fault.raise_on("generate_batch", start=0)]
    )
    with ParallelRICSampler(
        graph,
        communities,
        seed=11,
        workers=2,
        batch_size=8,
        retry=FAST_RETRY,
        fault_injector=injector,
    ) as sampler:
        with pytest.raises(WorkerCrashError) as excinfo:
            sampler.sample_many(48)
    assert excinfo.value.attempts == FAST_RETRY.max_attempts
    assert isinstance(excinfo.value, SamplingError)


@pytest.mark.fault
def test_crashed_pool_then_clean_reuse(instance):
    graph, communities = instance
    expected = RICSampler(graph, communities, seed=11).sample_many(96)
    injector = FaultInjector(
        [Fault.kill_on("generate_batch", start=8, attempt=0)]
    )
    with ParallelRICSampler(
        graph,
        communities,
        seed=11,
        workers=2,
        batch_size=8,
        retry=FAST_RETRY,
        fault_injector=injector,
    ) as sampler:
        first = sampler.sample_many(48)
        # The rebuilt pool keeps serving subsequent calls normally.
        second = sampler.sample_many(48)
    assert first + second == expected


# ------------------------------------------------- close() semantics


def test_close_is_idempotent(instance):
    graph, communities = instance
    sampler = ParallelRICSampler(graph, communities, seed=3, workers=2)
    sampler.sample_many(24)
    sampler.close()
    sampler.close()  # double-close must be a no-op


def test_sampling_after_close_uses_fresh_pool(instance):
    graph, communities = instance
    expected = RICSampler(graph, communities, seed=3).sample_many(48)
    sampler = ParallelRICSampler(
        graph, communities, seed=3, workers=2, batch_size=8
    )
    first = sampler.sample_many(24)
    sampler.close()
    # After close(), the next dispatch lazily builds a new executor and
    # continues the master seed stream exactly where it left off.
    second = sampler.sample_many(24)
    sampler.close()
    assert first + second == expected


def test_close_while_sampling_raises_sampling_error(instance):
    graph, communities = instance
    injector = FaultInjector(
        # The first batch stalls long enough for close() to win the race.
        [Fault.delay_on("generate_batch", seconds=0.4)]
    )
    sampler = ParallelRICSampler(
        graph,
        communities,
        seed=3,
        workers=2,
        batch_size=8,
        fault_injector=injector,
    )
    import threading

    threading.Timer(0.1, sampler.close).start()
    with pytest.raises(SamplingError, match="closed while sampling"):
        sampler.sample_many(200)


# ------------------------------------------------- deadline degradation


@pytest.fixture(scope="module")
def pool(instance):
    graph, communities = instance
    p = RICSamplePool(RICSampler(graph, communities, seed=99))
    p.grow(300)
    return p


def test_expired_deadline_still_selects_one_seed(pool):
    # "Best-so-far, never empty-handed": the first greedy round always
    # completes, so even an already-expired deadline yields a seed.
    expired = Deadline(0.0)
    assert len(greedy_maxr(pool, 5, deadline=expired)) == 1
    assert len(lazy_greedy_nu(pool, 5, deadline=expired)) == 1


@pytest.mark.parametrize(
    "solver_factory",
    [
        lambda d: UBG(deadline=d),
        lambda d: MAF(seed=1, deadline=d),
        lambda d: MB(seed=1, deadline=d),
        lambda d: GreedyC(deadline=d),
        lambda d: BT(deadline=d),
        # One outer candidate: only the CELF cover under it is cut.
        lambda d: BT(candidate_limit=1, deadline=d),
    ],
)
def test_solvers_truncate_on_expired_deadline(pool, solver_factory):
    selection = solver_factory(Deadline(0.0)).solve(pool, 5)
    assert selection.truncated
    assert selection.seeds  # degraded, not empty-handed
    assert len(selection.seeds) <= 5


@pytest.mark.parametrize(
    "solver_factory, evaluations",
    [
        (lambda d: UBG(deadline=d), 2),
        (lambda d: GreedyC(deadline=d), 1),
        # MAF scores S1 and S2, BT its seeds, MB both arms.
        pytest.param(lambda d: MAF(seed=1, deadline=d), 2, id="MAF"),
        pytest.param(lambda d: BT(deadline=d), 1, id="BT"),
        pytest.param(lambda d: MB(seed=1, deadline=d), 3, id="MB"),
    ],
)
def test_deadline_passing_after_the_arms_finish_is_not_truncation(
    pool, monkeypatch, solver_factory, evaluations
):
    # The clock passes the deadline at the last estimate_benefit call,
    # which scores the last arm after its greedy or loop has finished.
    now = [0.0]
    deadline = Deadline(1.0, clock=lambda: now[0])
    original = pool.estimate_benefit
    calls = []

    def evaluate(seeds):
        calls.append(seeds)
        if len(calls) == evaluations:
            now[0] = 2.0
        return original(seeds)

    monkeypatch.setattr(pool, "estimate_benefit", evaluate)
    selection = solver_factory(deadline).solve(pool, 5)
    assert deadline.expired()
    assert len(calls) == evaluations
    assert len(selection.seeds) == 5
    assert not selection.truncated


@pytest.mark.parametrize("arm", ["_maf", "_bt"])
def test_mb_flags_an_arm_the_deadline_cut(pool, monkeypatch, arm):
    mb = MB(seed=1, deadline=Deadline.never())
    solver = getattr(mb, arm)
    cut = dataclasses.replace(solver.solve(pool, 5), truncated=True)
    monkeypatch.setattr(solver, "solve", lambda pool, k: cut)
    assert mb.solve(pool, 5).truncated


def test_solvers_without_deadline_are_unchanged(pool):
    bounded = UBG(deadline=Deadline.never()).solve(pool, 5)
    unbounded = UBG().solve(pool, 5)
    assert bounded.seeds == unbounded.seeds
    assert not unbounded.truncated and not bounded.truncated


def test_solve_imc_deadline_returns_truncated_best_so_far(instance):
    graph, communities = instance
    result = solve_imc(
        graph, communities, k=4, solver=UBG(), seed=7, deadline=0.0
    )
    assert result.stopped_by == "deadline"
    assert result.selection.truncated
    assert result.selection.seeds
    unbounded = solve_imc(graph, communities, k=4, solver=UBG(), seed=7)
    assert unbounded.stopped_by != "deadline"
    assert not unbounded.selection.truncated


def test_solve_imc_restores_solver_deadline(instance):
    graph, communities = instance
    solver = UBG()
    solve_imc(graph, communities, k=4, solver=solver, seed=7, deadline=0.0)
    assert solver.deadline is None  # lent for the call, then returned
