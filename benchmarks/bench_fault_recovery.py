"""Microbenchmark — cost of self-healing in the parallel sampler.

A worker crash mid-run forces the engine to rebuild its process pool
and re-dispatch the failed batches with the same pre-drawn child seeds.
This bench quantifies that recovery: wall-clock of a crash-free
parallel run vs. a run that heals one injected worker kill, with the
byte-identical-output contract asserted on both. The overhead is the
price of one executor rebuild plus the re-dispatched batches — it
should stay within a small multiple of the crash-free time, not
degenerate into a full restart.
"""

import time

from conftest import SCALE, emit

from repro.communities.structure import Community, CommunityStructure
from repro.experiments.reporting import ascii_table
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.sampling.ric import RICSampler
from repro.utils.faults import Fault, FaultInjector
from repro.utils.retry import RetryPolicy

SAMPLES = max(400, int(1000 * SCALE))
BATCH = 32
WORKERS = 2
#: No backoff sleeping: the bench isolates rebuild/re-dispatch cost.
RETRY = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


def _instance():
    graph, blocks = planted_partition_graph(
        [25] * 12, p_in=0.3, p_out=0.01, directed=True, seed=17
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


def _timed_run(graph, communities, injector):
    with RICSampler(
        graph,
        communities,
        seed=11,
        workers=WORKERS,
        batch_size=BATCH,
        retry=RETRY,
        fault_injector=injector,
    ) as sampler:
        sampler.sample_many(16)  # warm the pool outside the clock
        start = time.perf_counter()
        samples = sampler.sample_many(SAMPLES)
        elapsed = time.perf_counter() - start
        profile = sampler.last_profile()
    return samples, elapsed, profile


def test_fault_recovery_overhead(benchmark):
    graph, communities = _instance()
    serial = RICSampler(graph, communities, seed=11)
    serial.sample_many(16)
    expected = serial.sample_many(SAMPLES)

    def run():
        clean, clean_elapsed, clean_profile = _timed_run(
            graph, communities, injector=None
        )
        crash_injector = FaultInjector(
            # Kill the worker on one mid-run batch, first attempt only.
            [Fault.kill_on("generate_batch", start=BATCH * 4, attempt=0)]
        )
        healed, healed_elapsed, healed_profile = _timed_run(
            graph, communities, crash_injector
        )
        return (
            clean,
            clean_elapsed,
            clean_profile,
            healed,
            healed_elapsed,
            healed_profile,
        )

    (
        clean,
        clean_elapsed,
        clean_profile,
        healed,
        healed_elapsed,
        healed_profile,
    ) = benchmark.pedantic(run, rounds=1)

    assert clean == expected
    assert healed == expected  # crash healed with identical output
    assert healed_profile["worker_restarts"] >= 1

    rows = [
        (
            "crash-free",
            f"{SAMPLES / clean_elapsed:.1f}",
            clean_profile["retries"],
            clean_profile["worker_restarts"],
            "1.00x",
        ),
        (
            "1 worker kill",
            f"{SAMPLES / healed_elapsed:.1f}",
            healed_profile["retries"],
            healed_profile["worker_restarts"],
            f"{healed_elapsed / clean_elapsed:.2f}x",
        ),
    ]
    emit(
        f"fault recovery overhead ({SAMPLES} samples, {WORKERS} workers, "
        f"batch={BATCH})",
        ascii_table(
            ["scenario", "samples/s", "retries", "pool rebuilds", "time vs clean"],
            rows,
        ),
    )
