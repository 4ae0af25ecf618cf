"""Worker processes for a :class:`~repro.sampling.ric.RICSampler` with
``workers > 1``, with self-healing dispatch.

RIC generation dominates the wall-clock of every solver in this
package. A sampler with ``workers > 1`` draws the child-stream seed of
every sample of a large ``sample_many`` call from its master RNG, in
sample order, and hands them to its :class:`WorkerPool`. The pool
splits them into contiguous batches; each worker holds a copy of the
(graph, communities) instance, materialises each sample purely from its
child seed, and returns the :class:`RICSample` objects as drawn (int
tuples only). Because a sample is a pure function of ``(instance, child
seed)``, the samples equal the in-process ones for every worker count
and batch size.

**Fault tolerance.** A crashed pool (``BrokenProcessPool``, raised by a
result or by ``submit`` itself) or a worker-raised exception marks only
the *failed* batches for re-dispatch; completed batches are kept, the
executor is rebuilt when broken, and the retry schedule follows a
:class:`~repro.utils.retry.RetryPolicy` (bounded attempts, seeded
backoff jitter). Re-dispatched batches carry the *same* child seeds, so
a run that survived a crash is byte-identical to a crash-free one. When
the same work keeps failing for every allowed attempt the pool raises
:class:`~repro.errors.WorkerCrashError` with the attempt count. A
:class:`~repro.utils.faults.FaultInjector` ships into the workers and
can raise, delay or hard-kill at planned batch coordinates.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.communities.structure import CommunityStructure
from repro.errors import SamplingError, WorkerCrashError
from repro.graph.digraph import DiGraph
from repro.obs import trace
from repro.obs.session import enabled as _obs_enabled
from repro.utils.faults import FaultInjector
from repro.utils.retry import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle at runtime
    from repro.sampling.ric import RICSample, RICSampler

#: One unit of worker work: ``(start_index, child_seeds, attempt)``.
BatchTask = Tuple[int, Sequence[int], int]

#: Default retry schedule for worker recovery: three total attempts
#: with fast, deterministically-jittered backoff.
DEFAULT_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=1.0)


# ----------------------------------------------------------------------
# Worker-side state. Each worker process builds one template sampler at
# pool start-up (initializer) and reuses it for every batch; the
# template's own RNG stream is never used — every sample is generated
# from an explicit child seed shipped with the batch. The optional
# fault injector is test/benchmark instrumentation: it fires at the
# "generate_batch" site (per batch) and the "sample" site (per sample),
# both with ``start``/``attempt`` coordinates, so crashes can be
# planned deterministically.
# ----------------------------------------------------------------------

_WORKER_SAMPLER: Optional[RICSampler] = None
_WORKER_INJECTOR: Optional[FaultInjector] = None
_WORKER_CAPTURE: bool = False


def _init_worker(
    graph: DiGraph,
    communities: CommunityStructure,
    model: str,
    injector: Optional[FaultInjector] = None,
    capture_spans: bool = False,
) -> None:
    """Process-pool initializer: build this worker's template sampler.

    ``capture_spans`` is the master's instrumentation state at pool
    creation: when true, each batch records a ``ric/worker_batch`` span
    locally and ships it back with the batch result for the master to
    :meth:`~repro.obs.tracer.Tracer.ingest`.
    """
    from repro.sampling.ric import RICSampler

    global _WORKER_SAMPLER, _WORKER_INJECTOR, _WORKER_CAPTURE
    _WORKER_SAMPLER = RICSampler(graph, communities, seed=0, model=model)
    _WORKER_INJECTOR = injector
    _WORKER_CAPTURE = capture_spans


def _materialise_batch(
    sampler: RICSampler,
    injector: Optional[FaultInjector],
    seeds: Sequence[int],
    start: int,
    attempt: int,
) -> List[RICSample]:
    """Materialise one batch's samples from their child seeds."""
    out: List[RICSample] = []
    for index, seed in enumerate(seeds):
        if injector is not None:
            injector.fire("sample", start=start, attempt=attempt, index=index)
        out.append(sampler.sample_from_seed(seed))
    return out


def _generate_batch(
    task: BatchTask,
) -> Tuple[int, float, List[RICSample], List[Dict[str, Any]]]:
    """Generate one batch of samples from child seeds.

    Returns ``(start_index, worker_seconds, samples, spans)`` so
    the master can reassemble results in order, compute utilisation, and
    merge any worker-side spans into its trace (``spans`` is empty when
    the pool was created without instrumentation).
    """
    start, seeds, attempt = task
    sampler = _WORKER_SAMPLER
    injector = _WORKER_INJECTOR
    if sampler is None:  # pragma: no cover - initializer always ran
        raise SamplingError("parallel sampling worker was not initialised")
    if injector is not None:
        injector.fire("generate_batch", start=start, attempt=attempt)
    spans: List[Dict[str, Any]] = []
    began = time.perf_counter()
    if _WORKER_CAPTURE:
        with trace.capture() as buffer:
            with trace.span(
                "ric/worker_batch",
                start=start, samples=len(seeds), attempt=attempt,
            ):
                out = _materialise_batch(sampler, injector, seeds, start, attempt)
            spans = list(buffer)
    else:
        out = _materialise_batch(sampler, injector, seeds, start, attempt)
    return start, time.perf_counter() - began, out, spans


class WorkerPool:
    """The lazily started worker processes of a ``RICSampler``.

    ``retry`` bounds crash recovery (default :data:`DEFAULT_RETRY`);
    ``fault_injector`` ships into the workers. The executor is shut
    down by :meth:`close`, and by ``__del__`` as a safety net.
    """

    def __init__(
        self,
        graph: DiGraph,
        communities: CommunityStructure,
        model: str,
        workers: int,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        self._initargs = (graph, communities, model, fault_injector)
        self.workers = workers
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._executor: Optional[ProcessPoolExecutor] = None

    def run(
        self, seeds: Sequence[int], batch: int
    ) -> Tuple[List[RICSample], float, Dict[str, Any]]:
        """Materialise ``seeds`` in batches of ``batch``, in seed order.

        Returns ``(samples, busy, health)``: the summed worker seconds,
        and the counters ``retries`` (batch re-dispatches),
        ``worker_restarts``, ``failed_batches`` (start indices) and
        ``attempts`` (dispatch rounds). Raises
        :class:`~repro.errors.WorkerCrashError` when batches still fail
        after the last attempt ``retry`` allows.
        """
        pending: Dict[int, Sequence[int]] = {
            start: seeds[start:start + batch]
            for start in range(0, len(seeds), batch)
        }
        policy = self.retry
        delays = policy.delays()
        completed: Dict[int, Tuple[float, List[RICSample]]] = {}
        failed_batches = set()
        retries = 0
        restarts = 0
        attempt = 0
        last_error: Optional[BaseException] = None
        while pending:
            if attempt > 0:
                retries += len(pending)
                delay = next(delays, 0.0)
                if delay > 0:
                    policy.sleep(delay)
            executor = self._ensure_executor()
            futures = {}
            broken = False
            try:
                for start in sorted(pending):
                    task = (start, pending[start], attempt)
                    futures[executor.submit(_generate_batch, task)] = start
            except BrokenProcessPool as exc:
                # A worker died mid-submission: the unsubmitted batches
                # stay pending, and the pool is rebuilt.
                last_error = exc
                broken = True
            except RuntimeError as exc:
                # close() ran concurrently and shut the executor down.
                raise SamplingError(
                    "parallel sampler was closed while sampling"
                ) from exc
            for future, start in futures.items():
                if broken:
                    # The pool is gone: harvest batches that did
                    # finish, fail the rest fast.
                    if future.done() and not future.cancelled():
                        try:
                            s, secs, out, spans = future.result()
                            completed[s] = (secs, out)
                            pending.pop(s, None)
                            trace.ingest(spans)
                        except BaseException as exc:  # noqa: BLE001
                            last_error = exc
                            failed_batches.add(start)
                    else:
                        future.cancel()
                        failed_batches.add(start)
                    continue
                try:
                    s, secs, out, spans = future.result()
                    completed[s] = (secs, out)
                    pending.pop(s, None)
                    trace.ingest(spans)
                except (BrokenProcessPool, OSError) as exc:
                    # Crashed pool or dead pipe: the executor can no
                    # longer be trusted — rebuild it.
                    last_error = exc
                    failed_batches.add(start)
                    broken = True
                except CancelledError as exc:
                    raise SamplingError(
                        "parallel sampler was closed while sampling"
                    ) from exc
                except BaseException as exc:  # noqa: BLE001 - filtered
                    if not policy.retryable(exc):
                        raise
                    # Worker-raised exception: the pool itself is fine,
                    # only this batch needs another attempt.
                    last_error = exc
                    failed_batches.add(start)
            if broken:
                self._restart_executor()
                restarts += 1
            attempt += 1
            if pending and attempt >= policy.max_attempts:
                raise WorkerCrashError(
                    f"parallel sampling gave up on batches "
                    f"{sorted(pending)} after {attempt} attempts "
                    f"(last error: {last_error!r})",
                    attempts=attempt,
                )
        samples: List[RICSample] = []
        busy = 0.0
        for start in sorted(completed):
            worker_seconds, batch_samples = completed[start]
            busy += worker_seconds
            samples.extend(batch_samples)
        health = {
            "retries": retries,
            "worker_restarts": restarts,
            "failed_batches": sorted(failed_batches),
            "attempts": attempt,
        }
        return samples, busy, health

    # -- lifecycle -----------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=self._initargs + (_obs_enabled(),),
            )
        return self._executor

    def _restart_executor(self) -> None:
        """Tear down a broken pool so the next round starts fresh."""
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    def close(self) -> None:
        """Shut the worker processes down (idempotent).

        Queued batches are cancelled (``cancel_futures=True``) so a
        mid-flight dispatch — e.g. on another thread during interpreter
        shutdown — fails fast with ``SamplingError`` instead of
        blocking exit behind unstarted work. The next :meth:`run`
        starts a fresh executor.
        """
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
