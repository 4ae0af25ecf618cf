"""Warm pool shards and the shard store.

A :class:`WarmShard` is the serving unit for one scenario: a
:class:`~repro.sampling.pool.RICSamplePool` fed by a
:class:`~repro.sampling.parallel.ParallelRICSampler` (which ships
contiguous batches of pre-drawn child seeds to its worker processes),
plus per-version state: the greedy runs UBG and GreedyC resume
(:class:`~repro.core.greedy.RunCache`) and the solve cache. Growth
follows an MPC-style discipline: bounded ``round_size`` merge rounds —
the master fans one round out to the workers, *synchronously* merges
the returned samples into the pool and bumps the shard version — so
per-round memory on every worker stays bounded by
``round_size / workers`` samples regardless of pool size,
and the merged pool is byte-identical to a serial build
(:mod:`repro.sampling.parallel`'s determinism guarantee, which holds
across worker crashes too).

A :class:`ShardStore` owns the shards: scenario registry, hit/miss
accounting, and LRU eviction of *cold* shards once the summed
:func:`~repro.obs.diagnostics.pool_memory_bytes` footprint exceeds a
configurable byte budget. Shards whose lock is held (a solve in
flight) are never evicted mid-request — the evictor skips them.
Eviction drops what the budget charges: the pool, its greedy runs and
its answers. The store keeps each scenario's spec and built instance
(graph and communities), which the budget does not charge, so a miss
after an eviction only regrows the pool. For the benchmark's facebook
scenarios the kept instance is about 0.5 MB, against 1.1-1.2 MB for a
600-sample pool.

Locking contract (see ``docs/serving.md``): every pool/engine/run/cache
access for a shard happens while holding ``shard.lock``. The pool and
the coverage engines are *not* thread-safe, and nothing in them
detects a race.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.communities.structure import CommunityStructure
from repro.core import SOLVERS, make_solver
from repro.core.greedy import RunCache
from repro.errors import ServingError, UnknownScenarioError
from repro.obs import metrics, trace
from repro.obs.diagnostics import (
    bernoulli_sample_variance,
    normal_halfwidth,
    pool_memory_bytes,
)
from repro.rng import derive_seed
from repro.sampling.parallel import ParallelRICSampler
from repro.sampling.pool import RICSamplePool
from repro.serving.scenarios import ScenarioSpec, build_instance
from repro.utils.faults import FaultInjector
from repro.utils.retry import RetryPolicy
from repro.utils.validation import check_seed_budget

#: Confidence level for the reported ĉ(S) interval (1 - delta).
CI_DELTA = 0.05

#: Adaptive top-up ceiling: a ``ci_width`` request may grow the pool to
#: at most this multiple of the scenario's warm ``pool_size``.
MAX_POOL_FACTOR = 4


class WarmShard:
    """One scenario's warm pool, sampler, and per-version runs and answers.

    All methods below :attr:`lock` in the docstring must be called with
    ``shard.lock`` held; the store and the HTTP app do so.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        graph,
        communities: CommunityStructure,
        *,
        workers: Optional[int] = None,
        round_size: int = 256,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if round_size < 1:
            raise ServingError(
                f"round_size must be >= 1, got {round_size}"
            )
        self.spec = spec
        self.graph = graph
        self.communities = communities
        self.round_size = round_size
        #: Serialises every pool/engine/run/cache access for this shard.
        self.lock = threading.RLock()
        #: Bumped once per completed merge round; the runs and answers
        #: of older versions are dropped with it.
        self.version = 0
        #: Monotonic stamp of the last request touch (LRU eviction key).
        self.last_used = time.monotonic()
        #: Footprint after the last merge round (pool_memory_bytes).
        self.bytes = 0
        self.sampler = ParallelRICSampler(
            graph,
            communities,
            seed=spec.seed,
            model=spec.model,
            workers=workers,
            retry=retry,
            fault_injector=fault_injector,
        )
        self.pool = RICSamplePool(self.sampler)
        # The greedy runs and the answers of the current version:
        # (k, solver, ci_width) -> response dict.
        self._runs = RunCache()
        self._solve_cache: Dict[Tuple, Dict] = {}

    # -- lifecycle ------------------------------------------------------

    def touch(self) -> None:
        """Stamp the shard as recently used (any thread)."""
        self.last_used = time.monotonic()

    def ensure_target(self, target: int) -> bool:
        """Grow the pool to ``target`` samples in bounded merge rounds.

        Requires :attr:`lock`. Each round generates at most
        ``round_size`` samples (fanned across the shard's workers),
        merges them synchronously (``add()`` files each sample's
        ``(node, mask)`` pairs in the pool's mask index) and bumps
        :attr:`version`. Growth drops the runs and answers of older
        versions. :attr:`bytes` is measured after the last round.
        Returns whether any growth happened.
        """
        if len(self.pool) >= target:
            return False
        with trace.span(
            "serving/topup", scenario=self.spec.name, target=target
        ) as span:
            rounds = 0
            while len(self.pool) < target:
                room = min(self.round_size, target - len(self.pool))
                self.pool.grow(room)
                self.version += 1
                rounds += 1
            self._runs = RunCache()
            self._solve_cache.clear()
            self.bytes = pool_memory_bytes(self.pool)
            span.set(rounds=rounds, num_samples=len(self.pool))
        return True

    def warm(self) -> None:
        """Grow to the spec's warm ``pool_size`` (requires :attr:`lock`)."""
        self.ensure_target(self.spec.pool_size)

    def close(self) -> None:
        """Shut the shard's worker pool down (idempotent)."""
        self.sampler.close()

    # -- solving --------------------------------------------------------

    def solve(
        self,
        k: int,
        solver_name: str = "UBG",
        ci_width: Optional[float] = None,
        width_provider: Optional[Callable[[], Optional[float]]] = None,
    ) -> Tuple[Dict, bool]:
        """Answer one ``(budget, solver, ci_width)`` query.

        Requires :attr:`lock`. Validates the query first (an unknown
        solver or a budget outside ``[1, n]`` raises
        :class:`~repro.errors.ServingError` with the pool untouched),
        then warms the shard. Returns ``(response, cache_hit)``. The
        response's deterministic fields — ``seeds``, ``objective``,
        ``num_samples`` — depend only on the scenario spec and the
        query, never on timing, shard crashes or request interleaving
        (for ``ci_width`` queries the pool size additionally reflects
        earlier top-ups, so ``num_samples`` is "at least enough", not a
        fixed number).

        With ``ci_width`` set, the pool is topped up (doubling, in
        bounded merge rounds) until the relative CI width of ĉ(S) is
        at most the target or the pool reaches ``pool_size *
        MAX_POOL_FACTOR``. ``width_provider`` makes the target dynamic:
        it is re-read between rounds (the request batcher's
        ``tightest_width``), so followers coalesced onto this solve can
        tighten one shared top-up instead of queuing their own; when it
        returns ``None`` the request's own ``ci_width`` applies.
        """
        if solver_name not in SOLVERS:
            raise ServingError(
                f"unknown solver {solver_name!r} "
                f"(known: {', '.join(SOLVERS)})"
            )
        check_seed_budget(k, self.graph.num_nodes, ServingError)
        self.warm()
        key = (k, solver_name, ci_width)
        cached = self._solve_cache.get(key)
        if cached is not None:
            return cached, True
        max_pool = self.spec.pool_size * MAX_POOL_FACTOR
        solver_seed = derive_seed(self.spec.seed, "solver")
        while True:
            selection = make_solver(
                solver_name, solver_seed, runs=self._runs
            ).solve(self.pool, k)
            seeds = sorted(selection.seeds)
            n = len(self.pool)
            influenced = self.pool.influenced_count(seeds)
            halfwidth = self.pool.total_benefit * normal_halfwidth(
                bernoulli_sample_variance(influenced, n), n, delta=CI_DELTA
            )
            objective = self.pool.total_benefit * influenced / n
            relative = halfwidth / objective if objective > 0 else None
            target = ci_width
            if width_provider is not None:
                dynamic = width_provider()
                if dynamic is not None:
                    target = (
                        dynamic if target is None else min(target, dynamic)
                    )
            if (
                target is None
                or n >= max_pool
                or relative is None
                or relative <= target
            ):
                break
            self.ensure_target(min(max_pool, max(n * 2, n + 1)))
        response = {
            "scenario": self.spec.name,
            "budget": k,
            "solver": solver_name,
            "seeds": seeds,
            "objective": objective,
            "num_samples": n,
            "pool_version": self.version,
            "ci_halfwidth": halfwidth,
            "ci_relative_width": relative,
            "pool_capped": n >= max_pool,
            "truncated": bool(selection.truncated),
        }
        self._solve_cache[key] = response
        return response, False

    def describe(self) -> Dict[str, object]:
        """JSON-ready snapshot for ``/status`` (requires :attr:`lock`)."""
        return {
            "scenario": self.spec.name,
            "num_samples": len(self.pool),
            "version": self.version,
            "bytes": self.bytes,
            "cached_solves": len(self._solve_cache),
            "idle_seconds": max(0.0, time.monotonic() - self.last_used),
        }


class ShardStore:
    """Registry of warm shards with accounting and LRU eviction.

    ``instances`` optionally pre-supplies ``(graph, communities)``
    pairs keyed by scenario name, bypassing
    :func:`~repro.serving.scenarios.build_instance` — how tests and the
    load benchmark serve synthetic instances. Every instance the store
    builds joins the same per-scenario dict and stays for the store's
    lifetime. ``memory_budget_bytes`` bounds the summed shard
    footprint (the pools, :attr:`WarmShard.bytes`); the kept instances
    are not charged to it. ``None`` disables eviction.
    """

    def __init__(
        self,
        scenarios: Dict[str, ScenarioSpec],
        instances: Optional[Dict[str, Tuple]] = None,
        *,
        workers: Optional[int] = None,
        round_size: int = 256,
        memory_budget_bytes: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        on_evict: Optional[Callable[[str], None]] = None,
    ) -> None:
        if not scenarios:
            raise ServingError("a shard store needs at least one scenario")
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ServingError(
                f"memory_budget_bytes must be >= 1, got "
                f"{memory_budget_bytes}"
            )
        self._specs = dict(scenarios)
        self._instances = dict(instances or {})
        self.workers = workers
        self.round_size = round_size
        self.memory_budget_bytes = memory_budget_bytes
        self.retry = retry
        self.fault_injector = fault_injector
        #: Called with the scenario name after each eviction, outside
        #: all store locks — the cluster wires the replica's lifecycle
        #: journal here (``shard.evicted`` events).
        self.on_evict = on_evict
        self._shards: Dict[str, WarmShard] = {}
        self._lock = threading.Lock()
        #: Serialises cold-shard builds (expensive) without blocking
        #: registry reads for already-warm shards.
        self._build_lock = threading.Lock()
        self._closed = False
        self.counters = {"hits": 0, "misses": 0, "evictions": 0}

    def scenario_names(self) -> List[str]:
        """The servable scenario names, sorted."""
        return sorted(self._specs)

    def get(self, name: str) -> WarmShard:
        """The warm shard for scenario ``name``, building it if cold.

        Counts a hit when the shard is already resident, a miss when it
        has to be (re)built. The scenario's instance is built on its
        first miss only and kept: an evicted shard rebuilt here gets a
        new :class:`WarmShard` over the same graph and communities and
        regenerates the byte-identical pool, since the spec pins every
        seed. A build that raises keeps nothing, so the next request
        builds again.
        """
        with self._lock:
            if self._closed:
                raise ServingError("shard store is closed")
            shard = self._shards.get(name)
            if shard is not None:
                self.counters["hits"] += 1
                shard.touch()
                return shard
            spec = self._specs.get(name)
        if spec is None:
            raise UnknownScenarioError(
                f"unknown scenario {name!r} "
                f"(known: {', '.join(self.scenario_names())})"
            )
        with self._build_lock:
            with self._lock:
                shard = self._shards.get(name)
                if shard is not None:
                    self.counters["hits"] += 1
                    shard.touch()
                    return shard
                self.counters["misses"] += 1
            instance = self._instances.get(name)
            if instance is None:
                instance = self._instances[name] = build_instance(spec)
            graph, communities = instance
            shard = WarmShard(
                spec,
                graph,
                communities,
                workers=self.workers,
                round_size=self.round_size,
                retry=self.retry,
                fault_injector=self.fault_injector,
            )
            with self._lock:
                if self._closed:
                    shard.close()
                    raise ServingError("shard store is closed")
                self._shards[name] = shard
            return shard

    def total_bytes(self) -> int:
        """Summed footprint of all resident shards."""
        with self._lock:
            return sum(shard.bytes for shard in self._shards.values())

    def evict_to_budget(self, protect: Optional[str] = None) -> List[str]:
        """Evict cold shards, oldest first, until under the byte budget.

        ``protect`` names a shard that must survive this pass (the one
        that just served a request). Shards whose lock is held are
        skipped — an in-flight solve is never cut down; they become
        eligible again on the next pass. Returns the evicted names.
        """
        evicted: List[str] = []
        skipped: set = set()
        budget = self.memory_budget_bytes
        while budget is not None:
            with self._lock:
                total = sum(s.bytes for s in self._shards.values())
                if total <= budget:
                    break
                candidates = sorted(
                    (shard.last_used, name)
                    for name, shard in self._shards.items()
                    if name != protect and name not in skipped
                )
                if not candidates:
                    break
                name = candidates[0][1]
                shard = self._shards[name]
                if not shard.lock.acquire(blocking=False):
                    skipped.add(name)  # busy: never evict mid-request
                    continue
                del self._shards[name]
                # Under the lock: handler threads evict concurrently.
                self.counters["evictions"] += 1
            try:
                shard.close()
            finally:
                shard.lock.release()
            evicted.append(name)
            if self.on_evict is not None:
                self.on_evict(name)
        with self._lock:
            active = len(self._shards)
        metrics.set_gauge("serving.shards.active", active)
        return evicted

    def status(self) -> Dict[str, object]:
        """JSON-ready store snapshot for ``/status``."""
        with self._lock:
            shards = dict(self._shards)
            counters = dict(self.counters)
        details = []
        for name in sorted(shards):
            shard = shards[name]
            with shard.lock:
                details.append(shard.describe())
        return {
            "scenarios": self.scenario_names(),
            "shards": details,
            "counters": counters,
            "total_bytes": sum(d["bytes"] for d in details),
            "memory_budget_bytes": self.memory_budget_bytes,
        }

    def close(self) -> None:
        """Shut every shard down and refuse further requests."""
        with self._lock:
            self._closed = True
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.close()
