"""Greedy selection primitives over a RIC sample pool.

Two variants back the MAXR solvers:

- :func:`greedy_maxr` — greedy on the *non-submodular* ``ĉ_R``. Each
  round picks the candidate with the largest ``(ĉ gain, ν gain, -id)``:
  ties on the ĉ marginal — which are pervasive early on, when no single
  node pushes any sample past its threshold — are broken by the ν
  (fractional-progress) marginal, then by node id, so the greedy stays
  directed instead of stalling on an all-zeros round. CELF's cached
  gains are unsound without submodularity, so the round cannot reuse
  old marginals; it prunes with a bound instead. The engine's
  ``gain_bound(v)`` counts the entries through which ``v`` could still
  complete a sample, which only shrinks as seeds are added, so it
  bounds ``v``'s ĉ gain at every later state. Candidates are evaluated
  in descending bound order and the round stops once the next bound is
  below the best ĉ gain found: every skipped candidate loses on ĉ. A
  candidate whose bound equals that gain is still evaluated, so the
  picks equal the eager loop's, tie-breaks included.

- :func:`lazy_greedy_nu` — CELF lazy greedy on the *submodular* ``ν_R``
  (Lemma 3 proves submodularity), with the classic cached-upper-bound
  invariant.

No step of either loop reads the budget ``k``; it only says when to
stop. So the first ``k`` picks are the same at every larger budget,
and each loop is a resumable run object
(:class:`GreedyMaxrRun`, :class:`LazyNuRun`, and :class:`EagerNuRun`
for the eager reference) that holds its coverage engine, its heap and
its picks so far. ``take(k)`` returns the first ``k`` picks and steps
only past the picks already made. The functions are ``take(k)`` on a
fresh run. A :class:`RunCache` keeps runs across solves on one pool,
so a pool that answers many budgets pays for one run to the largest.

All accept an optional ``deadline``
(:class:`~repro.utils.retry.Deadline`): it is polled between selection
steps and the run stops early with the picks made so far. The first
pick is always made so a deadline-bounded caller is guaranteed at
least one seed whenever one exists — "best-so-far, never
empty-handed" is the contract the deadline-aware solvers build on. A
run stopped by a deadline keeps a state the undisturbed loop passes
through, so a later ``take`` resumes it exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.flat_engine import FlatCoverage
from repro.core.objective import CoverageState
from repro.errors import SolverError
from repro.sampling.pool import RICSamplePool
from repro.utils.heap import LazyMaxHeap
from repro.utils.retry import Deadline


def _out_of_time(deadline: Optional[Deadline], chosen: Sequence[int]) -> bool:
    """Deadline poll between greedy steps.

    Only truncates once at least one seed was selected, so bounded runs
    degrade to a smaller seed set instead of an empty one.
    """
    return deadline is not None and bool(chosen) and deadline.expired()


def _candidates(pool: RICSamplePool, restrict: Optional[Iterable[int]]) -> List[int]:
    if restrict is not None:
        return sorted(set(restrict))
    return sorted(pool.touching_nodes())


def _make_state(pool: RICSamplePool, engine: str):
    """Instantiate the coverage engine: "flat" (the pool's mask index,
    fast) or "reference" (member sets, the test oracle) — same
    results, different speed."""
    if engine == "flat":
        return FlatCoverage(pool)
    if engine == "reference":
        return CoverageState(pool)
    raise SolverError(f"engine must be 'flat' or 'reference', got {engine!r}")


class GreedyRun:
    """A resumable greedy run: its coverage engine, heap and picks so far.

    Subclasses hold the candidates still open in ``_left`` (built by
    ``_start``) and step in ``_extend``. Like its engine, a run belongs
    to the pool size it was built at; once the pool has grown, build a
    new one.
    """

    def __init__(
        self,
        pool: RICSamplePool,
        candidates: Optional[Iterable[int]] = None,
        engine: str = "flat",
    ) -> None:
        self.state = _make_state(pool, engine)
        #: The seeds picked so far, in pick order.
        self.picks: List[int] = []
        self._left = self._start(_candidates(pool, candidates))

    def _start(self, candidates: List[int]):
        raise NotImplementedError

    def _extend(self, k: int, deadline: Optional[Deadline]) -> None:
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """Whether the run can make no further pick."""
        return not self._left

    def take(self, k: int, deadline: Optional[Deadline] = None) -> List[int]:
        """The run's first ``k`` picks.

        Steps only past the picks already made. Fewer than ``k`` when
        the run is :attr:`exhausted` first, or when ``deadline``
        expires first (see :meth:`cut_short`).
        """
        if k < 0:
            raise SolverError(f"k must be non-negative, got {k}")
        if len(self.picks) < k:
            self._extend(k, deadline)
        return self.picks[:k]

    def cut_short(self, k: int) -> bool:
        """Whether a deadline left the first ``k`` picks unfinished.

        True when fewer than ``k`` picks are made and the run could
        make more.
        """
        return len(self.picks) < k and not self.exhausted


class GreedyMaxrRun(GreedyRun):
    """The bound-pruned ĉ greedy of :func:`greedy_maxr`, resumable."""

    def _start(self, candidates: List[int]):
        # One (-bound, node) entry per unchosen candidate. A round
        # re-pushes only the nodes it evaluated; the others keep older,
        # larger bounds, which still hold.
        heap = [(-self.state.gain_bound(node), node) for node in candidates]
        heapq.heapify(heap)
        return heap

    def _extend(self, k: int, deadline: Optional[Deadline]) -> None:
        state = self.state
        heap = self._left
        chosen = self.picks
        while len(chosen) < k and heap:
            if _out_of_time(deadline, chosen):
                break
            best_key = None
            evaluated: List[int] = []
            while heap and (best_key is None or -heap[0][0] >= best_key[0]):
                node = heapq.heappop(heap)[1]
                evaluated.append(node)
                gain_c, gain_nu = state.gain_pair(node)
                key = (gain_c, gain_nu, -node)
                if best_key is None or key > best_key:
                    best_key = key
            best_node = -best_key[2]
            state.add_seed(best_node)
            chosen.append(best_node)
            for node in evaluated:
                if node != best_node:
                    heapq.heappush(heap, (-state.gain_bound(node), node))


class LazyNuRun(GreedyRun):
    """The CELF ν greedy of :func:`lazy_greedy_nu`, resumable."""

    def _start(self, candidates: List[int]):
        heap: LazyMaxHeap[int] = LazyMaxHeap()
        for node in candidates:
            gain = self.state.gain_fractional(node)
            if gain > 0.0:
                # Negative id as secondary key is encoded by pushing in
                # id order: LazyMaxHeap is stable for equal priorities
                # because the entry counter favours earlier pushes on
                # ties.
                heap.push(node, gain)
        return heap

    def _extend(self, k: int, deadline: Optional[Deadline]) -> None:
        state = self.state
        heap = self._left
        chosen = self.picks
        while heap and len(chosen) < k:
            if _out_of_time(deadline, chosen):
                break
            node, cached_gain = heap.pop_max()
            fresh_gain = state.gain_fractional(node)
            if fresh_gain <= 0.0:
                continue
            if heap:
                _, next_best = heap.peek_max()
                if fresh_gain < next_best - 1e-12:
                    heap.push(node, fresh_gain)
                    continue
            state.add_seed(node)
            chosen.append(node)


class EagerNuRun(GreedyRun):
    """The eager ν greedy of :func:`greedy_eager_nu`, resumable."""

    def _start(self, candidates: List[int]):
        return set(candidates)

    def _extend(self, k: int, deadline: Optional[Deadline]) -> None:
        state = self.state
        remaining = self._left
        chosen = self.picks
        while len(chosen) < k and remaining:
            if _out_of_time(deadline, chosen):
                break
            best_node = None
            best_gain = 0.0
            for node in sorted(remaining):
                gain = state.gain_fractional(node)
                if gain > best_gain + 1e-15:
                    best_gain = gain
                    best_node = node
            if best_node is None:
                # ν is submodular: no gain can turn positive again.
                remaining.clear()
                break
            state.add_seed(best_node)
            remaining.discard(best_node)
            chosen.append(best_node)


class RunCache:
    """Greedy runs kept across solves on one pool.

    Keyed by arm (the run class), engine and candidate set. The cache
    is bound to one pool object and its size: asked about another pool,
    or about its pool once it has grown, it drops every run and binds
    anew. Growth changes every marginal under an old heap, so a run is
    rebuilt, never resynced.

    Not thread-safe; callers serialize access (``shard.lock`` in
    serving).
    """

    def __init__(self) -> None:
        self._pool: Optional[RICSamplePool] = None
        self._size = 0
        self._runs: Dict[Tuple, GreedyRun] = {}

    def run(
        self,
        arm: Type[GreedyRun],
        pool: RICSamplePool,
        candidates: Optional[Iterable[int]] = None,
        engine: str = "flat",
    ) -> GreedyRun:
        """``arm``'s run on ``pool``, built on first request."""
        if pool is not self._pool or len(pool) != self._size:
            self._runs.clear()
            self._pool = pool
            self._size = len(pool)
        key = (
            arm,
            engine,
            None if candidates is None else frozenset(candidates),
        )
        run = self._runs.get(key)
        if run is None:
            run = self._runs[key] = arm(pool, candidates, engine)
        return run


def greedy_maxr(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    engine: str = "flat",
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Greedy on ``ĉ_R``, evaluating only the marginals that can win.

    Returns up to ``k`` seeds (fewer when the pool has fewer touching
    nodes than ``k``, or when ``deadline`` expires mid-selection); the
    same seeds as recomputing every candidate's marginal each round
    (see the module docstring for the bound and why it is exact).
    """
    return GreedyMaxrRun(pool, candidates, engine).take(k, deadline)


def lazy_greedy_nu(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    engine: str = "flat",
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """CELF lazy greedy on the submodular ``ν_R``.

    Submodularity guarantees each cached marginal upper-bounds the true
    current marginal, so only the top heap entry ever needs
    re-evaluation; the selected set matches eager greedy exactly (up to
    the same tie-breaking), verified by the test suite. ``deadline`` is
    polled between CELF iterations; on expiry the seeds selected so far
    are returned.
    """
    return LazyNuRun(pool, candidates, engine).take(k, deadline)


def greedy_eager_nu(
    pool: RICSamplePool,
    k: int,
    candidates: Optional[Iterable[int]] = None,
    engine: str = "reference",
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Eager (recompute-everything) greedy on ``ν_R``.

    Exists as the reference implementation that
    :func:`lazy_greedy_nu` is validated against, and as the slow arm of
    the CELF ablation benchmark — hence the ``"reference"`` engine
    default, overridable for cross-engine checks.
    """
    return EagerNuRun(pool, candidates, engine).take(k, deadline)
