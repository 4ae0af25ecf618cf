"""Resumed greedy runs pick what a fresh greedy loop picks.

The oracles below are the ĉ greedy and the CELF ν greedy as loops
that run from the empty seed set to ``k`` in one call, the form both
had before they became resumable runs. One shared
:class:`~repro.core.greedy.RunCache` answers a random sequence of
budgets (rising, falling and repeated) on random pools, on both
engines, with and without a ``candidates`` restriction, before and
after the pool grows. Every budget must get the oracle's picks, and
the runs must make exactly the engine calls of one fresh loop to the
largest budget asked. UBG and GreedyC drawing their arms from the
cache must answer like fresh solvers, metadata floats included.
"""

import heapq
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flat_engine import FlatCoverage
from repro.core.greedy import GreedyMaxrRun, LazyNuRun, RunCache
from repro.core.objective import CoverageState
from repro.core.ubg import UBG, GreedyC
from repro.utils.heap import LazyMaxHeap

from tests.test_prop_greedy_bound import NUM_NODES, greedy_cases

ENGINES = {"flat": FlatCoverage, "reference": CoverageState}
GAINS = ("gain_pair", "gain_influenced", "gain_fractional")


def _candidates(pool, restrict):
    if restrict is not None:
        return sorted(set(restrict))
    return sorted(pool.touching_nodes())


def oracle_greedy_maxr(pool, k, candidates=None, engine="flat"):
    """The bound-pruned ĉ greedy as one loop from the empty seed set."""
    state = ENGINES[engine](pool)
    heap = [
        (-state.gain_bound(node), node)
        for node in _candidates(pool, candidates)
    ]
    heapq.heapify(heap)
    chosen = []
    for _ in range(min(k, len(heap))):
        best_key = None
        evaluated = []
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
    return chosen


def oracle_lazy_greedy_nu(pool, k, candidates=None, engine="flat"):
    """The CELF ν greedy as one loop from the empty seed set."""
    state = ENGINES[engine](pool)
    heap = LazyMaxHeap()
    for node in _candidates(pool, candidates):
        gain = state.gain_fractional(node)
        if gain > 0.0:
            heap.push(node, gain)
    chosen = []
    while heap and len(chosen) < k:
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
    return chosen


ARMS = (
    (GreedyMaxrRun, oracle_greedy_maxr),
    (LazyNuRun, oracle_lazy_greedy_nu),
)


@contextmanager
def counting_engine_calls():
    """Count outermost ``gain_*`` calls on either engine."""
    count = [0]
    inside = [False]
    originals = []

    def counted(original):
        def wrapper(*args, **kwargs):
            if inside[0]:
                return original(*args, **kwargs)
            count[0] += 1
            inside[0] = True
            try:
                return original(*args, **kwargs)
            finally:
                inside[0] = False

        return wrapper

    for cls in ENGINES.values():
        for name in GAINS:
            original = cls.__dict__[name]
            originals.append((cls, name, original))
            setattr(cls, name, counted(original))
    try:
        yield count
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)


@st.composite
def budget_cases(draw):
    pool, candidates, _, growth = draw(greedy_cases())
    # Up to one past the node count, so runs reach exhaustion.
    budgets = draw(
        st.lists(st.integers(0, NUM_NODES + 1), min_size=1, max_size=8)
    )
    return pool, candidates, budgets, growth


def _floats(selection):
    """Objective and metadata floats, compared bit for bit."""
    values = [selection.objective] + [
        value
        for value in selection.metadata.values()
        if isinstance(value, float)
    ]
    return [value.hex() for value in values]


def _answer(selection):
    return (
        selection.seeds,
        selection.truncated,
        selection.metadata.get("arm"),
        _floats(selection),
    )


@given(budget_cases())
@settings(max_examples=150, deadline=None)
def test_one_run_cache_answers_every_budget_like_fresh_loops(case):
    pool, candidates, budgets, growth = case
    runs = RunCache()
    for _ in range(2):
        for engine in ENGINES:
            for arm, oracle in ARMS:
                with counting_engine_calls() as calls:
                    got = [
                        runs.run(arm, pool, candidates, engine).take(k)
                        for k in budgets
                    ]
                run_calls = calls[0]
                assert got == [
                    oracle(pool, k, candidates, engine) for k in budgets
                ]
                with counting_engine_calls() as calls:
                    oracle(pool, max(budgets), candidates, engine)
                assert run_calls == calls[0]
            for k in budgets:
                if k < 1:
                    continue
                for solver in (UBG, GreedyC):
                    cached = solver(
                        candidates=candidates, engine=engine, runs=runs
                    ).solve(pool, k)
                    fresh = solver(
                        candidates=candidates, engine=engine
                    ).solve(pool, k)
                    assert _answer(cached) == _answer(fresh)
        # Growth changes every marginal: the cache must rebuild its
        # runs on the grown pool, not answer from the old heaps.
        pool.grow(growth)
