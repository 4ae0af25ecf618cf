"""Bounded-threshold algorithms BT (Algorithm 4), BT^(d) and MB.

BT exploits Lemma 5: for every node ``u``, a near-optimal companion set
``K(u)`` for the samples ``G_R(u)`` that ``u`` touches can be found by
*reducing* each such sample — remove the members ``u`` already reaches
and decrement the threshold accordingly. With thresholds bounded by 2,
every reduced threshold is at most 1, so the reduced problem is plain
(submodular) max coverage and greedy earns ``1 - 1/e``; BT then returns
the best ``K(u)`` over all ``u``, for a ``(1 - 1/e)/k`` ratio
(Theorem 4).

``BT^(d)`` recurses: the companion set of the reduced (threshold ≤ d-1)
problem is found by ``BT^(d-1)``, giving ``(1 - 1/e)/k^{d-1}``.

``MB`` returns the better of MAF and BT under ``ĉ_R``; Theorem 5 shows
the combination is a ``Θ(√((1-1/e)/r))``-approximation — tight to the
inapproximability bound of Theorem 1.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.maf import MAF
from repro.core.solution import SeedSelection
from repro.errors import SolverError
from repro.obs import trace
from repro.rng import SeedLike
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSample
from repro.utils.heap import LazyMaxHeap
from repro.utils.math import popcount
from repro.utils.retry import Deadline
from repro.utils.validation import check_candidates, check_positive


class _Collection:
    """A lightweight reduced RIC collection over the pool's samples.

    Sample ``s`` is the pool sample ``samples[s]`` whose members in the
    mask ``removed[s]`` the implicit outer seeds already reach; it
    needs ``thresholds[s]`` more (0 once they influence it). ``index``
    maps each node to ``{sample: mask}`` over the live (threshold ≥ 1)
    samples, each mask without the removed members; greedy selection
    reads it.
    """

    __slots__ = (
        "samples", "removed", "thresholds", "index", "auto_influenced"
    )

    def __init__(
        self,
        samples: Sequence[RICSample],
        removed: List[int],
        thresholds: List[int],
        index: Mapping[int, Mapping[int, int]],
    ) -> None:
        self.samples = samples
        self.removed = removed
        self.thresholds = thresholds
        self.index = index
        self.auto_influenced = sum(1 for h in thresholds if h <= 0)

    def __len__(self) -> int:
        return len(self.thresholds)

    @classmethod
    def from_pool(cls, pool: RICSamplePool) -> "_Collection":
        """The unreduced collection: the pool's samples and mask index."""
        return cls(
            pool.samples,
            [0] * len(pool),
            [s.threshold for s in pool.samples],
            pool.mask_index,
        )

    def touched_by(self, node: int) -> List[int]:
        """Ascending indices of the live samples ``node`` touches."""
        return list(self.index.get(node, {}))

    def reduce_by(self, node: int) -> "_Collection":
        """The collection ``G_R(node)`` after seeding ``node``.

        Keeps only the live samples ``node`` touches (BT's score
        ``|D_R(K(u), u)|`` only counts those, Alg. 4 lines 2-7). In
        each, the members ``node`` reaches (``mask_u``) leave: the
        threshold drops by ``popcount(mask_u)`` and every other mask
        becomes ``mask & ~mask_u``, dropping nodes left with none.
        """
        samples: List[RICSample] = []
        removed: List[int] = []
        thresholds: List[int] = []
        index: Dict[int, Dict[int, int]] = {}
        for sample_idx, mask_u in self.index[node].items():
            reduced_idx = len(samples)
            sample = self.samples[sample_idx]
            gone = self.removed[sample_idx] | mask_u
            threshold = max(0, self.thresholds[sample_idx] - popcount(mask_u))
            samples.append(sample)
            removed.append(gone)
            thresholds.append(threshold)
            if threshold <= 0:
                continue  # influenced: no seed choice depends on it
            keep = ~gone
            for v, mask in zip(sample.nodes, sample.masks):
                mask &= keep
                if mask:
                    entry = index.get(v)
                    if entry is None:
                        index[v] = {reduced_idx: mask}
                    else:
                        entry[reduced_idx] = mask
        return _Collection(samples, removed, thresholds, index)

    def influenced_count(self, seeds: Sequence[int]) -> int:
        """Samples influenced by ``seeds`` (auto-influenced included)."""
        covered: Dict[int, int] = {}
        for v in set(seeds):
            for sample_idx, mask in self.index.get(v, {}).items():
                covered[sample_idx] = covered.get(sample_idx, 0) | mask
        live_influenced = sum(
            1
            for sample_idx, mask in covered.items()
            if popcount(mask) >= self.thresholds[sample_idx]
        )
        return live_influenced + self.auto_influenced

    def max_threshold(self) -> int:
        """Largest live threshold (0 for an all-influenced collection)."""
        return max(self.thresholds, default=0)


def _greedy_cover(
    collection: _Collection,
    k: int,
    allowed: Optional[Set[int]] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[List[int], bool]:
    """CELF greedy for a collection whose thresholds are all ≤ 1.

    With ``h ≤ 1`` a sample is influenced as soon as *any* member is
    covered — plain max coverage, submodular, so lazy evaluation is
    sound and the result carries the ``1 - 1/e`` guarantee. A node's
    gain is the number of its live samples not yet covered. ``deadline``
    is polled between CELF iterations (after at least one pick).
    Returns the picks and whether the deadline stopped the loop short
    of ``k`` picks with candidates left.
    """
    index = collection.index
    # The index holds live samples only, none of them covered yet, so a
    # node's first gain is its entry count.
    sample_covered = [False] * len(collection)
    heap: LazyMaxHeap[int] = LazyMaxHeap()

    def gain(node: int) -> int:
        return sum(1 for s in index[node] if not sample_covered[s])

    for node in sorted(index):
        if allowed is None or node in allowed:
            heap.push(node, len(index[node]))
    chosen: List[int] = []
    while heap and len(chosen) < k:
        if deadline is not None and chosen and deadline.expired():
            return chosen, True
        node, _ = heap.pop_max()
        fresh = gain(node)
        if fresh <= 0:
            continue
        if heap:
            _, next_best = heap.peek_max()
            if fresh < next_best:
                heap.push(node, fresh)
                continue
        chosen.append(node)
        for s in index[node]:
            sample_covered[s] = True
    return chosen, False


def _bt_solve(
    collection: _Collection,
    k: int,
    depth: int,
    candidate_limit: Optional[int],
    allowed: Optional[Set[int]] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[List[int], bool]:
    """Recursive core of BT^(d): up to ``k`` seeds, and whether a
    deadline cut the work short.

    ``depth`` is the threshold bound ``d`` of the *current* collection;
    at ``depth <= 1`` the problem is max coverage and plain greedy
    finishes the recursion. The outer loop over candidate nodes ``u``
    is BT's dominant cost; a ``deadline`` is polled per candidate and
    the best companion set found so far is returned on expiry (the
    first candidate is always evaluated, though its own recursion may
    stop early too). The flag is set when this loop stopped with
    candidates left, or when a recursion or greedy under it was cut.
    """
    if k <= 0 or len(collection) == 0:
        return [], False
    if depth <= 1 or collection.max_threshold() <= 1:
        return _greedy_cover(collection, k, allowed=allowed, deadline=deadline)
    candidates = list(collection.index)
    if allowed is not None:
        candidates = [v for v in candidates if v in allowed]
    # Rank by how many live samples each node touches; the limit keeps
    # the O(n)-fold outer loop tractable on larger instances (the paper
    # itself reports MB exceeding runtime limits on Pokec).
    candidates.sort(key=lambda v: (-len(collection.touched_by(v)), v))
    if candidate_limit is not None:
        candidates = candidates[:candidate_limit]
    best_seeds: List[int] = []
    best_score = -1
    cut = False
    for u in candidates:
        if deadline is not None and best_seeds and deadline.expired():
            return best_seeds, True
        reduced = collection.reduce_by(u)
        companions, companions_cut = _bt_solve(
            reduced,
            k - 1,
            depth - 1,
            candidate_limit,
            allowed=allowed,
            deadline=deadline,
        )
        cut = cut or companions_cut
        companions = [v for v in companions if v != u][: k - 1]
        score = reduced.influenced_count(companions)
        if score > best_score:
            best_score = score
            best_seeds = [u] + companions
    return best_seeds, cut


class BT:
    """Bounded-threshold MAXR solver (Algorithm 4 / BT^(d)).

    ``threshold_bound`` is the constant ``d`` the instance's thresholds
    must respect (2 reproduces Algorithm 4 exactly).
    ``candidate_limit`` optionally truncates the outer loop over ``u``
    to the most-touching nodes — a practical knob the paper's runtime
    discussion motivates; ``None`` is the faithful full loop.
    """

    name = "BT"

    def __init__(
        self,
        threshold_bound: int = 2,
        candidate_limit: Optional[int] = None,
        candidates: Optional[Iterable[int]] = None,
    ) -> None:
        if threshold_bound < 1:
            raise SolverError(
                f"threshold_bound must be >= 1, got {threshold_bound}"
            )
        self.threshold_bound = threshold_bound
        self.candidate_limit = candidate_limit
        #: Restrict seeding to these nodes (None = all nodes).
        self.candidates: Optional[Set[int]] = (
            set(candidates) if candidates is not None else None
        )

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """``(1 - 1/e) / k^{d-1}`` (Theorem 4 + induction)."""
        return (1.0 - 1.0 / math.e) / (k ** (self.threshold_bound - 1))

    def _check_bound(self, pool: RICSamplePool) -> None:
        h_max = pool.sampler.communities.max_threshold
        if h_max > self.threshold_bound:
            raise SolverError(
                f"BT configured for thresholds <= {self.threshold_bound} "
                f"but the instance has max threshold {h_max}; raise "
                "threshold_bound (ratio degrades as 1/k^(d-1)) or use "
                "UBG/MAF"
            )

    def solve(
        self,
        pool: RICSamplePool,
        k: int,
        deadline: Optional[Deadline] = None,
    ) -> SeedSelection:
        """Run BT^(d) on the pool.

        ``deadline`` is polled per outer candidate and per CELF pick;
        on expiry the best seeds so far are returned, flagged
        ``truncated`` only when a loop stopped with work left.
        """
        check_positive(k, "k", SolverError)
        check_candidates(
            self.candidates, pool.sampler.graph.num_nodes, SolverError
        )
        self._check_bound(pool)
        with trace.span("bt/select", k=k, num_samples=len(pool)):
            collection = _Collection.from_pool(pool)
            seeds, truncated = _bt_solve(
                collection,
                k,
                self.threshold_bound,
                self.candidate_limit,
                allowed=self.candidates,
                deadline=deadline,
            )
        return SeedSelection(
            seeds=tuple(seeds),
            objective=pool.estimate_benefit(seeds),
            solver=self.name,
            metadata={
                "threshold_bound": self.threshold_bound,
                "candidate_limit": self.candidate_limit,
                "num_samples": len(pool),
            },
            truncated=truncated,
        )


class MB:
    """MAF + BT: return the better of the two under ``ĉ_R``.

    Theorem 5: with thresholds bounded by 2, the combination is a
    ``Θ(√((1-1/e)/r))``-approximation — tight to the Theorem 1
    inapproximability bound (up to the ``(log log r)^c`` refinement).
    """

    name = "MB"

    def __init__(
        self,
        threshold_bound: int = 2,
        candidate_limit: Optional[int] = None,
        seed: SeedLike = None,
        candidates: Optional[Iterable[int]] = None,
    ) -> None:
        self._maf = MAF(seed=seed, candidates=candidates)
        self._bt = BT(
            threshold_bound=threshold_bound,
            candidate_limit=candidate_limit,
            candidates=candidates,
        )

    def alpha(self, pool: RICSamplePool, k: int) -> float:
        """``√((1-1/e)·⌊k/2⌋ / (k·r))`` — the geometric-mean bound,
        capped at 1."""
        r = pool.sampler.communities.r
        if k < 2:
            return self._bt.alpha(pool, k)
        return min(1.0, math.sqrt((1.0 - 1.0 / math.e) * (k // 2) / (k * r)))

    def solve(
        self,
        pool: RICSamplePool,
        k: int,
        deadline: Optional[Deadline] = None,
    ) -> SeedSelection:
        """Run both arms and keep the better seed set.

        ``deadline`` bounds both arms. MAF (fast) runs first; if the
        deadline has expired by then, the (much slower) BT arm is
        skipped and MAF's seeds are returned as-is. Flagged
        ``truncated`` only when the BT arm was skipped or an arm that
        ran was flagged."""
        with trace.span("mb/maf_arm", k=k, num_samples=len(pool)):
            maf_result = self._maf.solve(pool, k, deadline)
        if deadline is not None and maf_result.seeds and deadline.expired():
            bt_result = None
            winner = maf_result
            truncated = True
        else:
            with trace.span("mb/bt_arm", k=k, num_samples=len(pool)):
                bt_result = self._bt.solve(pool, k, deadline)
            winner = (
                maf_result
                if maf_result.objective >= bt_result.objective
                else bt_result
            )
            truncated = maf_result.truncated or bt_result.truncated
        return SeedSelection(
            seeds=winner.seeds,
            objective=winner.objective,
            solver=self.name,
            metadata={
                "arm": winner.solver,
                "value_maf": maf_result.objective,
                "value_bt": bt_result.objective if bt_result else None,
                "num_samples": len(pool),
            },
            truncated=truncated,
        )
