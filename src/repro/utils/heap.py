"""A max-heap with lazy deletion, used by CELF-style lazy greedy.

CELF (Cost-Effective Lazy Forward) exploits submodularity: a cached
marginal gain is always an upper bound on the current marginal gain, so
the heap only needs to re-evaluate the top entry. This heap supports that
access pattern: ``push`` with a priority, ``pop_max``, and ``update``
implemented by pushing a fresh entry and invalidating the stale one via
an entry counter.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar


T = TypeVar("T", bound=Hashable)


class LazyMaxHeap(Generic[T]):
    """Max-heap keyed by float priority with lazy stale-entry deletion.

    Each item has at most one *live* entry; pushing an item again simply
    supersedes the previous entry. Stale entries are discarded when they
    surface at the top, and — because long CELF runs re-push items far
    more often than they pop — the heap also compacts itself whenever
    stale entries outnumber live ones by more than 2×, bounding memory
    at O(live) instead of O(total pushes).
    """

    #: Compaction only kicks in above this heap size, so tiny heaps
    #: never pay the rebuild cost.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, T]] = []
        self._live: dict = {}
        self._counter = itertools.count()

    def _maybe_rebuild(self) -> None:
        """Rebuild the heap when stale entries exceed ~2× live entries.

        Each live item has exactly one matching entry, so the stale
        count is ``len(_heap) - len(_live)``. Compaction is O(heap) and
        amortises to O(1) per operation: after a rebuild the heap holds
        only live entries, so at least ``2 × live`` further pushes or
        discards must happen before the next rebuild.
        """
        if len(self._heap) < self.COMPACT_MIN_SIZE:
            return
        stale = len(self._heap) - len(self._live)
        if stale <= 2 * len(self._live):
            return
        self._heap = [
            entry for entry in self._heap
            if self._live.get(entry[2]) == entry[1]
        ]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def __contains__(self, item: T) -> bool:
        return item in self._live

    def push(self, item: T, priority: float) -> None:
        """Insert ``item`` with ``priority``, superseding any older entry."""
        count = next(self._counter)
        self._live[item] = count
        # heapq is a min-heap; negate priorities for max behaviour.
        heapq.heappush(self._heap, (-priority, count, item))
        self._maybe_rebuild()

    def pop_max(self) -> Tuple[T, float]:
        """Remove and return ``(item, priority)`` with the largest priority.

        Raises ``IndexError`` when the heap is empty.
        """
        while self._heap:
            neg_priority, count, item = heapq.heappop(self._heap)
            if self._live.get(item) == count:
                del self._live[item]
                return item, -neg_priority
        raise IndexError("pop from empty LazyMaxHeap")

    def peek_max(self) -> Tuple[T, float]:
        """Return ``(item, priority)`` with the largest priority without removal."""
        while self._heap:
            neg_priority, count, item = self._heap[0]
            if self._live.get(item) == count:
                return item, -neg_priority
            heapq.heappop(self._heap)
        raise IndexError("peek on empty LazyMaxHeap")

    def discard(self, item: T) -> None:
        """Remove ``item`` if present (lazily; no-op when absent)."""
        self._live.pop(item, None)
        self._maybe_rebuild()

    def priority_of(self, item: T) -> Optional[float]:
        """Return the live priority of ``item`` or ``None`` when absent.

        Linear in heap size in the worst case; intended for tests and
        diagnostics rather than hot paths.
        """
        live_count = self._live.get(item)
        if live_count is None:
            return None
        for neg_priority, count, heap_item in self._heap:
            if heap_item == item and count == live_count:
                return -neg_priority
        return None

    def items(self) -> Iterator[T]:
        """Iterate over live items in arbitrary order."""
        return iter(list(self._live))
