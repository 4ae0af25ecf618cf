"""Request coalescing: concurrent identical requests share one solve.

A burst of clients asking for the same ``(scenario, budget, solver,
ci_width)`` should cost one solver run, not N. The first thread to
arrive for a key becomes the *leader* and computes; threads arriving
while the leader is in flight become *followers* and block on the
flight's event, then share the leader's result (or exception). The
flight is unregistered before its event is set, so a request arriving
*after* completion starts a fresh flight — batching never serves stale
results; caching is the shard's job
(:meth:`repro.serving.shards.WarmShard.solve`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional, Tuple


class _Flight:
    """One in-progress computation plus the threads waiting on it."""

    __slots__ = ("done", "result", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None


class RequestBatcher:
    """Coalesce concurrent calls with equal keys onto one computation.

    :meth:`run` returns ``(result, leader)`` where ``leader`` tells the
    caller whether *it* performed the computation (followers count as
    batched requests in the server's ``/status`` counters). Exceptions
    raised by the leader propagate to every follower of the same flight,
    so a failed solve fails its whole batch loudly instead of hanging it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._flights: Dict[Hashable, _Flight] = {}

    def run(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, bool]:
        """Compute (as leader) or wait for (as follower) ``key``.

        The result object is shared between the leader and all its
        followers — treat it as read-only, or copy before mutating.
        """
        with self._lock:
            flight = self._flights.get(key)
            leader = flight is None
            if leader:
                flight = self._flights[key] = _Flight()
        if not leader:
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, False
        try:
            flight.result = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Unregister *before* waking followers: anyone arriving now
            # starts a fresh flight instead of reading a finished one.
            with self._lock:
                self._flights.pop(key, None)
            flight.done.set()
        return flight.result, True

    def in_flight(self) -> int:
        """Number of keys currently being computed (for ``/status``)."""
        with self._lock:
            return len(self._flights)
