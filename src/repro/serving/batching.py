"""Request coalescing: concurrent identical requests share one solve.

A burst of clients asking for the same ``(scenario, budget, solver)``
should cost one solver run, not N. The first thread to arrive for a key
becomes the *leader* and computes; threads arriving while the leader is
in flight become *followers* and block on the flight's event, then
share the leader's result (or exception). The flight is unregistered
before its event is set, so a request arriving *after* completion
starts a fresh flight — batching never serves stale results; caching is
the shard's job (:meth:`repro.serving.shards.WarmShard.solve`).

Flights additionally carry the ``ci_width`` targets of everyone in the
batch: requests for *different* precisions on the same shard coalesce
onto one pool top-up driven by the **tightest** width registered so far
(:meth:`RequestBatcher.tightest_width`, polled by the leader's solve
loop between merge rounds). Each follower is still answered at its own
width — the shard layer re-solves a follower whose requirement the
shared flight did not reach (see :meth:`repro.serving.server.ShardApp.solve`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

#: Sentinel distinguishing "no width supplied" from an explicit ``None``
#: (``None`` is a meaningful registration: no CI requirement).
_UNSET = object()


class _Flight:
    """One in-progress computation plus the threads waiting on it."""

    __slots__ = ("done", "result", "error", "followers", "widths")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.followers = 0
        #: ``ci_width`` targets registered by the leader and followers
        #: of this flight (``None`` entries mean "no requirement").
        self.widths: List[Optional[float]] = []


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
        self,
        key: Hashable,
        compute: Callable[[], Any],
        width: Any = _UNSET,
    ) -> Tuple[Any, bool]:
        """Compute (as leader) or wait for (as follower) ``key``.

        ``width`` optionally registers this request's ``ci_width``
        target on the flight, so a leader polling
        :meth:`tightest_width` mid-computation sees followers' tighter
        requirements and extends one shared pool top-up instead of the
        followers queuing their own.

        The result object is shared between the leader and all its
        followers — treat it as read-only, or copy before mutating.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                leader = True
            else:
                flight.followers += 1
                leader = False
            if width is not _UNSET:
                flight.widths.append(width)
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

    def tightest_width(self, key: Hashable) -> Optional[float]:
        """The smallest non-``None`` width registered on ``key``'s
        in-flight batch, or ``None`` when no width-carrying request is
        currently in flight for it.

        The leader's solve loop polls this between merge rounds — a
        follower registering a tighter width mid-flight tightens the
        shared target; targets only ever tighten, never loosen.
        """
        with self._lock:
            flight = self._flights.get(key)
            if flight is None:
                return None
            widths = [w for w in flight.widths if w is not None]
        return min(widths) if widths else None

    def in_flight(self) -> int:
        """Number of keys currently being computed (for ``/status``)."""
        with self._lock:
            return len(self._flights)
