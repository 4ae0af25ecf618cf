"""Cluster front door: rendezvous routing, circuit breakers, failover.

The router is the single address clients talk to when the serving layer
runs as a multi-replica cluster (:mod:`repro.serving.cluster`). It owns
three jobs:

- **Placement.** Scenario keys are consistent-hashed to replicas with
  rendezvous (highest-random-weight) hashing
  (:func:`rendezvous_order`), so each shard stays warm in exactly one
  process and adding/removing a replica remaps only that replica's
  scenarios — no global reshuffle, no cold sweep across the fleet.
- **Failure isolation.** Each replica gets a :class:`CircuitBreaker`:
  consecutive forwarding failures trip it open, open breakers are
  skipped during candidate selection, and after a cooldown a single
  half-open probe decides whether the replica is back.
- **Failover.** A failed forward retries against the next replica in
  the key's rendezvous order. This is safe *because solves are
  deterministic*: every replica computes byte-identical deterministic
  fields (``seeds``, ``objective``, ``num_samples``) for the same
  query, so at-least-once delivery cannot change an answer — the
  failover target merely pays a cold-build before replying.

The router never parses a replica's answer: response bytes stream back
unchanged, preserving byte-identity end to end. Forwards reuse idle
keep-alive connections to the replica unless pooling is switched off.
:func:`repro.serving.server.start_http_server` serves a
:class:`RouterApp` with the same HTTP handler as a replica, so both
front doors share framing checks and error mapping.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple
from hashlib import sha256

from repro.errors import ClusterError, ServingError
from repro.obs import metrics, trace
from repro.obs.events import EventJournal
from repro.obs.metrics import to_prometheus_text
from repro.obs.tracer import PARENT_HEADER, TRACE_HEADER, new_trace_id
from repro.serving.fleet import FleetMetricsAggregator
from repro.utils.faults import FaultInjector

#: Fault-injection site fired before each forward attempt — chaos tests
#: inject latency (or errors) into the router's data path here.
FORWARD_SITE = "router_forward"


def _weight(key: str, replica_id: str) -> int:
    """Deterministic rendezvous weight of ``replica_id`` for ``key``."""
    digest = sha256(f"{key}|{replica_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_order(key: str, replica_ids: Iterable[str]) -> List[str]:
    """Replica ids by descending rendezvous weight for ``key``.

    The first element is the key's home replica; the rest are its
    failover successors in preference order. The order is a pure
    function of the ids present: removing one id deletes its entry and
    shifts nothing else, which is exactly the "only the removed
    replica's scenarios remap" stability property the cluster relies on
    (property-tested in ``tests/test_prop_router.py``). Ties — sha256
    collisions, in practice unseen — break on the id itself so the
    order stays total and deterministic.
    """
    ids = list(replica_ids)
    if len(set(ids)) != len(ids):
        raise ClusterError(f"replica ids must be unique, got {ids}")
    return sorted(ids, key=lambda rid: (_weight(key, rid), rid), reverse=True)


def assign_replica(key: str, replica_ids: Iterable[str]) -> str:
    """The home replica for ``key`` — head of its rendezvous order."""
    order = rendezvous_order(key, replica_ids)
    if not order:
        raise ClusterError("cannot assign a key across zero replicas")
    return order[0]


class ReplicaEndpoint(NamedTuple):
    """Where one replica listens, plus the supervisor's health verdict."""

    replica_id: str
    host: str
    port: int
    healthy: bool


class CircuitBreaker:
    """Per-replica failure gate: closed → open → half-open → closed.

    ``failure_threshold`` *consecutive* failures trip the breaker open;
    while open, :meth:`allow` refuses traffic until ``reset_seconds``
    elapsed, then admits exactly one half-open probe — its success
    closes the breaker, its failure re-opens it for another full
    cooldown. The clock is injectable so tests drive transitions
    without sleeping. Thread-safe: the router's handler threads call
    :meth:`allow` / :meth:`record_failure` concurrently.

    ``on_transition`` (if given) is called with the new state name
    after every state *change*, outside the breaker lock — the router
    uses it to stream ``breaker.*`` events to the cluster journal.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Optional[Callable[[str], None]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ClusterError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds < 0:
            raise ClusterError(
                f"reset_seconds must be non-negative, got {reset_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    def _notify(self, state: str) -> None:
        # Called outside self._lock so a slow observer (journal write)
        # never blocks breaker decisions on other threads.
        if self.on_transition is not None:
            self.on_transition(state)

    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half-open``)."""
        with self._lock:
            transitioned = self._maybe_half_open()
            state = self._state
        if transitioned:
            self._notify(state)
        return state

    def _maybe_half_open(self) -> bool:
        # Requires self._lock; returns True when the state changed.
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = "half-open"
            self._probing = False
            return True
        return False

    def allow(self) -> bool:
        """Whether a request may be sent to this replica right now.

        In half-open state only the *first* caller gets through (the
        probe); concurrent callers are refused until the probe's
        outcome is recorded.
        """
        with self._lock:
            transitioned = self._maybe_half_open()
            state = self._state
            if state == "closed":
                admitted = True
            elif state == "half-open" and not self._probing:
                self._probing = True
                admitted = True
            else:
                admitted = False
        if transitioned:
            self._notify(state)
        return admitted

    def record_success(self) -> None:
        """A forward succeeded: reset failures, close the breaker."""
        with self._lock:
            transitioned = self._state != "closed"
            self._state = "closed"
            self._failures = 0
            self._probing = False
        if transitioned:
            self._notify("closed")

    def record_failure(self) -> bool:
        """A forward failed; returns ``True`` if this *opened* the breaker.

        A half-open probe failure re-opens immediately (and counts as an
        opening); in closed state the breaker opens once consecutive
        failures reach the threshold.
        """
        with self._lock:
            if self._state == "half-open":
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False
                opened = True
            else:
                self._failures += 1
                opened = self._state == "closed" and (
                    self._failures >= self.failure_threshold
                )
                if opened:
                    self._state = "open"
                    self._opened_at = self._clock()
        if opened:
            self._notify("open")
        return opened


class _ReplicaPool:
    """Idle keep-alive connections to one replica (bounded LIFO).

    LIFO keeps the hottest connection hottest; connections beyond
    ``size`` close instead of parking. The pool never validates an
    idle connection — staleness (replica restarted, server-side idle
    timeout) surfaces as a send/read error, which the router retries
    once on a fresh connection before charging the breaker.
    """

    __slots__ = ("size", "_idle", "_lock")

    def __init__(self, size: int) -> None:
        self.size = size
        self._idle: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def acquire(self) -> Optional[http.client.HTTPConnection]:
        with self._lock:
            return self._idle.pop() if self._idle else None

    def release(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._idle) < self.size:
                self._idle.append(conn)
                return
        conn.close()

    def idle(self) -> int:
        with self._lock:
            return len(self._idle)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


class RouterApp:
    """Transport-independent routing logic for the cluster front door.

    ``replicas`` is a zero-argument callable returning the current
    :class:`ReplicaEndpoint` list — the supervisor's live view, so a
    restarted replica rejoins routing the moment its health flips back
    without the router holding a reference into supervisor internals.

    Observability wiring (all optional): ``journal`` receives
    ``breaker.*`` transition events; ``supervisor_status`` (a callable)
    folds the supervisor's restart/incident view into ``/status``; the
    :class:`~repro.serving.fleet.FleetMetricsAggregator` behind
    ``/metrics`` is always constructed, so even a single-replica router
    serves the fleet view.
    """

    #: ``Server`` header the HTTP front end answers with.
    server_version = "repro-imc-router/1.0"

    def __init__(
        self,
        replicas: Callable[[], List[ReplicaEndpoint]],
        *,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 1.0,
        forward_timeout: float = 300.0,
        fault_injector: Optional[FaultInjector] = None,
        pool_connections: bool = True,
        pool_size: int = 8,
        journal: Optional[EventJournal] = None,
        supervisor_status: Optional[Callable[[], Dict]] = None,
        scrape_cache_seconds: float = 1.0,
    ) -> None:
        self.replicas = replicas
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self.forward_timeout = forward_timeout
        self.faults = fault_injector
        self.pool_connections = pool_connections
        self.pool_size = pool_size
        self.journal = journal
        self.supervisor_status = supervisor_status
        self.fleet = FleetMetricsAggregator(
            replicas, cache_seconds=scrape_cache_seconds
        )
        self.started = time.monotonic()
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._pools: Dict[str, _ReplicaPool] = {}
        self.counters = {"routed": 0, "failovers": 0, "failed": 0}

    # -- bookkeeping ----------------------------------------------------

    def breaker(self, replica_id: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for one replica."""
        with self._lock:
            breaker = self._breakers.get(replica_id)
            if breaker is None:
                breaker = self._breakers[replica_id] = CircuitBreaker(
                    self.breaker_threshold,
                    self.breaker_reset_seconds,
                    on_transition=lambda state, rid=replica_id: (
                        self._breaker_event(rid, state)
                    ),
                )
            return breaker

    def _breaker_event(self, replica_id: str, state: str) -> None:
        journal = self.journal
        if journal is None:
            return
        if state == "open":
            journal.emit("breaker.opened", replica=replica_id)
        elif state == "half-open":
            journal.emit("breaker.half_open", replica=replica_id)
        else:
            journal.emit("breaker.closed", replica=replica_id)

    def _pool(self, replica_id: str) -> _ReplicaPool:
        with self._lock:
            pool = self._pools.get(replica_id)
            if pool is None:
                pool = self._pools[replica_id] = _ReplicaPool(self.pool_size)
            return pool

    def close_pools(self) -> None:
        """Close every idle pooled connection (router shutdown)."""
        with self._lock:
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()

    def _count(self, field: str) -> None:
        with self._lock:
            self.counters[field] += 1

    # -- endpoints ------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Fleet-truth snapshot: one curl answers "is the cluster ok".

        Per replica: supervisor health, breaker state, idle pooled
        connections and the age of the last successful metrics scrape;
        plus router counters, pooling config and — when wired by
        :class:`~repro.serving.cluster.ServingCluster` — the
        supervisor's own restart/incident view.
        """
        endpoints = self.replicas()
        with self._lock:
            counters = dict(self.counters)
            breakers = {
                rid: breaker for rid, breaker in self._breakers.items()
            }
            pools = dict(self._pools)
        payload: Dict[str, object] = {
            "replicas": [
                {
                    "replica_id": ep.replica_id,
                    "host": ep.host,
                    "port": ep.port,
                    "healthy": ep.healthy,
                    "breaker": (
                        breakers[ep.replica_id].state()
                        if ep.replica_id in breakers
                        else "closed"
                    ),
                    "pooled_connections": (
                        pools[ep.replica_id].idle()
                        if ep.replica_id in pools
                        else 0
                    ),
                    "last_scrape_age_seconds": self.fleet.scrape_age(
                        ep.replica_id
                    ),
                }
                for ep in endpoints
            ],
            "requests": counters,
            "uptime_seconds": time.monotonic() - self.started,
            "connection_pooling": {
                "enabled": self.pool_connections,
                "pool_size": self.pool_size,
            },
        }
        if self.supervisor_status is not None:
            payload["supervisor"] = self.supervisor_status()
        return payload

    def prometheus(self) -> str:
        """Prometheus text exposition of the *fleet*: the router's own
        registry merged with every scraped replica snapshot, plus the
        derived ``cluster.slo.*`` gauges."""
        return to_prometheus_text(self.fleet.aggregate()["snapshot"])

    def metrics_json(self) -> Dict[str, object]:
        """The full aggregation document (``GET /metrics.json``)."""
        return self.fleet.aggregate()

    # -- routing --------------------------------------------------------

    def candidates(self, scenario: str) -> List[ReplicaEndpoint]:
        """Failover-ordered forwarding targets for ``scenario``.

        Rendezvous order over *all* replicas, filtered down to those
        both supervisor-healthy and breaker-admitted. When the filter
        leaves nothing (every replica mid-restart, say), the full
        rendezvous order is returned instead — trying a probably-dead
        replica and failing loudly beats refusing without trying, and a
        replica that just recovered answers correctly either way.
        """
        endpoints = {ep.replica_id: ep for ep in self.replicas()}
        order = rendezvous_order(scenario, endpoints.keys())
        ranked = [endpoints[rid] for rid in order]
        available = [
            ep
            for ep in ranked
            if ep.healthy and self.breaker(ep.replica_id).allow()
        ]
        return available if available else ranked

    def handle_solve(
        self, payload: Dict, inbound_headers=None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Forward one ``/solve`` to its home replica, failing over.

        Returns ``(status, body_bytes, response_headers)`` with the
        winning replica's response bytes untouched — trace id and the
        ``Server-Timing`` breakdown travel as *headers* precisely so the
        body stays byte-identical with observability on or off.
        Candidates are tried in rendezvous order; a connection error or
        5xx records a breaker failure and moves on (4xx is the
        *client's* fault — it is returned as-is and charged to no
        replica). When every candidate fails, the answer is a 503
        carrying the per-replica error detail.

        Trace contract: the router adopts an inbound ``X-Repro-Trace-Id``
        (or mints one), opens a ``router/solve`` span, and every forward
        attempt is a sibling ``router/forward`` span whose id rides the
        ``X-Repro-Parent-Span`` header — so a failover's retries share
        one trace id and re-parent the replica-side spans correctly.
        """
        began = time.perf_counter()
        metrics.inc("router.requests.total")
        scenario = payload.get("scenario") if isinstance(payload, dict) else None
        if not isinstance(scenario, str) or not scenario:
            raise ServingError("solve payload needs a 'scenario' string")
        inbound = inbound_headers or {}
        trace_id = inbound.get(TRACE_HEADER) or None
        if trace_id is None:
            trace_id = new_trace_id()
            metrics.inc("router.trace.minted")
        else:
            metrics.inc("router.trace.adopted")
        remote_parent = inbound.get(PARENT_HEADER) or None
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        with trace.context(trace_id, remote_parent):
            with trace.span("router/solve", scenario=scenario):
                status, response, upstream_timing = self._route(
                    scenario, body
                )
        elapsed = time.perf_counter() - began
        metrics.observe("router.request.seconds", elapsed)
        headers = {TRACE_HEADER: trace_id}
        router_timing = f"router;dur={elapsed * 1e3:.3f}"
        headers["Server-Timing"] = (
            f"{upstream_timing}, {router_timing}"
            if upstream_timing
            else router_timing
        )
        return status, response, headers

    def _route(
        self, scenario: str, body: bytes
    ) -> Tuple[int, bytes, Optional[str]]:
        """The candidate loop: try, charge breakers, fail over.

        Returns ``(status, body_bytes, server_timing)``, the last being
        the answering replica's ``Server-Timing`` header (``None`` when
        no replica answered).
        """
        candidates = self.candidates(scenario)
        if not candidates:
            metrics.inc("router.requests.failed")
            self._count("failed")
            return (
                503,
                json.dumps({"error": "no replicas available"}).encode(
                    "utf-8"
                ),
                None,
            )
        errors: List[str] = []
        for attempt, endpoint in enumerate(candidates):
            if attempt > 0:
                self._count("failovers")
            breaker = self.breaker(endpoint.replica_id)
            try:
                with trace.span(
                    "router/forward",
                    replica=endpoint.replica_id,
                    attempt=attempt,
                ):
                    if self.faults is not None:
                        self.faults.fire(
                            FORWARD_SITE, replica=endpoint.replica_id
                        )
                    status, server_timing, response = self._forward(
                        endpoint, body, trace.propagation_headers()
                    )
            except (OSError, http.client.HTTPException) as exc:
                breaker.record_failure()
                errors.append(f"{endpoint.replica_id}: {exc}")
                continue
            if status >= 500:
                breaker.record_failure()
                errors.append(f"{endpoint.replica_id}: HTTP {status}")
                continue
            breaker.record_success()
            self._count("routed")
            if status >= 400:
                metrics.inc("router.requests.failed")
            return status, response, server_timing
        metrics.inc("router.requests.failed")
        self._count("failed")
        return (
            503,
            json.dumps(
                {"error": "all replicas failed", "detail": errors}
            ).encode("utf-8"),
            None,
        )

    def _connect(self, endpoint: ReplicaEndpoint) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            endpoint.host, endpoint.port, timeout=self.forward_timeout
        )

    def _roundtrip(
        self,
        conn: http.client.HTTPConnection,
        body: bytes,
        extra_headers: Dict[str, str],
    ) -> Tuple[int, Optional[str], bytes, bool]:
        headers = {"Content-Type": "application/json"}
        headers.update(extra_headers)
        conn.request("POST", "/solve", body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        timing = response.getheader("Server-Timing")
        return response.status, timing, data, not response.will_close

    def _forward(
        self,
        endpoint: ReplicaEndpoint,
        body: bytes,
        extra_headers: Dict[str, str],
    ) -> Tuple[int, Optional[str], bytes]:
        """POST ``body`` to one replica's ``/solve``; return its answer.

        Returns ``(status, server_timing, body_bytes)``. With pooling
        on, reuses an idle keep-alive connection when one exists. A
        reused connection that fails to round-trip gets ONE retry on a
        fresh connection — the failure is indistinguishable from an idle
        connection gone stale (replica restarted under the same port,
        server-side timeout), and charging the breaker for router-side
        connection hygiene would trip failover spuriously. A fresh
        connection's failure propagates to :meth:`_route`, which charges
        it to the replica's breaker.
        """
        pool = (
            self._pool(endpoint.replica_id) if self.pool_connections else None
        )
        conn = pool.acquire() if pool is not None else None
        reused = conn is not None
        if conn is None:
            conn = self._connect(endpoint)
        try:
            status, timing, data, reusable = self._roundtrip(
                conn, body, extra_headers
            )
        except (OSError, http.client.HTTPException):
            conn.close()
            if not reused:
                raise
            conn = self._connect(endpoint)
            try:
                status, timing, data, reusable = self._roundtrip(
                    conn, body, extra_headers
                )
            except (OSError, http.client.HTTPException):
                conn.close()
                raise
        if pool is not None and reusable:
            pool.release(conn)
        else:
            conn.close()
        return status, timing, data
