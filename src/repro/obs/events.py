"""Lifecycle event journal: torn-tail-safe JSONL for fleet incidents.

Traces answer "where did *this request's* time go"; the event journal
answers "what happened to *the fleet* while requests flowed" — replica
spawns and crashes, heartbeat misses, supervisor restart incidents,
circuit-breaker transitions, shard evictions and drains. Events append
to a JSONL file as they happen (flushed per line), so a SIGKILL'd
process leaves at worst one torn final line, which
:func:`repro.obs.sinks.read_jsonl` already skips.

Unlike span/metric instrumentation, the journal is *not* gated by the
observability session: it is explicit configuration (a cluster run
directory), always cheap (one dict + one write per lifecycle incident,
never per request), and most valuable exactly when things crash.

Event ``event`` types are closed over :data:`EVENT_TYPES` —
``scripts/check_span_names.py`` lints emit call sites against it and
``docs/observability.md`` documents every type.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ObservabilityError
from repro.obs.metrics import metrics
from repro.obs.sinks import read_jsonl

#: Every lifecycle event type the codebase may emit, with a one-line
#: meaning. Emitting an uncatalogued type raises ``ValueError`` — add
#: the entry (and its docs row) first.
EVENT_TYPES: Dict[str, str] = {
    "cluster.started": "serving cluster came up (topology attrs)",
    "cluster.stopped": "serving cluster shut down",
    "replica.spawned": "supervisor spawned a replica process",
    "replica.healthy": "replica answered its health probe",
    "replica.heartbeat.missed": "replica failed one heartbeat probe",
    "replica.crash.detected": "supervisor declared a replica dead",
    "replica.respawned": "supervisor respawned a replica (one attempt)",
    "replica.restart.failed": "restart budget exhausted; replica abandoned",
    "replica.killed": "replica killed via the chaos hook",
    "replica.stopped": "replica stopped during orderly shutdown",
    "server.started": "replica HTTP server began serving",
    "server.drain.begin": "server stopped accepting; draining in-flight",
    "server.drain.end": "drain finished (attrs say clean or timed out)",
    "shard.evicted": "a cold shard was evicted under the byte budget",
    "breaker.opened": "a per-replica circuit breaker tripped open",
    "breaker.half_open": "an open breaker began probing (half-open)",
    "breaker.closed": "a probing breaker saw success and closed",
}


class EventJournal:
    """Append-only JSONL journal of lifecycle events.

    Thread-safe; one journal per writing process. Files open in append
    mode so a supervisor that outlives replica incarnations keeps one
    continuous log, and every line is flushed immediately so readers
    (and post-mortems) see at worst one torn tail line.

    ``emit`` after :meth:`close` is a silent no-op — shutdown races a
    drain thread's final events against the journal teardown, and
    dropping a late event beats crashing the exit path.
    """

    def __init__(self, path: str, source: Optional[str] = None,
                 clock=time.time) -> None:
        self.path = str(path)
        self.source = source
        self._clock = clock
        self._lock = threading.Lock()
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def emit(self, event: str, **attrs: Any) -> None:
        """Append one event record (validated against the catalogue)."""
        if event not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event!r}; add it to "
                "repro.obs.events.EVENT_TYPES (and the docs) first"
            )
        record: Dict[str, Any] = {
            "type": "event",
            "event": event,
            "ts": self._clock(),
            "pid": os.getpid(),
        }
        if self.source is not None:
            record["source"] = self.source
        record.update(attrs)
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
        metrics.inc("cluster.events.recorded")

    def close(self) -> None:
        """Close the underlying file; later emits become no-ops."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def read_events(path: str) -> List[Dict[str, Any]]:
    """Event records from one journal file (torn tail skipped)."""
    return [
        record for record in read_jsonl(path)
        if record.get("type") == "event"
    ]


def merge_event_logs(paths: Iterable[str]) -> List[Dict[str, Any]]:
    """Merge several journals into one timeline, ordered by wall clock.

    Wall clocks across processes on one host are close enough to order
    lifecycle events (seconds apart); ties keep per-file order. A
    journal that does not parse raises
    :class:`~repro.errors.ObservabilityError` naming it.
    """
    merged: List[Dict[str, Any]] = []
    for path in paths:
        try:
            merged.extend(read_events(path))
        except ValueError as exc:
            raise ObservabilityError(f"cannot parse {path!r}: {exc}") from exc
    merged.sort(key=lambda record: record.get("ts", 0.0))
    return merged
