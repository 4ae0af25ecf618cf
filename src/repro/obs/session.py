"""Session lifecycle: turn instrumentation on, collect, flush, off.

The rest of the package is passive — spans and metrics are recorded
only while a session is active. Typical use (what the CLI's
``--trace-out``/``--metrics-out`` flags do)::

    from repro import obs

    with obs.session(trace_out="run.jsonl") as recorder:
        result = solve_imc(...)
    manifest = obs.build_manifest(
        "solve", config={...}, seeds={"seed": 7},
        spans=recorder.spans, metrics_snapshot=recorder.metrics,
    )
    obs.write_manifest(manifest, "run.manifest.json")

Only one session may be active per process (nested sessions raise
:class:`~repro.errors.ObservabilityError`); parallel-sampling workers
use :meth:`~repro.obs.tracer.Tracer.capture` instead, which composes
with any master-side session.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import ObservabilityError
from repro.obs import _gate
from repro.obs.metrics import metrics
from repro.obs.sinks import JsonlSink, write_jsonl
from repro.obs.tracer import phase_timings, trace


class Recorder:
    """Handle for one instrumentation session.

    While the session is open it mostly just names the output paths;
    when it closes, :attr:`spans` and :attr:`metrics` retain the
    collected data (the global tracer/registry are reset so the next
    session starts clean).
    """

    def __init__(self, trace_path: Optional[str],
                 metrics_path: Optional[str]) -> None:
        #: Path the span JSONL streams to (``None`` = memory only).
        self.trace_path = trace_path
        #: Path the metrics snapshot is dumped to at close.
        self.metrics_path = metrics_path
        #: Finished-span records, retained at session close.
        self.spans: List[Dict[str, Any]] = []
        #: Metrics registry snapshot, retained at session close.
        self.metrics: Dict[str, Any] = {}
        #: Wall-clock duration of the session in seconds.
        self.duration_seconds: float = 0.0

    def phase_timings(self) -> Dict[str, Dict[str, Any]]:
        """Per-span-name timing aggregate of the retained spans."""
        return phase_timings(self.spans)


_CURRENT: Optional[Recorder] = None
_SINK: Optional[JsonlSink] = None
_STARTED: float = 0.0


def enabled() -> bool:
    """Whether an instrumentation session is currently active."""
    return _gate.active


def enable(trace_out: Optional[str] = None,
           metrics_out: Optional[str] = None) -> Recorder:
    """Start collecting spans and metrics; returns the session's
    :class:`Recorder`.

    ``trace_out`` streams finished spans to a JSONL file as they
    complete; ``metrics_out`` dumps the metrics snapshot (atomically)
    as typed JSONL records when the session ends, which
    ``python -m repro report`` renders. Both paths optional — with
    neither, data is only held in memory for :func:`disable` to return.
    """
    global _CURRENT, _SINK, _STARTED
    if _CURRENT is not None:
        raise ObservabilityError(
            "an instrumentation session is already active; "
            "sessions do not nest"
        )
    trace.reset()
    metrics.reset()
    _SINK = JsonlSink(trace_out) if trace_out else None
    if _SINK is not None:
        trace.attach_sink(_SINK)
    _CURRENT = Recorder(trace_out, metrics_out)
    _STARTED = time.perf_counter()
    _gate.active = True
    return _CURRENT


def disable() -> Recorder:
    """End the active session; returns its :class:`Recorder` with the
    collected spans and metrics retained.

    Flushes/closes the trace sink, writes the metrics JSONL (if
    requested), then resets the global tracer and registry.
    """
    global _CURRENT, _SINK
    if _CURRENT is None:
        raise ObservabilityError("no instrumentation session is active")
    recorder = _CURRENT
    _gate.active = False
    recorder.duration_seconds = time.perf_counter() - _STARTED
    recorder.spans = trace.snapshot()
    recorder.metrics = metrics.snapshot()
    trace.detach_sink()
    if _SINK is not None:
        _SINK.close()
        _SINK = None
    if recorder.metrics_path:
        write_jsonl(recorder.metrics_path, _metric_records(recorder.metrics))
    trace.reset()
    metrics.reset()
    _CURRENT = None
    return recorder


def _metric_records(snapshot: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Flatten a registry snapshot into typed JSONL records."""
    records: List[Dict[str, Any]] = []
    for name in sorted(snapshot.get("counters", {})):
        records.append({
            "type": "counter", "name": name,
            "value": snapshot["counters"][name],
        })
    for name in sorted(snapshot.get("gauges", {})):
        records.append({
            "type": "gauge", "name": name,
            "value": snapshot["gauges"][name],
        })
    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        records.append({"type": "histogram", "name": name, **hist})
    return records


@contextmanager
def session(trace_out: Optional[str] = None,
            metrics_out: Optional[str] = None) -> Iterator[Recorder]:
    """Context-manager form of :func:`enable`/:func:`disable`.

    The yielded :class:`Recorder` is fully populated only after the
    block exits (the session closes even when the block raises, so a
    failing run still leaves its trace on disk).
    """
    recorder = enable(trace_out=trace_out, metrics_out=metrics_out)
    try:
        yield recorder
    finally:
        disable()
