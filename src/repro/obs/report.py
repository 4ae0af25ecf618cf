"""Human-readable rendering of manifests, traces and metrics dumps.

Backs ``python -m repro report <file>``: point it at a run manifest
(``*.manifest.json``), a raw span trace (``*.jsonl``) or a metrics dump
(the ``--metrics-out`` JSONL of typed counter/gauge/histogram records)
and it prints a plain-text summary — environment, per-phase timing
table, counters, gauges, histogram bucket tables, and (for monitored
runs) the estimator-quality block with its convergence-trajectory
sparkline. Pure string formatting, no dependencies beyond the standard
library.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.events import merge_event_logs
from repro.obs.manifest import MANIFEST_SCHEMA, load_manifest
from repro.obs.sinks import read_jsonl
from repro.obs.tracer import phase_timings


def _fmt_seconds(value: float) -> str:
    """Compact duration formatting for the timing table."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _timing_lines(phases: Dict[str, Dict[str, Any]]) -> List[str]:
    """Render a phase-timings dict as aligned table rows."""
    if not phases:
        return ["  (no spans recorded)"]
    width = max(len(name) for name in phases)
    lines = [
        f"  {'phase'.ljust(width)}  {'count':>6}  {'total':>10}  "
        f"{'mean':>10}  {'max':>10}  errors"
    ]
    ordered = sorted(
        phases.items(), key=lambda item: -item[1]["total_seconds"]
    )
    for name, entry in ordered:
        mean = entry["total_seconds"] / max(entry["count"], 1)
        lines.append(
            f"  {name.ljust(width)}  {entry['count']:>6}  "
            f"{_fmt_seconds(entry['total_seconds']):>10}  "
            f"{_fmt_seconds(mean):>10}  "
            f"{_fmt_seconds(entry['max_seconds']):>10}  "
            f"{entry['errors']}"
        )
    return lines


#: Glyph ramp for text sparklines, lowest to highest.
SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(values: List[float]) -> str:
    """Render ``values`` as a fixed-height unicode sparkline."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return SPARK_GLYPHS[0] * len(values)
    span = hi - lo
    top = len(SPARK_GLYPHS) - 1
    return "".join(
        SPARK_GLYPHS[min(top, int((v - lo) / span * top + 0.5))]
        for v in values
    )


def _fmt_edge(value: Any) -> str:
    """Bucket-edge label: integral edges print without the .0."""
    number = float(value)
    if number == int(number):
        return str(int(number))
    return f"{number:g}"


def _histogram_lines(name: str, hist: Dict[str, Any]) -> List[str]:
    """Render one histogram as a per-bucket table with a bar column."""
    count = hist.get("count", 0)
    total = hist.get("sum", 0.0)
    mean = total / count if count else 0.0
    lines = [f"  {name}: count={count} sum={total:.6g} mean={mean:.6g}"]
    edges = list(hist.get("buckets") or [])
    counts = list(hist.get("counts") or [])
    if not edges or not counts or not count:
        return lines
    labels = [f"<= {_fmt_edge(edge)}" for edge in edges]
    if len(counts) > len(edges):
        labels.append(f"> {_fmt_edge(edges[-1])}")
    width = max(len(label) for label in labels)
    peak = max(counts)
    for label, bucket_count in zip(labels, counts):
        bar = "█" * round(bucket_count / peak * 20) if peak else ""
        lines.append(
            f"    {label.rjust(width)}  {bucket_count:>8}  {bar}"
        )
    return lines


def _metrics_lines(snapshot: Dict[str, Any]) -> List[str]:
    """Render a metrics snapshot (counters/gauges/histograms)."""
    lines: List[str] = []
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name} = {counters[name]}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name} = {gauges[name]}")
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            lines.extend(_histogram_lines(name, histograms[name]))
    if not lines:
        lines.append("(no metrics recorded)")
    return lines


def _estimator_lines(block: Dict[str, Any]) -> List[str]:
    """Render a manifest ``estimator`` block (ConvergenceMonitor
    summary): final statistics, the ĉ(S)-vs-samples trajectory as a
    sparkline plus table, the most-activated communities and the pool
    composition line."""
    lines = ["estimator:"]
    mean = block.get("mean")
    halfwidth = block.get("halfwidth")
    relative = block.get("relative_width")
    parts = []
    if mean is not None:
        parts.append(f"ĉ(S) = {mean:.6g}")
    if halfwidth is not None:
        parts.append(f"± {halfwidth:.4g}")
    if relative is not None:
        parts.append(f"(relative width {relative:.4g})")
    if parts:
        lines.append("  " + " ".join(parts))
    criterion = block.get("criterion")
    status = "converged" if block.get("converged") else "not converged"
    if criterion:
        lines.append(
            f"  stopping rule: relative width <= {criterion.get('ci_width')} "
            f"after >= {criterion.get('min_samples')} samples — {status}"
        )
    lines.append(
        f"  samples used: {block.get('samples', 0)} over "
        f"{block.get('stages', 0)} stage(s)"
    )
    trajectory = block.get("trajectory") or []
    if trajectory:
        estimates = [point.get("estimate", 0.0) for point in trajectory]
        lines.append(f"  trajectory: {_sparkline(estimates)}")
        lines.append(
            f"    {'samples':>10}  {'ĉ(S)':>12}  {'halfwidth':>10}  "
            f"{'rel.width':>10}"
        )
        for point in trajectory:
            rel = point.get("relative_width")
            lines.append(
                f"    {point.get('samples', 0):>10}  "
                f"{point.get('estimate', 0.0):>12.6g}  "
                f"{point.get('halfwidth', 0.0):>10.4g}  "
                f"{(f'{rel:.4g}' if rel is not None else '—'):>10}"
            )
    trials = block.get("estimate_trials")
    if trials:
        lines.append(
            f"  cross-check trials: {trials.get('count', 0)} "
            f"(mean {trials.get('mean', 0.0):.4g}, "
            f"std {trials.get('std', 0.0):.4g})"
        )
    communities = block.get("communities") or {}
    if communities:
        ranked = sorted(
            communities.items(),
            key=lambda item: -item[1].get("rate", 0.0),
        )[:5]
        rendered = ", ".join(
            f"{index}: {entry.get('rate', 0.0):.3f} "
            f"({entry.get('influenced', 0)}/{entry.get('seen', 0)})"
            for index, entry in ranked
        )
        lines.append(f"  top community activation: {rendered}")
    pool = block.get("pool") or {}
    if pool:
        lines.append(
            f"  pool: {pool.get('samples', 0)} samples, "
            f"~{pool.get('bytes', 0)} bytes"
        )
    return lines


def render_manifest(manifest: Dict[str, Any]) -> str:
    """Render a loaded manifest document as a plain-text report."""
    env = manifest.get("environment") or {}
    lines = [
        f"run {manifest.get('run_id', '?')} — "
        f"command: {manifest.get('command', '?')}",
        f"created: {manifest.get('created_at', '?')}",
        f"config hash: {manifest.get('config_hash', '?')}",
        "environment:",
        f"  git: {env.get('git_sha') or 'unknown'}"
        + (" (dirty)" if env.get("git_dirty") else ""),
        f"  python: {env.get('python', '?')} "
        f"({env.get('implementation', '?')}) on "
        f"{env.get('platform', '?')}",
    ]
    seeds = manifest.get("seeds") or {}
    if seeds:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(seeds.items()))
        lines.append(f"seeds: {pairs}")
    artifacts = manifest.get("artifacts") or {}
    if artifacts:
        lines.append("artifacts:")
        for label in sorted(artifacts):
            lines.append(f"  {label}: {artifacts[label]}")
    lines.append("phase timings:")
    lines.extend(_timing_lines(manifest.get("phase_timings") or {}))
    lines.extend(_metrics_lines(manifest.get("metrics") or {}))
    estimator = manifest.get("estimator")
    if estimator:
        lines.extend(_estimator_lines(estimator))
    return "\n".join(lines)


def render_trace(records: List[Dict[str, Any]]) -> str:
    """Render raw span records (a trace JSONL) as a timing report."""
    spans = [r for r in records if r.get("type") == "span"]
    lines = [f"trace: {len(spans)} spans", "phase timings:"]
    lines.extend(_timing_lines(phase_timings(spans)))
    return "\n".join(lines)


_METRIC_RECORD_TYPES = {"counter", "gauge", "histogram"}


def render_metrics(records: List[Dict[str, Any]]) -> str:
    """Render a metrics dump (the ``--metrics-out`` JSONL of typed
    counter/gauge/histogram records, or a raw snapshot dict) including
    per-bucket histogram tables."""
    if isinstance(records, dict):
        snapshot: Dict[str, Any] = records
    else:
        snapshot = {"counters": {}, "gauges": {}, "histograms": {}}
        for record in records:
            kind = record.get("type")
            name = record.get("name", "?")
            if kind == "counter":
                snapshot["counters"][name] = record.get("value")
            elif kind == "gauge":
                snapshot["gauges"][name] = record.get("value")
            elif kind == "histogram":
                snapshot["histograms"][name] = {
                    key: record.get(key)
                    for key in ("buckets", "counts", "count", "sum")
                }
    total = (
        len(snapshot["counters"])
        + len(snapshot["gauges"])
        + len(snapshot["histograms"])
    )
    lines = [f"metrics: {total} series"]
    lines.extend(_metrics_lines(snapshot))
    return "\n".join(lines)


#: Event keys that are envelope, not payload — everything else renders
#: as ``key=value`` detail on the timeline line.
_EVENT_ENVELOPE_KEYS = {"type", "event", "ts", "pid", "source"}

#: Cap on rendered timeline lines (a long chaos soak can log thousands
#: of heartbeat misses; the cap keeps reports terminal-sized).
_TIMELINE_LIMIT = 200


def _event_lines(events: List[Dict[str, Any]]) -> List[str]:
    """Render merged event records as a relative-time timeline."""
    if not events:
        return ["  (no events recorded)"]
    t0 = events[0].get("ts", 0.0)
    source_width = max(
        (len(str(e.get("source", ""))) for e in events), default=0
    )
    lines = []
    shown = events[:_TIMELINE_LIMIT]
    for event in shown:
        offset = float(event.get("ts", t0)) - t0
        detail = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in _EVENT_ENVELOPE_KEYS
        )
        source = str(event.get("source", "")).ljust(source_width)
        line = f"  +{offset:9.3f}s  {source}  {event.get('event', '?')}"
        if detail:
            line += f"  {detail}"
        lines.append(line)
    if len(events) > len(shown):
        lines.append(f"  ... {len(events) - len(shown)} more events")
    return lines


def _event_summary_lines(events: List[Dict[str, Any]]) -> List[str]:
    """One-line incident summary: restarts, breaker trips, misses."""
    by_type: Dict[str, int] = {}
    for event in events:
        name = event.get("event", "?")
        by_type[name] = by_type.get(name, 0) + 1
    interesting = [
        ("replica.killed", "kills"),
        ("replica.respawned", "restarts"),
        ("replica.heartbeat.missed", "heartbeat misses"),
        ("breaker.opened", "breakers opened"),
        ("shard.evicted", "evictions"),
        ("server.drain.begin", "drains"),
    ]
    parts = [
        f"{label}={by_type[name]}"
        for name, label in interesting
        if by_type.get(name)
    ]
    if not parts:
        return []
    return [f"incidents: {', '.join(parts)}"]


def _trace_roots(
    spans: List[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Root span per trace id (the request-scoped exemplar anchors).

    A root is a span whose parent is absent from its own trace — the
    router's ``router/solve`` span normally, or the replica's
    ``serving/request`` when only replica traces survived.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id:
            by_trace.setdefault(trace_id, []).append(span)
    roots = []
    for trace_id, members in by_trace.items():
        ids = {span.get("span_id") for span in members}
        candidates = [
            span for span in members if span.get("parent_id") not in ids
        ]
        if not candidates:
            continue
        root = max(
            candidates, key=lambda s: float(s.get("duration_seconds", 0.0))
        )
        root = dict(root)
        root["_trace_spans"] = sorted(
            members,
            key=lambda s: -float(s.get("duration_seconds", 0.0)),
        )
        roots.append(root)
    return roots


def _slowest_trace_lines(
    spans: List[Dict[str, Any]], limit: int = 5
) -> List[str]:
    """Render the slowest end-to-end traces with per-span breakdowns."""
    roots = sorted(
        _trace_roots(spans),
        key=lambda s: -float(s.get("duration_seconds", 0.0)),
    )[:limit]
    if not roots:
        return ["  (no request-scoped traces recorded)"]
    lines = []
    for root in roots:
        lines.append(
            f"  {root.get('trace_id')}  "
            f"{_fmt_seconds(float(root.get('duration_seconds', 0.0)))}  "
            f"root={root.get('name')} status={root.get('status', '?')}"
        )
        for span in root["_trace_spans"][:8]:
            if span.get("span_id") == root.get("span_id"):
                continue
            lines.append(
                f"    {_fmt_seconds(float(span.get('duration_seconds', 0.0))):>10}"
                f"  {span.get('name')}"
                + (
                    f" [{span.get('status')}]"
                    if span.get("status") != "ok"
                    else ""
                )
            )
    return lines


def _cluster_topology_lines(manifest: Optional[Dict[str, Any]]) -> List[str]:
    """Render the cluster topology block from the cluster manifest."""
    if not manifest:
        return ["  (no cluster manifest found)"]
    config = manifest.get("config") or {}
    lines = [
        f"  started: {manifest.get('created_at', '?')}  "
        f"router: {config.get('router_host', '?')}:"
        f"{config.get('router_port', '?')}"
    ]
    for replica in config.get("replicas") or []:
        scenarios = ",".join(replica.get("scenarios") or [])
        lines.append(
            f"  replica {replica.get('replica_id', '?')}: "
            f"port={replica.get('port', '?')} "
            f"workers={replica.get('workers', '?')} "
            f"scenarios=[{scenarios}]"
        )
    return lines


def _parsed(path: str, read: Callable[[str], Any]) -> Any:
    """``read(path)``; a file that does not parse raises
    :class:`~repro.errors.ObservabilityError` naming it."""
    try:
        return read(path)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ObservabilityError(f"cannot parse {path!r}: {exc}") from exc


def _read_object(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ObservabilityError(f"{path!r} holds no JSON object")
    return document


def render_cluster_report(rundir: str) -> str:
    """Stitch a cluster run directory into one rendered report.

    Backs ``python -m repro report --cluster RUNDIR``. Reads whatever
    the run left behind — ``cluster.manifest.json`` (topology),
    ``events.jsonl`` plus per-replica ``*.events.jsonl`` (lifecycle
    timeline), ``*.trace.jsonl`` from the router and every replica
    incarnation (phase timings and slowest-trace exemplars), and
    ``cluster.metrics.json`` (the final fleet aggregation) — and
    tolerates any subset being absent, since a SIGKILL'd replica never
    writes its final dumps. Raises
    :class:`~repro.errors.ObservabilityError` when the directory has no
    cluster artifacts at all, or naming the file when one of them does
    not parse or holds something other than JSON objects.
    """
    if not os.path.isdir(rundir):
        raise ObservabilityError(f"{rundir!r} is not a run directory")
    manifest_path = os.path.join(rundir, "cluster.manifest.json")
    manifest = None
    if os.path.exists(manifest_path):
        manifest = _parsed(manifest_path, load_manifest)
    event_paths = sorted(glob.glob(os.path.join(rundir, "*.events.jsonl")))
    top_journal = os.path.join(rundir, "events.jsonl")
    if os.path.exists(top_journal):
        event_paths.insert(0, top_journal)
    events = merge_event_logs(event_paths)
    trace_paths = sorted(glob.glob(os.path.join(rundir, "*.trace.jsonl")))
    spans: List[Dict[str, Any]] = []
    for path in trace_paths:
        spans.extend(
            r for r in _parsed(path, read_jsonl) if r.get("type") == "span"
        )
    metrics_path = os.path.join(rundir, "cluster.metrics.json")
    aggregation = None
    if os.path.exists(metrics_path):
        aggregation = _parsed(metrics_path, _read_object)
        snapshot = aggregation.get("snapshot") or aggregation
        replicas = aggregation.get("replicas") or {}
        for key, block in (("snapshot", snapshot), ("replicas", replicas)):
            if not isinstance(block, dict):
                raise ObservabilityError(
                    f"{metrics_path!r} holds no JSON object under {key!r}"
                )
    if manifest is None and not events and not spans and aggregation is None:
        raise ObservabilityError(
            f"{rundir!r} contains no cluster observability artifacts "
            "(expected cluster.manifest.json, events.jsonl, *.trace.jsonl "
            "or cluster.metrics.json)"
        )
    lines = [f"cluster run: {rundir}", "topology:"]
    lines.extend(_cluster_topology_lines(manifest))
    lines.extend(_event_summary_lines(events))
    lines.append(f"timeline: {len(events)} events")
    lines.extend(_event_lines(events))
    lines.append(
        f"phase timings: {len(spans)} spans from "
        f"{len(trace_paths)} trace file(s)"
    )
    lines.extend(_timing_lines(phase_timings(spans)))
    lines.append("slowest traces:")
    lines.extend(_slowest_trace_lines(spans))
    if aggregation is not None:
        lines.append(
            f"fleet metrics (aggregated over {len(replicas)} replica "
            f"scrape(s)):"
        )
        lines.extend(_metrics_lines(snapshot))
    return "\n".join(lines)


def render_report(path: str) -> str:
    """Render whatever observability artifact lives at ``path``.

    Detects the format: a JSON document stamped ``repro-run-manifest/1``
    is rendered as a manifest; JSONL whose records are all typed
    ``counter``/``gauge``/``histogram`` entries is rendered as a metrics
    dump (bucket tables included); any other parseable JSONL is rendered
    as a span trace. Raises
    :class:`~repro.errors.ObservabilityError` when the file is none of
    those.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            head = handle.read(4096)
    except OSError as exc:
        raise ObservabilityError(f"cannot read {path!r}: {exc}") from exc
    # A manifest is a single pretty-printed JSON document (its schema
    # stamp may sit past any fixed head-read once large blocks sort
    # before "schema"); JSONL artifacts are one object per line, so a
    # bare "{" first line is unambiguous.
    if MANIFEST_SCHEMA in head or head.lstrip().startswith("{\n"):
        try:
            return render_manifest(load_manifest(path))
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path!r} looks like a manifest but is not valid JSON: "
                f"{exc}"
            ) from exc
    try:
        records = read_jsonl(path)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"{path!r} is neither a run manifest, a metrics dump, nor "
            f"a JSONL trace"
        ) from exc
    if records and all(
        r.get("type") in _METRIC_RECORD_TYPES for r in records
    ):
        return render_metrics(records)
    return render_trace(records)
