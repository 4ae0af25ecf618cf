"""Zero-dependency instrumentation: tracing, metrics, run manifests.

The package is dormant by default — every span, counter and gauge call
in the library is a near-free no-op until a session is opened. Open one
(via :func:`session`, :func:`enable`, or the CLI's ``--trace-out`` /
``--metrics-out`` flags) and the same call sites produce a structured
record of the run:

- **Spans** (:data:`trace`): nested, timed phases — sampling, solver
  arms, evaluation — streamed to JSONL as they finish.
- **Metrics** (:data:`metrics`): counters, gauges and fixed-bucket
  histograms for discrete events (samples generated, adaptive stops,
  request latencies).
- **Manifests** (:func:`build_manifest`): one JSON document per run
  binding git SHA, platform, RNG seeds, a config hash, phase timings
  and the metrics snapshot — written atomically alongside checkpoint /
  campaign artifacts.

See ``docs/observability.md`` for the span and metric name registry and
end-to-end examples.
"""

from repro.obs.environment import (
    environment_fingerprint,
    git_info,
    require_clean_tree,
    working_tree_dirty,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.diagnostics import (
    ActivationTracker,
    ConvergenceCriterion,
    ConvergenceMonitor,
    StreamingMoments,
    bernoulli_sample_variance,
    empirical_bernstein_halfwidth,
    normal_halfwidth,
    observe_pool,
    pool_composition,
    pool_memory_bytes,
)
from repro.obs.events import (
    EVENT_TYPES,
    EventJournal,
    merge_event_logs,
    read_events,
)
from repro.obs.metrics import (
    CATALOG,
    DEFAULT_TIME_BUCKETS,
    MetricsRegistry,
    histogram_quantile,
    metrics,
    to_prometheus_text,
)
from repro.obs.report import render_cluster_report, render_metrics, render_report
from repro.obs.session import Recorder, disable, enable, enabled, session
from repro.obs.sinks import JsonlSink, read_jsonl, write_jsonl
from repro.obs.tracer import (
    NOOP_SPAN,
    PARENT_HEADER,
    SPAN_CATALOG,
    TRACE_HEADER,
    Span,
    TraceContext,
    Tracer,
    new_trace_id,
    phase_timings,
    trace,
)

__all__ = [
    # tracer
    "trace",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "SPAN_CATALOG",
    "TraceContext",
    "TRACE_HEADER",
    "PARENT_HEADER",
    "new_trace_id",
    "phase_timings",
    # metrics
    "metrics",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "CATALOG",
    "to_prometheus_text",
    "histogram_quantile",
    # lifecycle events
    "EventJournal",
    "EVENT_TYPES",
    "read_events",
    "merge_event_logs",
    # estimator-quality diagnostics
    "StreamingMoments",
    "ActivationTracker",
    "ConvergenceCriterion",
    "ConvergenceMonitor",
    "normal_halfwidth",
    "empirical_bernstein_halfwidth",
    "bernoulli_sample_variance",
    "pool_composition",
    "pool_memory_bytes",
    "observe_pool",
    # sinks
    "JsonlSink",
    "write_jsonl",
    "read_jsonl",
    # session lifecycle
    "session",
    "enable",
    "disable",
    "enabled",
    "Recorder",
    # manifests
    "MANIFEST_SCHEMA",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "manifest_path_for",
    "config_hash",
    # environment
    "environment_fingerprint",
    "git_info",
    "working_tree_dirty",
    "require_clean_tree",
    # reporting
    "render_report",
    "render_metrics",
    "render_cluster_report",
]
