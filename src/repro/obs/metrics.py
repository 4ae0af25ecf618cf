"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Names are dotted paths grouped by subsystem (see
``docs/observability.md`` for the registry of names this package
emits), e.g. ``ric.samples.generated``, ``estimator.adaptive.stops``,
``estimator.samples.used``, ``serving.request.seconds``.

All mutators are no-ops while instrumentation is disabled (the
default), so call sites can stay in place permanently. Histograms use
*fixed* bucket edges chosen at first observation — cumulative-style
counts per upper edge plus an overflow bucket — so two runs of the same
workload produce directly comparable distributions.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.obs import _gate

#: Default histogram bucket upper edges, in seconds — spans the range
#: from sub-millisecond kernel calls to minutes-long experiment suites.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0,
)

#: Catalogue of every metric name the package emits, mapped to a
#: one-line description. ``scripts/check_metric_names.py`` greps ``src/``
#: for ``inc(``/``set_gauge(``/``observe(`` call sites and fails when a
#: literal name is missing here or when a name here has no reader (a
#: test, benchmark, example, perfbench, the report or the fleet SLO
#: derivation), and the docs-consistency tests tie this dict to the
#: tables in ``docs/observability.md`` in both directions — so the
#: dict, the code and the docs cannot drift apart. Add the entry
#: *first* when introducing a metric.
CATALOG: Dict[str, str] = {
    # counters
    "ric.samples.generated": "RIC samples generated (every sample_many)",
    "estimator.adaptive.stops": "adaptive early stops (CI criterion met)",
    "serving.requests.total": "solve requests answered by the shard server",
    "serving.requests.failed": "solve requests answered with an error",
    "router.requests.total": "solve requests accepted by the cluster router",
    "router.requests.failed": "router requests answered with an error",
    "router.trace.minted": "trace ids minted at the router front door",
    "router.trace.adopted": "inbound trace contexts adopted by the router",
    "serving.trace.adopted": "inbound trace contexts adopted by a replica",
    "cluster.events.recorded": "lifecycle events appended to an event journal",
    # gauges
    "pool.bytes": "approximate pool memory footprint in bytes",
    "estimator.samples.used": "pool samples behind the latest ĉ(S)",
    "serving.shards.active": "warm shards currently resident",
    "cluster.slo.p50.seconds": "fleet p50 request latency from merged histograms",
    "cluster.slo.p95.seconds": "fleet p95 request latency from merged histograms",
    "cluster.slo.p99.seconds": "fleet p99 request latency from merged histograms",
    "cluster.slo.error.rate": "fleet error rate (failed / accepted requests)",
    # histograms
    "pool.reach.histogram": "reach-set size distribution",
    "pool.sources.histogram": "samples-per-source-community distribution",
    "serving.request.seconds": "shard-server solve request latency",
    "router.request.seconds": "router end-to-end solve request latency",
}


class MetricsRegistry:
    """Thread-safe registry; the module exposes one instance as
    :data:`repro.obs.metrics`.

    Counters only go up (per run), gauges hold the last value set, and
    histograms count observations into fixed buckets. :meth:`snapshot`
    returns a JSON-ready dict; :meth:`reset` clears everything for the
    next run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> (edges, per-bucket counts [+1 overflow], total, sum)
        self._histograms: Dict[str, Dict[str, Any]] = {}

    # -- mutators (no-ops while disabled) ------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` (default 1) to counter ``name``.

        Counters are monotone: a negative ``value`` raises
        ``ValueError`` (use a gauge for values that go down). The gate
        is checked first, so a buggy negative increment on a disabled
        registry stays a silent no-op — exactly as cheap as every other
        disabled mutator — and only trips once instrumentation is on.
        """
        if not _gate.active:
            return
        if value < 0:
            raise ValueError(
                f"counter {name!r} cannot be decremented (got {value}); "
                "counters are monotone — use set_gauge for values that "
                "go down"
            )
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not _gate.active:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        """Count ``value`` into histogram ``name``.

        ``buckets`` (ascending upper edges) is honoured only on the
        histogram's *first* observation; later calls reuse the fixed
        edges so the distribution stays comparable within the run.

        Edges are *upper-inclusive*: a value exactly equal to an edge
        counts in that edge's bucket (Prometheus ``le`` semantics), and
        anything above the last edge lands in the overflow bucket.
        """
        if not _gate.active:
            return
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                edges = tuple(buckets) if buckets else DEFAULT_TIME_BUCKETS
                if list(edges) != sorted(edges):
                    raise ValueError(
                        f"histogram {name!r} bucket edges must ascend: "
                        f"{edges}"
                    )
                hist = self._histograms[name] = {
                    "buckets": edges,
                    "counts": [0] * (len(edges) + 1),
                    "count": 0,
                    "sum": 0.0,
                }
            hist["counts"][bisect.bisect_left(hist["buckets"], value)] += 1
            hist["count"] += 1
            hist["sum"] += value

    # -- aggregation ---------------------------------------------------

    def merge_snapshot(self, snapshot: Dict[str, Any],
                       source: Optional[str] = None) -> None:
        """Merge a foreign :meth:`snapshot` document into this registry.

        This is *explicit aggregation* — unlike the mutators it works
        regardless of the instrumentation gate, because the fleet
        aggregator merges scraped replica snapshots into a private
        registry, not the ambient one.

        Merge semantics (the fleet contract, see
        ``docs/observability.md``):

        - **counters** are summed; a negative foreign value is rejected
          with ``ValueError`` (counters are monotone everywhere).
        - **gauges never sum** — summing "last observed value" metrics
          across replicas is meaningless. With ``source=None`` the
          foreign value overwrites (last write wins); with a ``source``
          the gauge is kept apart under the decorated name
          ``name{replica="<source>"}``, which renders as a proper
          Prometheus label.
        - **histograms** merge bucket-wise, which is only sound when
          both sides binned with identical edges — a mismatch (or a
          malformed counts vector) raises ``ValueError`` loudly rather
          than producing a silently wrong distribution.

        Validation runs before any mutation, so a rejected snapshot
        leaves the registry untouched.
        """
        counters = snapshot.get("counters") or {}
        gauges = snapshot.get("gauges") or {}
        histograms = snapshot.get("histograms") or {}
        for name, value in counters.items():
            if value < 0:
                raise ValueError(
                    f"cannot merge negative counter {name!r} "
                    f"(got {value}); counters are monotone"
                )
        with self._lock:
            for name, foreign in histograms.items():
                edges = tuple(foreign.get("buckets", ()))
                counts = list(foreign.get("counts", ()))
                if len(counts) != len(edges) + 1:
                    raise ValueError(
                        f"histogram {name!r} is malformed: {len(edges)} "
                        f"edges need {len(edges) + 1} bucket counts, "
                        f"got {len(counts)}"
                    )
                mine = self._histograms.get(name)
                if mine is not None and tuple(mine["buckets"]) != edges:
                    raise ValueError(
                        f"histogram {name!r} bucket edges differ — "
                        f"mine {tuple(mine['buckets'])} vs foreign "
                        f"{edges}; bucket-wise merge would be meaningless"
                    )
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in gauges.items():
                key = name
                if source is not None:
                    key = f'{name}{{replica="{source}"}}'
                self._gauges[key] = value
            for name, foreign in histograms.items():
                edges = tuple(foreign["buckets"])
                counts = list(foreign["counts"])
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = {
                        "buckets": edges,
                        "counts": counts,
                        "count": int(foreign.get("count", sum(counts))),
                        "sum": float(foreign.get("sum", 0.0)),
                    }
                else:
                    mine["counts"] = [
                        a + b for a, b in zip(mine["counts"], counts)
                    ]
                    mine["count"] += int(foreign.get("count", sum(counts)))
                    mine["sum"] += float(foreign.get("sum", 0.0))

    # -- inspection ----------------------------------------------------

    def get_counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never touched)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready copy: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(hist["buckets"]),
                        "counts": list(hist["counts"]),
                        "count": hist["count"],
                        "sum": hist["sum"],
                    }
                    for name, hist in self._histograms.items()
                },
            }

    def reset(self) -> None:
        """Clear all counters, gauges and histograms."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def histogram_quantile(hist: Dict[str, Any], q: float) -> float:
    """Estimate the ``q``-quantile (0 ≤ q ≤ 1) of a snapshot histogram.

    Uses Prometheus-style linear interpolation inside the bucket that
    crosses the target rank; the first bucket interpolates from 0 and
    anything landing in the overflow bucket clamps to the last edge
    (the histogram carries no upper bound beyond it). Returns 0.0 for
    an empty histogram.
    """
    count = int(hist.get("count", 0))
    if count <= 0:
        return 0.0
    target = max(0.0, min(1.0, q)) * count
    cumulative = 0.0
    lower = 0.0
    edges = hist["buckets"]
    for edge, bucket_count in zip(edges, hist["counts"]):
        if bucket_count and cumulative + bucket_count >= target:
            fraction = (target - cumulative) / bucket_count
            return lower + (float(edge) - lower) * max(0.0, min(1.0, fraction))
        cumulative += bucket_count
        lower = float(edge)
    return float(edges[-1]) if edges else 0.0


def _prom_name(name: str, suffix: str = "") -> str:
    """Sanitize a dotted metric name for the Prometheus exposition
    format: dots and any other illegal characters become underscores."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized + suffix


def _prom_value(value: float) -> str:
    """Render a sample value; integers print without a trailing .0."""
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(snapshot: Dict[str, Any]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict in the Prometheus
    text exposition format (version 0.0.4).

    Counters gain the conventional ``_total`` suffix, gauges export
    as-is, and histograms expand into *cumulative* ``_bucket{le="..."}``
    series (plus the mandatory ``le="+Inf"`` bucket, ``_sum`` and
    ``_count``) — the registry's upper-inclusive buckets are already
    ``le``-compatible, so the only transformation is the running sum.
    Dotted names are sanitized (``pool.bytes`` → ``pool_bytes``) and
    ``# HELP``/``# TYPE`` headers are emitted per family, with HELP text
    drawn from :data:`CATALOG` when the name is catalogued. Output is
    sorted by family name so exports diff cleanly across runs.

    Gauge names decorated by :meth:`MetricsRegistry.merge_snapshot`
    (``name{replica="r0"}``) render as one family with per-replica
    labelled samples, sharing a single ``# TYPE`` header.
    """
    lines = []
    families = []
    for name, value in snapshot.get("counters", {}).items():
        families.append((name, "counter", value))
    for name, value in snapshot.get("gauges", {}).items():
        families.append((name, "gauge", value))
    for name, hist in snapshot.get("histograms", {}).items():
        families.append((name, "histogram", hist))
    previous_family = None
    for name, kind, value in sorted(
        families, key=lambda item: (item[0].partition("{")[0], item[0])
    ):
        base, _, label = name.partition("{")
        family = _prom_name(base, "_total" if kind == "counter" else "")
        if family != previous_family:
            help_text = CATALOG.get(base)
            if help_text:
                lines.append(f"# HELP {family} {help_text}")
            lines.append(f"# TYPE {family} {kind}")
            previous_family = family
        if kind == "histogram":
            cumulative = 0
            for edge, count in zip(value["buckets"], value["counts"]):
                cumulative += count
                lines.append(
                    f'{family}_bucket{{le="{_prom_value(edge)}"}} '
                    f"{cumulative}"
                )
            lines.append(
                f'{family}_bucket{{le="+Inf"}} {value["count"]}'
            )
            lines.append(f"{family}_sum {_prom_value(value['sum'])}")
            lines.append(f"{family}_count {value['count']}")
        else:
            sample = f"{family}{{{label}" if label else family
            lines.append(f"{sample} {_prom_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


#: The process-wide registry instance every instrumented module imports.
metrics = MetricsRegistry()
