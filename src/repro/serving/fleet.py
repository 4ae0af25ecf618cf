"""Fleet metrics aggregation: scrape replicas, merge, derive SLO gauges.

Each replica process keeps its own ambient
:class:`~repro.obs.metrics.MetricsRegistry` and exposes it at
``GET /metrics.json`` (raw snapshot) and ``GET /metrics`` (Prometheus
text). The router's :class:`FleetMetricsAggregator` scrapes the JSON
form from every replica the supervisor reports, merges the snapshots
into one fleet view via
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot` — counters
summed, gauges kept apart under per-replica labels, fixed-bucket
histograms merged bucket-wise — and derives ``cluster.slo.*`` gauges
(p50/p95/p99 request latency, rolling error rate) from the merged
histograms. The router serves the result in both formats, so one scrape
of the front door sees the whole fleet.

Scrapes are synchronous but cached (``cache_seconds``), so a dashboard
polling ``/metrics`` every second costs one fleet sweep per second, not
one per poll. A replica that fails to answer is skipped and reported in
the aggregation document's ``scrape_failures`` — aggregation degrades,
it never throws because one replica is mid-restart.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry, histogram_quantile


def derive_slo_gauges(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Derive ``cluster.slo.*`` gauge values from a merged snapshot.

    Latency quantiles come from the merged ``router.request.seconds``
    histogram when the router observed traffic, else from the merged
    replica-side ``serving.request.seconds``; the error rate divides
    failed by accepted requests at the same layer. Returns only the
    gauges that are derivable — an idle fleet yields ``{}``.
    """
    slo: Dict[str, float] = {}
    histograms = snapshot.get("histograms") or {}
    hist = histograms.get("router.request.seconds")
    if not hist or not hist.get("count"):
        hist = histograms.get("serving.request.seconds")
    if hist and hist.get("count"):
        slo["cluster.slo.p50.seconds"] = histogram_quantile(hist, 0.50)
        slo["cluster.slo.p95.seconds"] = histogram_quantile(hist, 0.95)
        slo["cluster.slo.p99.seconds"] = histogram_quantile(hist, 0.99)
    counters = snapshot.get("counters") or {}
    total = counters.get("router.requests.total", 0)
    failed = counters.get("router.requests.failed", 0)
    if not total:
        total = counters.get("serving.requests.total", 0)
        failed = counters.get("serving.requests.failed", 0)
    if total:
        slo["cluster.slo.error.rate"] = failed / total
    return slo


def _publish_slo(slo: Dict[str, float]) -> None:
    """Mirror derived SLO gauges into the ambient registry.

    The aggregation document carries the values regardless; these
    gated set_gauge calls additionally make them visible to whatever
    session-level metrics dump the router process writes.
    """
    value = slo.get("cluster.slo.p50.seconds")
    if value is not None:
        metrics.set_gauge("cluster.slo.p50.seconds", value)
    value = slo.get("cluster.slo.p95.seconds")
    if value is not None:
        metrics.set_gauge("cluster.slo.p95.seconds", value)
    value = slo.get("cluster.slo.p99.seconds")
    if value is not None:
        metrics.set_gauge("cluster.slo.p99.seconds", value)
    value = slo.get("cluster.slo.error.rate")
    if value is not None:
        metrics.set_gauge("cluster.slo.error.rate", value)


class FleetMetricsAggregator:
    """Scrape-and-merge view over a set of replica endpoints.

    ``replicas`` is the same zero-argument endpoint supplier the router
    uses, so the aggregator always sweeps the supervisor's live
    topology. The router process's own ambient registry is merged in
    unlabelled (it is the "cluster" layer — ``router.*`` families),
    while each replica snapshot merges with ``source=replica_id`` so
    gauges stay distinguishable per replica.
    """

    def __init__(
        self,
        replicas: Callable[[], List[Any]],
        *,
        local_registry: Optional[MetricsRegistry] = None,
        scrape_timeout: float = 2.0,
        cache_seconds: float = 1.0,
    ) -> None:
        self.replicas = replicas
        self.scrape_timeout = scrape_timeout
        self.cache_seconds = cache_seconds
        self._local = local_registry if local_registry is not None else metrics
        self._lock = threading.Lock()
        self._last_scrape: Dict[str, float] = {}
        self._cached: Optional[Dict[str, Any]] = None
        self._cached_at = 0.0

    def scrape(self, endpoint: Any) -> Optional[Dict[str, Any]]:
        """One replica's ``/metrics.json`` snapshot, or ``None``."""
        conn = http.client.HTTPConnection(
            endpoint.host, endpoint.port, timeout=self.scrape_timeout
        )
        try:
            conn.request("GET", "/metrics.json")
            response = conn.getresponse()
            if response.status != 200:
                return None
            document = json.loads(response.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError):
            return None
        finally:
            conn.close()
        return document if isinstance(document, dict) else None

    def scrape_age(self, replica_id: str) -> Optional[float]:
        """Seconds since ``replica_id`` last answered a scrape."""
        with self._lock:
            stamp = self._last_scrape.get(replica_id)
        return None if stamp is None else time.monotonic() - stamp

    def aggregate(self, force: bool = False) -> Dict[str, Any]:
        """Sweep the fleet and return the aggregation document.

        ``{"snapshot": merged, "slo": derived, "replicas": {id:
        snapshot}, "scrape_failures": [ids], "scraped_at": wall}``.
        Served from cache when the last sweep is fresher than
        ``cache_seconds`` (``force=True`` bypasses).
        """
        with self._lock:
            fresh = (
                self._cached is not None
                and time.monotonic() - self._cached_at < self.cache_seconds
            )
            if fresh and not force:
                return self._cached
        merged = MetricsRegistry()
        merged.merge_snapshot(self._local.snapshot())
        per_replica: Dict[str, Dict[str, Any]] = {}
        failures: List[str] = []
        for endpoint in self.replicas():
            snapshot = self.scrape(endpoint)
            if snapshot is None:
                failures.append(endpoint.replica_id)
                continue
            merged.merge_snapshot(snapshot, source=endpoint.replica_id)
            per_replica[endpoint.replica_id] = snapshot
            with self._lock:
                self._last_scrape[endpoint.replica_id] = time.monotonic()
        snapshot = merged.snapshot()
        slo = derive_slo_gauges(snapshot)
        snapshot["gauges"].update(slo)
        _publish_slo(slo)
        document = {
            "snapshot": snapshot,
            "slo": slo,
            "replicas": per_replica,
            "scrape_failures": failures,
            "scraped_at": time.time(),
        }
        with self._lock:
            self._cached = document
            self._cached_at = time.monotonic()
        return document
