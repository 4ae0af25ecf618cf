"""Always-on IMC serving layer.

A long-lived daemon that keeps *warm*, versioned RIC sample-pool shards
per (graph, community-scenario) key and answers seed-selection queries
over HTTP without re-sampling from scratch on every request:

- :mod:`repro.serving.scenarios` — frozen scenario specs (dataset,
  scale, threshold policy, model, seed, warm pool size) and instance
  construction;
- :mod:`repro.serving.shards` — :class:`WarmShard` (one pool + sampler
  + solve cache behind a lock) and :class:`ShardStore` (registry with
  hit/miss accounting and LRU eviction under a byte budget);
- :mod:`repro.serving.batching` — :class:`RequestBatcher`, which
  coalesces concurrent identical requests onto one solve;
- :mod:`repro.serving.server` — the :class:`ShardApp` request logic and
  the stdlib ``ThreadingHTTPServer`` front end
  (:func:`start_http_server` / :func:`run_server`), whose one HTTP
  handler serves both a replica's :class:`ShardApp` and the cluster's
  :class:`RouterApp`;
- :mod:`repro.serving.cluster` — the multi-replica deployment: a
  :class:`Supervisor` spawning/health-checking/restarting replica
  subprocesses and :class:`ServingCluster` pairing it with the router
  (``python -m repro cluster``);
- :mod:`repro.serving.router` — the cluster front door: rendezvous
  hashing of scenarios to replicas, per-replica circuit breakers,
  retry-with-failover;
- :mod:`repro.serving.loadgen` — the reusable load/chaos harness the
  serving benchmarks drive both deployments with;
- :mod:`repro.serving.fleet` — the fleet observability plane's metrics
  side: :class:`FleetMetricsAggregator` scrapes every replica's
  ``/metrics.json``, merges the snapshots and derives ``cluster.slo.*``
  gauges for the router's aggregated ``/metrics`` endpoint.

See ``docs/serving.md`` for endpoints, the shard lifecycle, the
eviction policy, the locking contract and the cluster topology.
"""

from repro.serving.batching import RequestBatcher
from repro.serving.cluster import (
    ClusterConfig,
    ServingCluster,
    Supervisor,
    run_cluster,
)
from repro.serving.fleet import FleetMetricsAggregator, derive_slo_gauges
from repro.serving.loadgen import LoadGenerator, LoadPhase, PhaseResult
from repro.serving.router import (
    CircuitBreaker,
    ReplicaEndpoint,
    RouterApp,
    assign_replica,
    rendezvous_order,
)
from repro.serving.scenarios import ScenarioSpec, build_instance, default_scenarios
from repro.serving.server import ShardApp, ShardHTTPServer, run_server, start_http_server
from repro.serving.shards import ShardStore, WarmShard

__all__ = [
    "CircuitBreaker",
    "ClusterConfig",
    "FleetMetricsAggregator",
    "LoadGenerator",
    "LoadPhase",
    "PhaseResult",
    "ReplicaEndpoint",
    "RequestBatcher",
    "RouterApp",
    "ScenarioSpec",
    "ServingCluster",
    "ShardApp",
    "ShardHTTPServer",
    "ShardStore",
    "Supervisor",
    "WarmShard",
    "assign_replica",
    "build_instance",
    "default_scenarios",
    "derive_slo_gauges",
    "rendezvous_order",
    "run_cluster",
    "run_server",
    "start_http_server",
]
