"""Per-run manifests: what ran, on what code, with which seeds.

A manifest is one JSON document that makes a run *attributable* after
the fact: git SHA and platform (where), RNG seeds and a configuration
hash (what), phase timings aggregated from the trace and the final
metrics snapshot (how it went). It is written atomically
(:func:`~repro.obs.sinks.write_atomic`, like
:class:`~repro.experiments.checkpoint.CheckpointStore`), so it can sit
safely alongside checkpoint artifacts.

Schema (``repro-run-manifest/1``)::

    {
      "schema": "repro-run-manifest/1",
      "run_id":        unique hex id for this run,
      "created_at":    UTC ISO-8601 stamp,
      "command":       logical entry point ("solve", "compare", ...),
      "config":        JSON-safe dict of the run's parameters,
      "config_hash":   sha256 of the canonicalised config,
      "seeds":         the RNG seeds the run was launched with,
      "environment":   environment_fingerprint() block,
      "phase_timings": {span name: {count, total_seconds, ...}},
      "metrics":       metrics registry snapshot,
      "artifacts":     {label: path} of files the run produced,
      "estimator":     ConvergenceMonitor.summary() block — final
                       mean/CI/sample count, ĉ(S) trajectory and pool
                       composition (present only when the run attached
                       a convergence monitor),
    }
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from typing import Any, Dict, Iterable, Optional

from repro.errors import ObservabilityError
from repro.obs.environment import environment_fingerprint
from repro.obs.metrics import metrics
from repro.obs.sinks import write_atomic
from repro.obs.tracer import phase_timings, trace

#: Manifest schema identifier (bump when the document shape changes).
MANIFEST_SCHEMA = "repro-run-manifest/1"


def config_hash(config: Dict[str, Any]) -> str:
    """Order-independent sha256 of a JSON-safe config dict.

    Two runs with the same parameters hash identically regardless of
    dict insertion order; non-JSON values are stringified.
    """
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    command: str,
    config: Optional[Dict[str, Any]] = None,
    seeds: Optional[Dict[str, Any]] = None,
    spans: Optional[Iterable[Dict[str, Any]]] = None,
    metrics_snapshot: Optional[Dict[str, Any]] = None,
    artifacts: Optional[Dict[str, str]] = None,
    estimator: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a manifest document for the current (or a finished) run.

    ``spans`` and ``metrics_snapshot`` default to the live tracer /
    registry state, so calling this at the end of an instrumented run
    captures everything; an already-closed
    :class:`~repro.obs.session.Recorder` passes its retained copies.
    ``estimator`` is a
    :meth:`~repro.obs.diagnostics.ConvergenceMonitor.summary` dict
    (``result.metadata["estimator"]`` from a monitored ``solve_imc``);
    the key is included only when provided, so unmonitored manifests
    keep their PR-4 shape.
    """
    config = dict(config or {})
    span_records = list(spans) if spans is not None else trace.snapshot()
    document = {
        "schema": MANIFEST_SCHEMA,
        "run_id": uuid.uuid4().hex[:16],
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": command,
        "config": config,
        "config_hash": config_hash(config),
        "seeds": dict(seeds or {}),
        "environment": environment_fingerprint(),
        "phase_timings": phase_timings(span_records),
        "metrics": (
            metrics_snapshot
            if metrics_snapshot is not None
            else metrics.snapshot()
        ),
        "artifacts": dict(artifacts or {}),
    }
    if estimator is not None:
        document["estimator"] = dict(estimator)
    return document


def write_manifest(manifest: Dict[str, Any], path: str) -> str:
    """Write ``manifest`` to ``path`` atomically
    (:func:`~repro.obs.sinks.write_atomic`); returns ``path``."""
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str)
    return write_atomic(path, text + "\n")


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest back, validating its schema stamp."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("schema") != MANIFEST_SCHEMA:
        raise ObservabilityError(
            f"{path!r} is not a {MANIFEST_SCHEMA!r} manifest "
            f"(schema: {document.get('schema') if isinstance(document, dict) else None!r})"
        )
    return document


def manifest_path_for(artifact_path: str) -> str:
    """Conventional manifest path next to an artifact.

    ``run.jsonl`` → ``run.manifest.json``; extension-less paths get
    ``.manifest.json`` appended. Used by the CLI (``--trace-out``) and
    the checkpointed experiment drivers.
    """
    base, _ = os.path.splitext(os.fspath(artifact_path))
    return f"{base}.manifest.json"
