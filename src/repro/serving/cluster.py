"""Supervised multi-replica serving: spawn, health-check, restart.

:class:`Supervisor` runs N replicas of the PR-6 shard server
(:class:`~repro.serving.server.ShardApp`) as *subprocesses* on distinct
ports, each owning every scenario spec (cold until asked — the router's
rendezvous hashing means each scenario's traffic lands on one replica,
so each shard is *warm* in exactly one process while any replica can
serve any scenario after a failover cold-build). The supervisor

- health-checks replicas with periodic ``GET /healthz`` heartbeats and
  marks one unhealthy after ``heartbeat_failures`` consecutive misses
  (or the moment its process is found dead);
- restarts crashed replicas under bounded exponential backoff — the
  per-incident delay schedule is
  :meth:`repro.utils.retry.RetryPolicy.delay_for`, so restart pacing is
  deterministic and benchmarks can assert "back within the bound";
  every respawn is appended to :attr:`Supervisor.restart_log`;
- re-binds each replica to its *original* port on restart, so routing
  identity (and therefore shard placement) is stable across crashes.

:class:`ServingCluster` composes a supervisor with the
:mod:`repro.serving.router` front door into the one object the CLI and
benchmarks manage: ``start()``, serve, ``stop()`` (drain the router,
SIGTERM the replicas, reap). Replicas rebuilt after a kill regenerate
byte-identical pools — every seed is pinned by the
:class:`~repro.serving.scenarios.ScenarioSpec` — which is what makes
router-level failover and restart invisible to clients beyond latency.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ClusterError
from repro.obs.events import EventJournal
from repro.obs.manifest import build_manifest, write_manifest
from repro.serving.router import ReplicaEndpoint, RouterApp
from repro.serving.scenarios import ScenarioSpec
from repro.serving.server import ShardApp, ShardHTTPServer, start_http_server
from repro.serving.shards import ShardStore
from repro.utils.faults import FaultInjector
from repro.utils.retry import RetryPolicy

#: Default restart pacing: first respawn after ~0.25 s, doubling to a
#: 10 s ceiling, at most 5 respawn attempts per crash incident.
DEFAULT_RESTART_POLICY = RetryPolicy(
    max_attempts=6, base_delay=0.25, max_delay=10.0, jitter=0.25, seed=0
)


@dataclass(frozen=True)
class ClusterConfig:
    """Declarative description of a whole serving cluster.

    One frozen object the CLI, tests and benchmarks all build; the
    supervisor and router read their knobs from it, and every replica
    subprocess is spawned with it (it is picklable). ``instances``
    optionally carries pre-built ``(graph, communities)`` pairs so
    tests and benchmarks skip per-replica dataset builds.
    ``replica_ports`` pins replica ports explicitly (length must equal
    ``replicas``); left ``None``, the supervisor reserves ephemeral
    ports itself. ``fault_injector`` rides to the replicas (shard-level
    chaos); ``router_fault_injector`` stays in the router process
    (forwarding latency chaos).
    """

    scenarios: Dict[str, ScenarioSpec]
    instances: Optional[Dict[str, Tuple]] = None
    replicas: int = 3
    host: str = "127.0.0.1"
    router_port: int = 0
    replica_ports: Optional[Sequence[int]] = None
    workers: Optional[int] = None
    round_size: int = 256
    memory_budget_bytes: Optional[int] = None
    default_solver: str = "UBG"
    warm: bool = False
    restart_policy: RetryPolicy = DEFAULT_RESTART_POLICY
    heartbeat_interval: float = 0.5
    heartbeat_timeout: float = 2.0
    heartbeat_failures: int = 3
    startup_timeout: float = 60.0
    drain_timeout: float = 10.0
    breaker_threshold: int = 3
    breaker_reset_seconds: float = 1.0
    forward_timeout: float = 300.0
    sampler_retry: Optional[RetryPolicy] = None
    fault_injector: Optional[FaultInjector] = None
    router_fault_injector: Optional[FaultInjector] = None
    #: When set, the cluster persists its observability artifacts here:
    #: ``events.jsonl`` (cluster/supervisor lifecycle), per-replica
    #: event and trace/metrics files, ``cluster.manifest.json`` and the
    #: final ``cluster.metrics.json`` aggregation — the inputs of
    #: ``python -m repro report --cluster RUNDIR``. Each replica then
    #: opens its own obs session (pid-stamped trace/metrics files, so
    #: every incarnation of a restarted replica keeps its own
    #: artifacts) and streams lifecycle events to
    #: ``replica-<id>.events.jsonl``.
    run_dir: Optional[str] = None
    #: Keep-alive connection pooling on the router→replica hop.
    pool_connections: bool = True

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ClusterError("a cluster needs at least one scenario")
        if self.replicas < 1:
            raise ClusterError(
                f"replicas must be >= 1, got {self.replicas}"
            )
        if self.replica_ports is not None and (
            len(self.replica_ports) != self.replicas
        ):
            raise ClusterError(
                f"replica_ports must list exactly {self.replicas} ports, "
                f"got {len(self.replica_ports)}"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ClusterError("heartbeat interval/timeout must be positive")
        if self.heartbeat_failures < 1:
            raise ClusterError(
                f"heartbeat_failures must be >= 1, got "
                f"{self.heartbeat_failures}"
            )


def _replica_main(config: ClusterConfig, replica_id: str, port: int) -> None:
    """Entry point of one replica subprocess (spawn target).

    Builds the full PR-6 stack — :class:`ShardStore` → :class:`ShardApp`
    → :class:`ShardHTTPServer` — for ``replica_id`` on its pre-reserved
    ``port`` (stable across restarts), then serves until SIGTERM. The
    SIGTERM handler runs the drain protocol on a side thread (calling
    ``shutdown()`` from a signal handler in the serving main thread
    would deadlock): stop accepting, finish in-flight requests, exit 0.
    The process detaches into its own process group so a chaos kill can
    take out the replica *and* its sampler worker children in one
    ``killpg``.
    """
    if hasattr(os, "setpgrp"):
        try:
            os.setpgrp()
        except OSError:
            pass
    journal: Optional[EventJournal] = None
    owns_session = False
    if config.run_dir:
        journal = EventJournal(
            os.path.join(config.run_dir, f"replica-{replica_id}.events.jsonl"),
            source=f"replica-{replica_id}",
        )
        if not obs.enabled():
            # Pid-stamped artifact names: a restarted replica is a new
            # process, and JsonlSink truncates on open — without the pid
            # each incarnation would clobber its predecessor's trace.
            prefix = os.path.join(
                config.run_dir, f"replica-{replica_id}-{os.getpid()}"
            )
            obs.enable(
                trace_out=prefix + ".trace.jsonl",
                metrics_out=prefix + ".metrics.jsonl",
            )
            owns_session = True
    on_evict = None
    if journal is not None:
        replica_journal = journal

        def on_evict(name: str) -> None:
            replica_journal.emit("shard.evicted", scenario=name)

    store = ShardStore(
        config.scenarios,
        config.instances,
        workers=config.workers,
        round_size=config.round_size,
        memory_budget_bytes=config.memory_budget_bytes,
        retry=config.sampler_retry,
        fault_injector=config.fault_injector,
        on_evict=on_evict,
    )
    app = ShardApp(store, default_solver=config.default_solver)
    server = ShardHTTPServer((config.host, port), app)

    def _drain(signum, frame) -> None:
        def _run() -> None:
            if journal is not None:
                journal.emit("server.drain.begin", port=port)
            server.drain(config.drain_timeout)
            if journal is not None:
                journal.emit("server.drain.end", port=port)

        threading.Thread(target=_run, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    try:
        if config.warm:
            for name in store.scenario_names():
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
        if journal is not None:
            journal.emit("server.started", port=port, warm=config.warm)
        server.serve_forever()
    finally:
        server.server_close()
        app.close()
        if owns_session:
            obs.disable()
        if journal is not None:
            journal.close()
    sys.exit(0)


def _reserve_port(host: str) -> int:
    """Reserve an ephemeral port by binding and immediately releasing.

    The replica re-binds the port moments later (``SO_REUSEADDR`` keeps
    the bind from failing on the lingering socket). Reserving up front
    — rather than letting each replica pick its own — is what lets a
    *restarted* replica come back on the same port, keeping its routing
    identity stable across crashes.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


def probe_health(host: str, port: int, timeout: float = 2.0) -> bool:
    """One ``GET /healthz`` probe; ``True`` iff the replica answered 200."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except (OSError, http.client.HTTPException):
        return False
    finally:
        conn.close()


class _ReplicaState:
    """Supervisor-side bookkeeping for one replica (not the process)."""

    __slots__ = (
        "replica_id",
        "port",
        "process",
        "healthy",
        "misses",
        "failed",
        "restarting",
    )

    def __init__(self, replica_id: str, port: int) -> None:
        self.replica_id = replica_id
        self.port = port
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.healthy = False
        self.misses = 0
        #: Permanently given up on (restart schedule exhausted).
        self.failed = False
        #: A restart incident is in progress for this replica.
        self.restarting = False


class Supervisor:
    """Spawn, watch and restart the replica fleet.

    Replica processes use the ``spawn`` start method and are
    *non-daemonic* — each replica runs its own sampler worker pool, and
    daemonic processes may not have children. :meth:`endpoints` is the
    router's live view of the fleet: a replica flagged unhealthy here
    is skipped by routing until its heartbeat comes back.
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._replicas: Dict[str, _ReplicaState] = {}
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._restart_threads: List[threading.Thread] = []
        #: Append-only respawn journal. Each entry records one respawn
        #: attempt: ``replica_id``, 1-based ``attempt`` within its
        #: incident, the policy ``delay`` honoured before it, and
        #: monotonic stamps ``detected_at`` / ``respawn_at`` /
        #: ``healthy_at`` (``None`` until the probe confirms). The
        #: cluster benchmark asserts restart-within-backoff-bound from
        #: these entries.
        self.restart_log: List[Dict[str, object]] = []
        #: Cluster event journal (set by :class:`ServingCluster` before
        #: :meth:`start` when the config has a ``run_dir``). Lifecycle
        #: transitions stream here via :meth:`_emit`.
        self.journal: Optional[EventJournal] = None

    def _emit(self, event: str, **attrs: object) -> None:
        """Emit one lifecycle event if a journal is attached."""
        journal = self.journal
        if journal is not None:
            journal.emit(event, **attrs)

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Reserve ports, spawn every replica, wait until all healthy."""
        if self._replicas:
            raise ClusterError("supervisor already started")
        ports = (
            list(self.config.replica_ports)
            if self.config.replica_ports is not None
            else [
                _reserve_port(self.config.host)
                for _ in range(self.config.replicas)
            ]
        )
        for index, port in enumerate(ports):
            state = _ReplicaState(f"r{index}", port)
            self._replicas[state.replica_id] = state
            state.process = self._spawn(state)
            self._emit(
                "replica.spawned",
                replica=state.replica_id,
                port=port,
                child_pid=state.process.pid,
            )
        deadline = time.monotonic() + self.config.startup_timeout
        for state in self._replicas.values():
            if not self._await_healthy(state, deadline):
                self.stop()
                raise ClusterError(
                    f"replica {state.replica_id} did not become healthy "
                    f"within {self.config.startup_timeout:.1f}s"
                )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-supervisor", daemon=True
        )
        self._monitor.start()

    def _spawn(self, state: _ReplicaState):
        process = self._ctx.Process(
            target=_replica_main,
            args=(self.config, state.replica_id, state.port),
            name=f"repro-replica-{state.replica_id}",
        )
        process.start()
        return process

    def _await_healthy(self, state: _ReplicaState, deadline: float) -> bool:
        while time.monotonic() < deadline:
            if probe_health(
                self.config.host, state.port, self.config.heartbeat_timeout
            ):
                with self._lock:
                    state.healthy = True
                    state.misses = 0
                self._emit(
                    "replica.healthy",
                    replica=state.replica_id,
                    port=state.port,
                )
                return True
            process = state.process
            if process is not None and not process.is_alive():
                return False
            time.sleep(0.05)
        return False

    def stop(self) -> None:
        """Drain and reap every replica (idempotent).

        SIGTERM first — each replica runs its graceful drain — then
        escalates to ``terminate()`` and finally ``kill()`` for anything
        that outstays the drain timeout.
        """
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        for thread in self._restart_threads:
            thread.join(timeout=5.0)
        for state in self._replicas.values():
            process = state.process
            if process is None or not process.is_alive():
                continue
            try:
                os.kill(process.pid, signal.SIGTERM)
            except (OSError, TypeError):
                pass
        for state in self._replicas.values():
            process = state.process
            if process is None:
                continue
            process.join(timeout=self.config.drain_timeout + 2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
            with self._lock:
                state.healthy = False
            self._emit("replica.stopped", replica=state.replica_id)

    # -- monitoring -----------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.config.heartbeat_interval):
            for state in list(self._replicas.values()):
                with self._lock:
                    skip = state.restarting or state.failed
                if skip:
                    continue
                self._check(state)

    def _check(self, state: _ReplicaState) -> None:
        process = state.process
        dead = process is None or not process.is_alive()
        alive = not dead and probe_health(
            self.config.host, state.port, self.config.heartbeat_timeout
        )
        if alive:
            with self._lock:
                state.healthy = True
                state.misses = 0
            return
        with self._lock:
            state.misses += 1
            misses = state.misses
            crashed = dead or state.misses >= self.config.heartbeat_failures
            if crashed:
                state.healthy = False
                state.restarting = True
        self._emit(
            "replica.heartbeat.missed",
            replica=state.replica_id,
            misses=misses,
            process_dead=dead,
        )
        if crashed:
            self._emit(
                "replica.crash.detected",
                replica=state.replica_id,
                process_dead=dead,
            )
        if crashed and not self._stop.is_set():
            thread = threading.Thread(
                target=self._restart_incident,
                args=(state,),
                name=f"repro-restart-{state.replica_id}",
                daemon=True,
            )
            self._restart_threads.append(thread)
            thread.start()

    def _restart_incident(self, state: _ReplicaState) -> None:
        """One crash incident: respawn under the policy's backoff.

        Attempt ``i`` sleeps the policy's i-th delay *before* the
        respawn, then polls the new process for health. The first
        healthy probe ends the incident (and resets the schedule — the
        next crash starts again from the first delay). Exhausting the
        schedule marks the replica permanently failed; routing simply
        never selects it again.
        """
        policy = self.config.restart_policy
        detected_at = time.monotonic()
        process = state.process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=2.0)
        for attempt in range(1, policy.max_attempts):
            if self._stop.is_set():
                return
            delay = policy.delay_for(attempt)
            self._stop.wait(delay)
            if self._stop.is_set():
                return
            entry: Dict[str, object] = {
                "replica_id": state.replica_id,
                "attempt": attempt,
                "delay": delay,
                "detected_at": detected_at,
                "respawn_at": time.monotonic(),
                "healthy_at": None,
            }
            self.restart_log.append(entry)
            state.process = self._spawn(state)
            self._emit(
                "replica.respawned",
                replica=state.replica_id,
                attempt=attempt,
                delay=delay,
                child_pid=state.process.pid,
            )
            deadline = time.monotonic() + self.config.startup_timeout
            if self._await_healthy(state, deadline):
                entry["healthy_at"] = time.monotonic()
                with self._lock:
                    state.restarting = False
                return
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        with self._lock:
            state.failed = True
            state.restarting = False
        self._emit(
            "replica.restart.failed",
            replica=state.replica_id,
            attempts=policy.max_attempts - 1,
        )

    # -- views ----------------------------------------------------------

    def endpoints(self) -> List[ReplicaEndpoint]:
        """The router's live fleet view (health included)."""
        with self._lock:
            return [
                ReplicaEndpoint(
                    replica_id=state.replica_id,
                    host=self.config.host,
                    port=state.port,
                    healthy=state.healthy and not state.failed,
                )
                for state in self._replicas.values()
            ]

    def status(self) -> Dict[str, object]:
        """JSON-ready supervisor snapshot."""
        with self._lock:
            replicas = [
                {
                    "replica_id": state.replica_id,
                    "port": state.port,
                    "pid": (
                        state.process.pid
                        if state.process is not None
                        else None
                    ),
                    "healthy": state.healthy,
                    "failed": state.failed,
                    "restarting": state.restarting,
                }
                for state in self._replicas.values()
            ]
        return {"replicas": replicas, "restarts": len(self.restart_log)}

    # -- chaos ----------------------------------------------------------

    def kill_replica(self, replica_id: str) -> int:
        """SIGKILL one replica *and its worker children* (chaos hook).

        Kills the replica's whole process group — the replica detached
        into its own group at startup — so its sampler workers die with
        it, exactly like an OOM kill would land. Returns the dead pid.
        The supervisor's monitor notices on its next beat and begins the
        restart incident; nothing else is special-cased, which is the
        point: chaos uses the same recovery path as real crashes.
        """
        state = self._replicas.get(replica_id)
        if state is None:
            raise ClusterError(f"no such replica {replica_id!r}")
        process = state.process
        if process is None or process.pid is None:
            raise ClusterError(f"replica {replica_id!r} has no process")
        pid = process.pid
        try:
            if hasattr(os, "killpg"):
                os.killpg(pid, signal.SIGKILL)
            else:  # pragma: no cover - non-POSIX
                process.kill()
        except (OSError, ProcessLookupError):
            process.kill()
        self._emit("replica.killed", replica=replica_id, child_pid=pid)
        return pid


class ServingCluster:
    """Supervisor + router, managed as one unit (context manager).

    With ``config.run_dir`` set the cluster additionally runs the fleet
    observability plane: a cluster-level :class:`EventJournal` shared
    by the supervisor (lifecycle events) and the router (breaker
    events), an obs session in the router process (opened only when the
    caller has not already opened one — sessions are per-process and
    exclusive), a ``cluster.manifest.json`` topology record at start,
    and a final ``cluster.metrics.json`` fleet aggregation written at
    stop *before* the replicas go away (a dead replica cannot answer a
    scrape).
    """

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.supervisor = Supervisor(config)
        self.router_app = RouterApp(
            self.supervisor.endpoints,
            breaker_threshold=config.breaker_threshold,
            breaker_reset_seconds=config.breaker_reset_seconds,
            forward_timeout=config.forward_timeout,
            fault_injector=config.router_fault_injector,
            pool_connections=config.pool_connections,
            supervisor_status=self.supervisor.status,
        )
        self.router_server: Optional[ShardHTTPServer] = None
        self.journal: Optional[EventJournal] = None
        self._owns_session = False

    @property
    def router_address(self) -> Tuple[str, int]:
        """The ``(host, port)`` clients should talk to."""
        if self.router_server is None:
            raise ClusterError("cluster is not started")
        return self.router_server.server_address  # type: ignore[return-value]

    def start(self) -> "ServingCluster":
        """Spawn the fleet, then open the router front door."""
        run_dir = self.config.run_dir
        if run_dir:
            os.makedirs(run_dir, exist_ok=True)
            self.journal = EventJournal(
                os.path.join(run_dir, "events.jsonl"), source="cluster"
            )
            self.supervisor.journal = self.journal
            self.router_app.journal = self.journal
            if not obs.enabled():
                obs.enable(
                    trace_out=os.path.join(run_dir, "router.trace.jsonl")
                )
                self._owns_session = True
        self.supervisor.start()
        self.router_server = start_http_server(
            self.router_app, self.config.host, self.config.router_port
        )
        if self.journal is not None:
            host, port = self.router_address
            self._write_cluster_manifest(run_dir, host, port)
            self.journal.emit(
                "cluster.started",
                router_port=port,
                replicas=self.config.replicas,
            )
        return self

    def _write_cluster_manifest(
        self, run_dir: str, host: str, port: int
    ) -> None:
        endpoints = self.supervisor.endpoints()
        topology = {
            "router_host": host,
            "router_port": port,
            "pool_connections": self.config.pool_connections,
            "replicas": [
                {
                    "replica_id": endpoint.replica_id,
                    "port": endpoint.port,
                    "workers": self.config.workers,
                    "scenarios": sorted(self.config.scenarios),
                }
                for endpoint in endpoints
            ],
        }
        manifest = build_manifest(command="cluster", config=topology)
        write_manifest(
            manifest, os.path.join(run_dir, "cluster.manifest.json")
        )

    def stop(self) -> None:
        """Drain the router, then stop the fleet (idempotent)."""
        if self.journal is not None and self.router_server is not None:
            # Final fleet sweep while every surviving replica can still
            # answer a scrape; the aggregation document is the report's
            # "fleet metrics" section.
            document = self.router_app.fleet.aggregate(force=True)
            path = os.path.join(self.config.run_dir, "cluster.metrics.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if self.router_server is not None:
            self.router_server.drain(self.config.drain_timeout)
            self.router_server = None
        self.supervisor.stop()
        self.router_app.close_pools()
        if self.journal is not None:
            self.journal.emit("cluster.stopped")
            self.journal.close()
            self.journal = None
            self.supervisor.journal = None
            self.router_app.journal = None
        if self._owns_session:
            obs.disable()
            self._owns_session = False

    def __enter__(self) -> "ServingCluster":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def run_cluster(config: ClusterConfig) -> int:
    """Run a cluster until SIGTERM/SIGINT; returns an exit code.

    The CLI entry point behind ``python -m repro cluster``. SIGTERM
    triggers the graceful drain protocol documented in
    ``docs/serving.md``: the router stops accepting and finishes
    in-flight requests, then every replica is asked to drain in turn.
    """
    cluster = ServingCluster(config)
    stop = threading.Event()

    def _request_stop(signum, frame) -> None:
        stop.set()

    previous = signal.signal(signal.SIGTERM, _request_stop)
    try:
        cluster.start()
        host, port = cluster.router_address
        endpoints = cluster.supervisor.endpoints()
        print(
            f"cluster router on http://{host}:{port} "
            f"({len(endpoints)} replicas: "
            f"{', '.join(f'{e.replica_id}:{e.port}' for e in endpoints)}; "
            f"scenarios: {', '.join(sorted(config.scenarios))})"
        )
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        cluster.stop()
    return 0
