"""HTTP front end: the always-on shard server and the one HTTP handler.

Stdlib only — ``http.server.ThreadingHTTPServer`` with one handler
thread per connection. The request logic lives in :class:`ShardApp`
(plain methods over dicts) so tests can drive it without sockets; the
handler is a thin JSON adapter. The same handler and server class
(:class:`ShardHTTPServer`, :func:`start_http_server`) also serve the
cluster front door, :class:`~repro.serving.router.RouterApp`: both apps
answer the same paths with the same framing and error mapping.

Endpoints:

- ``GET /healthz`` — liveness probe (``{"status": "ok"}``), answered by
  the handler itself.
- ``GET /status`` — scenarios, per-shard state, hit/miss/eviction and
  request counters, uptime; when the server was started inside an
  instrumentation session with a trace sink, the tail of its *own*
  live trace file (read back torn-tail-safely via
  :func:`~repro.obs.sinks.read_jsonl`).
- ``GET /metrics`` — Prometheus text exposition of the process
  registry (empty outside an instrumentation session).
- ``GET /metrics.json`` — the raw registry snapshot; the form the
  router's fleet aggregator scrapes and merges.
- ``POST /solve`` — body ``{"scenario", "budget", "solver"?,
  "ci_width"?}``; concurrent identical requests are batched onto one
  solve. Deterministic fields (``seeds``, ``objective``,
  ``num_samples``) depend only on the scenario spec and the query.
  Adopts the inbound ``X-Repro-Trace-Id``/``X-Repro-Parent-Span``
  trace context (minting a trace id when absent) and answers with the
  trace id plus a ``Server-Timing`` per-phase breakdown — headers
  only, never the body, preserving byte-identity.
- ``POST /shutdown`` — graceful stop: responds, then stops accepting
  connections and closes every shard.

Error mapping: an :class:`~repro.errors.UnknownScenarioError` is
``404``; any other :class:`~repro.errors.ReproError` is ``400``;
unexpected exceptions are ``500`` — a request is answered in all
cases, never dropped. The status follows the exception's type, never
its message, which may echo client input. Malformed framing is
rejected *before* the body is read: a missing ``Content-Length`` is
``411``, a declared length above :data:`MAX_BODY_BYTES` is ``413`` — so
a malicious or broken client can neither hang a handler thread on an
unbounded read nor balloon a replica's memory with one giant body.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.errors import ReproError, ServingError, UnknownScenarioError
from repro.obs import metrics, trace
from repro.obs.metrics import to_prometheus_text
from repro.obs.sinks import read_jsonl
from repro.obs.tracer import PARENT_HEADER, TRACE_HEADER, new_trace_id
from repro.serving.batching import RequestBatcher
from repro.serving.shards import ShardStore

if TYPE_CHECKING:
    from repro.serving.router import RouterApp

#: Hard cap on request-body size. Solve payloads are a few hundred
#: bytes; anything past this is a broken or hostile client and is
#: rejected with ``413`` before a single body byte is read.
MAX_BODY_BYTES = 1 << 20


class RequestRejected(Exception):
    """An HTTP request refused before dispatch, with a specific status.

    Raised by :func:`read_json_body` for framing-level problems (missing
    ``Content-Length`` → 411, oversized body → 413, malformed length or
    JSON → 400). Handlers map it straight to a response; it never
    escapes the HTTP layer.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def read_json_body(headers, rfile, max_bytes: int = MAX_BODY_BYTES) -> Dict:
    """Read and parse one JSON request body, defensively.

    Validates the ``Content-Length`` header *before* touching the
    stream: missing → :class:`RequestRejected` 411 (Length Required),
    non-integer or negative → 400, above ``max_bytes`` → 413 (Payload
    Too Large). Only then reads exactly the declared bytes and parses
    them as JSON (bad encoding/JSON → 400).
    """
    declared = headers.get("Content-Length")
    if declared is None:
        raise RequestRejected(
            411, "Content-Length header is required for this request"
        )
    try:
        length = int(declared)
    except (TypeError, ValueError):
        raise RequestRejected(
            400, f"Content-Length is not an integer: {declared!r}"
        )
    if length < 0:
        raise RequestRejected(
            400, f"Content-Length cannot be negative: {length}"
        )
    if length > max_bytes:
        raise RequestRejected(
            413,
            f"request body of {length} bytes exceeds the "
            f"{max_bytes}-byte limit",
        )
    raw = rfile.read(length) if length else b""
    if not raw:
        raise RequestRejected(400, "request needs a JSON body")
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestRejected(400, f"request body is not valid JSON: {exc}")


class ShardApp:
    """Transport-independent request logic over a :class:`ShardStore`."""

    #: ``Server`` header the HTTP front end answers with.
    server_version = "repro-imc-serve/1.0"

    def __init__(
        self,
        store: ShardStore,
        *,
        default_solver: str = "UBG",
        trace_path: Optional[str] = None,
    ) -> None:
        self.store = store
        self.default_solver = default_solver
        #: Live trace sink to read back for ``/status`` (optional).
        self.trace_path = trace_path
        self.batcher = RequestBatcher()
        self.started = time.monotonic()
        self._req_lock = threading.Lock()
        self.requests = {"total": 0, "batched": 0, "failed": 0}

    # -- request counting ----------------------------------------------

    def _count(self, field: str) -> None:
        with self._req_lock:
            self.requests[field] += 1

    # -- endpoints ------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Full server snapshot (shards, counters, live trace tail)."""
        payload = self.store.status()
        with self._req_lock:
            payload["requests"] = dict(self.requests)
        payload["in_flight"] = self.batcher.in_flight()
        payload["uptime_seconds"] = time.monotonic() - self.started
        if self.trace_path:
            try:
                spans = read_jsonl(self.trace_path)
            except OSError:
                spans = []
            payload["trace_tail"] = spans[-5:]
        return payload

    def prometheus(self) -> str:
        """Prometheus text exposition of the metrics registry."""
        return to_prometheus_text(metrics.snapshot())

    def metrics_json(self) -> Dict:
        """Raw registry snapshot (``GET /metrics.json``) — the form the
        router's fleet aggregator scrapes and merges."""
        return metrics.snapshot()

    def handle_solve(
        self, payload: Dict, inbound_headers=None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """HTTP-facing solve: adopt trace context, answer with headers.

        Returns ``(status, body_bytes, headers)``, the shape
        :meth:`RouterApp.handle_solve
        <repro.serving.router.RouterApp.handle_solve>` returns, so one
        HTTP handler serves both apps; the body is the JSON answer with
        sorted keys. The inbound ``X-Repro-Trace-Id`` /
        ``X-Repro-Parent-Span`` headers (minted locally when absent, so
        a standalone replica's answers stay traceable) become the
        adopted context for every span the solve opens, and the
        response headers echo the trace id plus a ``Server-Timing``
        per-phase breakdown. Both ride as *headers*
        so the JSON body — and its byte-identity contract — is
        untouched by observability.
        """
        inbound = inbound_headers or {}
        trace_id = inbound.get(TRACE_HEADER) or None
        parent_span = inbound.get(PARENT_HEADER) or None
        if trace_id is None:
            trace_id = new_trace_id()
            parent_span = None
        else:
            metrics.inc("serving.trace.adopted")
        timings: Dict[str, float] = {}
        response = self.solve(
            payload,
            trace_id=trace_id,
            parent_span=parent_span,
            timings=timings,
        )
        headers = {TRACE_HEADER: trace_id}
        if timings:
            headers["Server-Timing"] = ", ".join(
                f"{name};dur={seconds * 1e3:.3f}"
                for name, seconds in timings.items()
            )
        body = json.dumps(response, sort_keys=True).encode("utf-8")
        return 200, body, headers

    def solve(
        self,
        payload: Dict,
        *,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        timings: Optional[Dict[str, float]] = None,
    ) -> Dict:
        """Answer one ``/solve`` request, batching concurrent twins.

        Only identical requests coalesce: the batcher key is
        ``(scenario, budget, solver, ci_width)``, so every follower
        shares an answer computed at its own precision. Requests with
        other widths still share the shard's pool, which a top-up grows
        for all of them.

        ``trace_id``/``parent_span`` adopt a cross-process trace
        context for the duration (see :meth:`handle_solve`); ``timings``
        — when a dict is passed — receives per-phase wall durations
        (``parse``, ``batch``, ``total``).
        """
        began = time.perf_counter()
        t = timings if timings is not None else {}
        with trace.context(trace_id, parent_span):
            with trace.span("serving/request") as root:
                try:
                    mark = time.perf_counter()
                    scenario, k, solver, ci_width = self._parse_solve(
                        payload
                    )
                    t["parse"] = time.perf_counter() - mark
                    root.set(scenario=scenario, budget=k, solver=solver)
                    mark = time.perf_counter()
                    result, leader = self.batcher.run(
                        (scenario, k, solver, ci_width),
                        lambda: self._compute(scenario, k, solver, ci_width),
                    )
                    t["batch"] = time.perf_counter() - mark
                except BaseException:
                    self._count("failed")
                    metrics.inc("serving.requests.failed")
                    raise
                finally:
                    self._count("total")
                    metrics.inc("serving.requests.total")
                    elapsed = time.perf_counter() - began
                    t["total"] = elapsed
                    metrics.observe("serving.request.seconds", elapsed)
        if not leader:
            self._count("batched")
        response = dict(result)
        response["batched"] = not leader
        return response

    def _parse_solve(
        self, payload: Dict
    ) -> Tuple[str, int, str, Optional[float]]:
        if not isinstance(payload, dict):
            raise ServingError("solve payload must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ServingError("solve payload needs a 'scenario' string")
        budget = payload.get("budget")
        if not isinstance(budget, int) or isinstance(budget, bool):
            raise ServingError(
                f"solve payload needs an integer 'budget', got "
                f"{budget!r}"
            )
        solver = payload.get("solver", self.default_solver)
        if not isinstance(solver, str):
            raise ServingError(f"'solver' must be a string, got {solver!r}")
        ci_width = payload.get("ci_width")
        if ci_width is not None:
            # The chained comparison is false for NaN and Infinity too,
            # and for an integer too large for float() to convert; a
            # JSON ``true`` is an int to isinstance, so bools go first.
            if (
                isinstance(ci_width, bool)
                or not isinstance(ci_width, (int, float))
                or not 0 < ci_width <= sys.float_info.max
            ):
                raise ServingError(
                    f"'ci_width' must be a positive finite number, got "
                    f"{ci_width!r}"
                )
            ci_width = float(ci_width)
        return scenario, budget, solver, ci_width

    def _compute(
        self,
        scenario: str,
        k: int,
        solver: str,
        ci_width: Optional[float],
    ) -> Dict:
        with trace.span("serving/compute", scenario=scenario, solver=solver):
            shard = self.store.get(scenario)
            with shard.lock:
                shard.touch()
                response, cache_hit = shard.solve(
                    k, solver_name=solver, ci_width=ci_width
                )
            # Evict *after* releasing the shard lock; the just-used shard
            # is protected so a tight budget cannot thrash it.
            self.store.evict_to_budget(protect=scenario)
        response = dict(response)
        response["cache_hit"] = cache_hit
        return response

    def close(self) -> None:
        """Shut the underlying store down."""
        self.store.close()


class GracefulHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with in-flight tracking and graceful drain.

    Base of :class:`ShardHTTPServer`, which serves both the shard
    server and the router front door. :meth:`drain` implements the
    SIGTERM protocol both use: stop accepting new connections, let
    every in-flight handler finish (bounded by a timeout), then close
    the listening socket — so a rolling restart never cuts a request
    mid-solve.
    """

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog. The stdlib default (5) resets connections under
    #: a burst of hundreds of simultaneous clients before accept() can
    #: drain them; the load floor needs the kernel to queue the burst.
    request_queue_size = 1024

    def __init__(self, address: Tuple[str, int], handler_class) -> None:
        # Set first: a failed bind calls server_close() from inside
        # super().__init__, which must then re-raise the bind error.
        self._socket_closed = False
        super().__init__(address, handler_class)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()

    def finish_request(self, request, client_address) -> None:
        """Dispatch one connection, counted against the drain barrier."""
        with self._inflight_lock:
            self._inflight += 1
            self._idle.clear()
        try:
            super().finish_request(request, client_address)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.set()

    def in_flight(self) -> int:
        """Connections currently being handled."""
        with self._inflight_lock:
            return self._inflight

    def server_close(self) -> None:
        """Close the listening socket (idempotent — drain also closes)."""
        if self._socket_closed:
            return
        self._socket_closed = True
        super().server_close()

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful stop: stop accepting, finish in-flight, then close.

        Blocks until ``serve_forever`` has exited and every in-flight
        handler completed (or ``timeout`` seconds passed). Returns
        whether the drain was clean — ``False`` means handlers were
        still running when the timeout expired; their daemon threads
        die with the process.
        """
        self.shutdown()
        drained = self._idle.wait(timeout)
        self.server_close()
        return drained


class ShardHTTPServer(GracefulHTTPServer):
    """Threaded HTTP server bound to an app.

    The app is a :class:`ShardApp` (one replica, or ``python -m repro
    serve``) or a :class:`~repro.serving.router.RouterApp` (the cluster
    front door). Either way the same :class:`_Handler` answers.
    """

    def __init__(
        self, address: Tuple[str, int], app: Union[ShardApp, RouterApp]
    ) -> None:
        super().__init__(address, _Handler)
        self.app = app


class _Handler(BaseHTTPRequestHandler):
    """JSON adapter between HTTP and the server's app.

    Answers ``/healthz`` and ``/shutdown`` itself and hands ``/status``,
    ``/metrics``, ``/metrics.json`` and ``/solve`` to the app. The app's
    ``handle_solve`` returns ``(status, body_bytes, headers)``, which go
    out unchanged.
    """

    protocol_version = "HTTP/1.1"
    #: Socket timeout while reading a request, so a client that stalls
    #: mid-headers or sends fewer body bytes than it declared cannot
    #: pin a handler thread forever.
    timeout = 60

    def log_message(self, *args) -> None:  # noqa: D102 - silence stderr
        pass

    @property
    def app(self) -> Union[ShardApp, RouterApp]:
        return self.server.app  # type: ignore[attr-defined]

    @property
    def server_version(self) -> str:  # the Server header names the app
        return self.app.server_version

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(code, body, "application/json")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif self.path == "/status":
                self._send_json(200, self.app.status())
            elif self.path == "/metrics":
                self._send(
                    200,
                    self.app.prometheus().encode("utf-8"),
                    "text/plain; version=0.0.4",
                )
            elif self.path == "/metrics.json":
                self._send_json(200, self.app.metrics_json())
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._send_json(500, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/solve":
                status, body, headers = self.app.handle_solve(
                    read_json_body(self.headers, self.rfile), self.headers
                )
                self._send(status, body, "application/json", headers)
            elif self.path == "/shutdown":
                self._send_json(200, {"status": "shutting down"})
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
            else:
                self._send_json(404, {"error": f"no such path {self.path}"})
        except RequestRejected as exc:
            # Framing was rejected before the body was (fully) read, so
            # the connection may hold unread bytes — close it rather
            # than desynchronise the next keep-alive request.
            self.close_connection = True
            self._send_json(exc.status, {"error": exc.message})
        except UnknownScenarioError as exc:
            self._send_json(404, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - answer, never drop
            self._send_json(500, {"error": str(exc)})


def listen(
    app: Union[ShardApp, RouterApp], host: str, port: int
) -> ShardHTTPServer:
    """A :class:`ShardHTTPServer` for ``app`` bound to ``(host, port)``.

    A port that cannot be bound (in use, out of range, not permitted)
    raises :class:`~repro.errors.ServingError` naming the address.
    """
    try:
        return ShardHTTPServer((host, port), app)
    except (OSError, OverflowError) as exc:
        raise ServingError(f"cannot listen on {host}:{port}: {exc}") from exc


def start_http_server(
    app: Union[ShardApp, RouterApp], host: str = "127.0.0.1", port: int = 0
) -> ShardHTTPServer:
    """Start serving ``app`` on a daemon thread; returns the server.

    ``app`` is a :class:`ShardApp` or a
    :class:`~repro.serving.router.RouterApp`. ``port=0`` binds an
    ephemeral port — read the actual one from
    ``server.server_address[1]``. The caller owns shutdown:
    ``server.drain()`` for a graceful stop, or ``server.shutdown();
    server.server_close()``, then ``app.close()`` for a shard app.
    """
    server = listen(app, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    server._serve_thread = thread  # type: ignore[attr-defined]
    return server


def run_server(app: ShardApp, host: str, port: int) -> int:
    """Serve ``app`` until ``/shutdown`` or Ctrl-C; returns exit code."""
    server = listen(app, host, port)
    bound = server.server_address
    print(f"serving on http://{bound[0]}:{bound[1]} "
          f"(scenarios: {', '.join(app.store.scenario_names())})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close()
    return 0
