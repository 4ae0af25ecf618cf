"""The benchmark's four workloads, their answer checks and the ledger.

Every workload is a closed loop: a client sends its next request only
after the previous one was answered, because the callers this system
serves (campaign planners, experiment drivers) wait for each answer.

- ``imcaf``: direct :func:`repro.core.framework.solve_imc` calls from
  one caller; no HTTP, router or shards.
- ``serve-hot``, ``serve-solve``, ``serve-cold``: ``/solve`` requests
  through the router of a two-replica cluster. ``workers=1`` keeps
  sampling inline in each replica: on two cores a sampler process pool
  would contend with the router and the replicas, and the benchmark
  would measure the scheduler.

The compute-bound workloads (``imcaf``, ``serve-solve``, ``serve-cold``)
run in rounds with a speed probe between any two and report their
times scaled to a reference host speed (see :mod:`speed`); ``serve-hot``
spends its time waiting on the network stack and reports wall-clock
latency and throughput. Set-up times are scaled on every workload.

An untraced run reports the end-to-end metrics (:data:`END_TO_END`). A
traced run plays a smaller copy of the workload twice, untraced and
then traced, and reports the per-layer ledger (:data:`PER_LAYER`): each
layer's self time per operation, stitched by trace id across the
router's spans (this process) and the replicas' trace files.
"""

from __future__ import annotations

import glob
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import ledger
import speed
from repro import obs
from repro.core import framework
from repro.core.bitset_engine import BitsetCoverage
from repro.core.flat_engine import FlatCoverage
from repro.core.maf import MAF
from repro.core.objective import CoverageState
from repro.core.ubg import UBG
from repro.errors import ClusterError
from repro.obs import environment_fingerprint, read_jsonl
from repro.sampling.pool import RICSamplePool
from repro.serving import (
    ClusterConfig,
    PhaseResult,
    ScenarioSpec,
    ServingCluster,
    assign_replica,
    build_instance,
)
from repro.serving.loadgen import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Replica trace files of traced runs land here and are removed after.
RUNS_DIR = os.path.join(CHECKOUT, ".perfbench_runs")

# -- imcaf inputs ---------------------------------------------------------

#: Small communities with fractional thresholds.
IMCAF_SCENARIOS = (
    ScenarioSpec(name="wikivote-frac", dataset="wikivote", scale=0.1,
                 threshold="fractional", size_cap=4),
    ScenarioSpec(name="epinions-frac", dataset="epinions", scale=0.05,
                 threshold="fractional", size_cap=4),
)
#: ``(scenario, solver, budget)`` of every solve. Each case takes 0.29
#: to 0.35 s on a two-core x86_64 machine, so the latencies form one
#: mode and the median and tail sit inside it.
#: With cases from 0.2 to 1.1 s the median fell between two cases' modes
#: and moved by a quarter from run to run. The MAF cases influence over
#: half of the pool at the second stop stage, so the Algorithm 6
#: ``Estimate`` cross-check runs in half of the solves.
IMCAF_CASES = (
    ("epinions-frac", "UBG", 6),
    ("epinions-frac", "UBG", 8),
    ("wikivote-frac", "MAF", 12),
    ("wikivote-frac", "MAF", 16),
)
#: Solve seeds with committed golden answers; the workload seed picks
#: which of them a run uses and in what order.
IMCAF_SOLVE_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
#: The paper's parameters (Section VI-A).
EPSILON = DELTA = 0.2
#: Two IMCAF stop stages: the first draws ⌈Λ⌉ = 2429 samples at
#: ε = δ = 0.2 and the second doubles to this cap. No single solve then
#: takes more than about 1 s of a run (at the default 100 000 cap one
#: solve alone took 45 s).
IMCAF_MAX_SAMPLES = 4858
#: Seconds one solve of every case takes, which sizes a run from
#: ``--seconds``.
IMCAF_ROUND_SECONDS = 1.35
#: Solves per case at least: 12 x 4 cases = 48 solves, so p80 has ten
#: solves beyond it.
IMCAF_MIN_PER_CASE = 12

# -- serving inputs -------------------------------------------------------

#: Six facebook-like scenarios with 600-sample warm pools. Rendezvous
#: hashing places fb3 and fb5 on r0 and the other four on r1, so each
#: replica holds at least two (``serve-cold`` relies on it).
SERVE_SCENARIOS = {
    f"fb{i}": ScenarioSpec(name=f"fb{i}", dataset="facebook", scale=0.2,
                           seed=100 + i, pool_size=600)
    for i in range(6)
}
REPLICA_IDS = ("r0", "r1")
#: Budget of the set-up requests that warm every shard; timed keys use
#: other budgets, so set-up never pre-fills their solve cache.
WARM_BUDGET = 1
#: ``serve-hot`` repeats these (scenario, budget) keys, two per replica.
HOT_KEYS = (("fb0", 3), ("fb1", 5), ("fb3", 3), ("fb5", 5))
#: ``serve-solve`` budgets run from 2 up; goldens cover 1..40.
SOLVE_BUDGET_MAX = 40
#: ``serve-cold`` budgets: a narrow band keeps its latency unimodal.
COLD_BUDGETS = (3, 4, 5)
#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3
HTTP_TIMEOUT = 120.0


@dataclass(frozen=True)
class Workload:
    """Why a workload exists and what it exercises."""

    name: str
    why: str
    stresses: str
    bypasses: str
    clients: int
    #: Percentile ``latency_tail_ms`` reports, fixed so that every run
    #: reports the same one: a ladder rung with about twice
    #: ``ledger.MIN_BEYOND`` samples beyond it at this workload's usual
    #: sample count (``imcaf`` runs 60 solves in 20 s, so twelve).
    tail: float
    #: Latencies and throughput are at the reference speed (see
    #: :mod:`speed`), measured in lockstep rounds.
    scaled: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "imcaf",
            "IMCAF cost across sampling, pool indexing, selection on "
            "uncompacted pools and Estimate, without any serving layer",
            "sampling, pool index, select (UBG bitset / MAF), evaluate, "
            "estimate (Alg. 6)",
            "HTTP, router, batcher, shards",
            clients=1,
            tail=80.0,  # 60 solves in a 20 s run: twelve beyond
            scaled=True,
        ),
        Workload(
            "serve-hot",
            "compute is ~0, so only the front door, the router->replica "
            "hop and replica request handling show",
            "router, router->replica hop, replica request handling, "
            "solve cache",
            "sampling, selection, batching, shard builds",
            clients=2,
            tail=95.0,  # about 880 requests in 20 s
            scaled=False,
        ),
        Workload(
            "serve-solve",
            "distinct uncached UBG keys over warm 600-sample pools, sent "
            "in pairs so the batcher coalesces",
            "flat-engine selection, evaluate_benefit/CI, batching "
            "(leader/follower)",
            "sampling, shard builds, eviction",
            clients=2,
            tail=90.0,  # 300 requests in a 20 s run
            scaled=True,
        ),
        Workload(
            "serve-cold",
            "memory budget below one shard: every request evicts, "
            "rebuilds the instance and regrows its pool in merge rounds",
            "shard build, eviction, ensure_target merge rounds, sampling, "
            "compaction",
            "solve cache, batching",
            clients=1,
            tail=80.0,  # 60 to 130 requests in a 20 s run
            scaled=True,
        ),
    )
}

#: ``(name, unit, better)`` of the end-to-end metrics, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("rss_peak_mb", "MB", "lower"),
    ("success_ratio", "ratio", "higher"),
)

#: Layers whose self times add up to the traced end-to-end time.
LEDGER_LAYERS = (
    "router.self_ms",
    "router.hop_ms",
    "server.parse_ms",
    "server.request_ms",
    "batching.self_ms",
    "shards.compute_self_ms",
    "pool.index_compact_ms",
    "sampling.ms",
    "select.ms",
    "evaluate.ms",
    "estimate.ms",
    "unattributed_ms",
)

#: ``(name, unit, better)`` of the per-layer metrics. Times and counts
#: are per operation (per request, or per solve for ``imcaf``); a
#: workload that bypasses a layer reports 0 for it.
PER_LAYER = (
    ("router.self_ms", "ms", "lower"),
    ("router.hop_ms", "ms", "lower"),
    ("router.failovers", "count", "lower"),
    ("server.parse_ms", "ms", "lower"),
    ("server.request_ms", "ms", "lower"),
    ("batching.self_ms", "ms", "lower"),
    ("batching.batched_ratio", "ratio", "higher"),
    ("batching.follower_wait_ms", "ms", "lower"),
    ("shards.compute_self_ms", "ms", "lower"),
    ("shards.hit_ratio", "ratio", "higher"),
    ("shards.evictions", "count", "lower"),
    ("shards.topup_ms", "ms", "lower"),
    ("shards.merge_rounds", "count", "lower"),
    ("shards.solve_cache_hit_ratio", "ratio", "higher"),
    ("sampling.ms", "ms", "lower"),
    ("sampling.samples", "count", "lower"),
    ("sampling.samples_per_s", "1/s", "higher"),
    ("pool.index_compact_ms", "ms", "lower"),
    ("select.ms", "ms", "lower"),
    ("select.engine_calls", "count", "lower"),
    ("evaluate.ms", "ms", "lower"),
    ("estimate.ms", "ms", "lower"),
    ("estimate.trials", "count", "lower"),
    ("imcaf.stages", "count", "lower"),
    ("imcaf.samples", "count", "lower"),
    ("unattributed_ms", "ms", "lower"),
    ("ledger.e2e_ms", "ms", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
)

#: Ledger layer of each span name; see :func:`layer_of`.
SPAN_LAYERS = {
    "bench/request": "unattributed_ms",
    "bench/solve_imc": "unattributed_ms",
    "router/solve": "router.self_ms",
    "router/forward": "router.hop_ms",
    "serving/request": "server.request_ms",
    "serving/resolve": "server.request_ms",
    "server/parse": "server.parse_ms",
    "batching/batch": "batching.self_ms",
    "serving/compute": "shards.compute_self_ms",
    "serving/topup": "pool.index_compact_ms",
    "bench/pool_grow": "pool.index_compact_ms",
    "ric/sample_many": "sampling.ms",
    "ric/worker_batch": "sampling.ms",
    "imc/evaluate": "evaluate.ms",
    "imc/estimate": "estimate.ms",
}
SELECT_PREFIXES = ("imc/select", "ubg/", "maf/", "bt/", "mb/", "greedyc/")


def layer_of(span_name: str) -> str:
    """The ledger layer a span's self time counts toward.

    The span tree is what makes this a self-time split: the router's
    ``router/forward`` keeps only what the replica's own ``total`` does
    not cover (the hop), ``serving/topup`` keeps the merge-round time
    that ``ric/sample_many`` does not (indexing and compaction), and a
    client's own span keeps whatever no program span covers.
    """
    layer = SPAN_LAYERS.get(span_name)
    if layer is not None:
        return layer
    if span_name.startswith(SELECT_PREFIXES):
        return "select.ms"
    return "unattributed_ms"


# -- results --------------------------------------------------------------


@dataclass
class Outcome:
    """What one benchmark run reports."""

    attempted: int = 0
    failed: int = 0
    #: Loud reasons the run cannot be trusted (wrong answers, leaks).
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Human-readable lines printed before the JSON result.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def fail(self, message: str) -> None:
        """Count one wrong or failed operation, loudly."""
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED: {message}", file=sys.stderr)

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: PROBLEM: {message}", file=sys.stderr)


def load_golden() -> Dict[str, Dict]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def imcaf_key(scenario: str, solver: str, k: int, seed: int) -> str:
    return f"{scenario}|{solver}|{k}|{seed}"


def serve_key(scenario: str, budget: int) -> str:
    return f"{scenario}|{budget}"


# -- imcaf ----------------------------------------------------------------


def make_solver(name: str, seed: int):
    """A fresh solver with its default coverage engine."""
    return UBG() if name == "UBG" else MAF(seed=seed)


def solve_case(instances, scenario: str, solver: str, k: int, seed: int):
    graph, communities = instances[scenario]
    return framework.solve_imc(
        graph,
        communities,
        k,
        make_solver(solver, seed),
        epsilon=EPSILON,
        delta=DELTA,
        seed=seed,
        max_samples=IMCAF_MAX_SAMPLES,
    )


def imcaf_answer(result) -> Dict:
    """The fields of an IMCAF result that goldens pin, as JSON reads them."""
    return json.loads(json.dumps({
        "seeds": list(result.selection.seeds),
        "objective": result.selection.objective,
        "num_samples": result.num_samples,
        "stopped_by": result.stopped_by,
    }))


def build_imcaf_instances():
    return {spec.name: build_instance(spec) for spec in IMCAF_SCENARIOS}


def imcaf_calls(seed: int, per_case: int) -> List[Tuple[str, str, int, int]]:
    """``per_case`` solves of every case, seeded and shuffled."""
    rng = random.Random(seed)
    offset = rng.randrange(len(IMCAF_SOLVE_SEEDS))
    calls = [
        (scenario, solver, k,
         IMCAF_SOLVE_SEEDS[(offset + i) % len(IMCAF_SOLVE_SEEDS)])
        for scenario, solver, k in IMCAF_CASES
        for i in range(per_case)
    ]
    rng.shuffle(calls)
    return calls


def imcaf_setup():
    """Build the instances and pay first-call costs with one solve."""
    instances = build_imcaf_instances()
    solve_case(instances, *IMCAF_CASES[0], IMCAF_SOLVE_SEEDS[0])
    return instances


@dataclass
class ImcafPass:
    latencies: List[float] = field(default_factory=list)
    #: One round per solve.
    rounds: speed.Rounds = field(default_factory=speed.Rounds)
    stages: int = 0
    samples: int = 0


def imcaf_pass(instances, calls, golden, outcome: Outcome) -> ImcafPass:
    """Run ``calls`` back to back, checking every answer."""
    result = ImcafPass()
    result.rounds.boundary()
    for scenario, solver, k, seed in calls:
        outcome.attempted += 1
        start = time.perf_counter()
        with obs.trace.span("bench/solve_imc", scenario=scenario,
                            solver=solver, k=k, seed=seed):
            answer = solve_case(instances, scenario, solver, k, seed)
        result.latencies.append(time.perf_counter() - start)
        result.stages += answer.iterations
        result.samples += answer.num_samples
        key = imcaf_key(scenario, solver, k, seed)
        expected = golden["imcaf"].get(key)
        got = imcaf_answer(answer)
        if got != expected:
            outcome.fail(f"imcaf {key}: got {got}, golden {expected}")
        result.rounds.boundary()
    return result


class ImcafProbes:
    """Benchmark-side wrappers around public functions of this process.

    Installed only for the traced pass: counts outermost calls into the
    coverage engines' ``gain_*`` marginals, sums ``Estimate`` trials,
    and spans ``RICSamplePool.grow`` so pool indexing shows apart from
    ``ric/sample_many``.
    """

    ENGINES = (CoverageState, BitsetCoverage, FlatCoverage)
    GAINS = ("gain_pair", "gain_influenced", "gain_fractional")

    def __init__(self) -> None:
        self.engine_calls = 0
        self.estimate_trials = 0
        self._inside_engine = False
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._restore.append((owner, name, original))

    def install(self) -> None:
        def counted(original):
            def wrapper(*args, **kwargs):
                # gain_influenced/gain_fractional delegate to gain_pair
                # in some engines; count the caller's call only.
                if self._inside_engine:
                    return original(*args, **kwargs)
                self.engine_calls += 1
                self._inside_engine = True
                try:
                    return original(*args, **kwargs)
                finally:
                    self._inside_engine = False
            return wrapper

        def spanned(original):
            def wrapper(*args, **kwargs):
                with obs.trace.span("bench/pool_grow"):
                    return original(*args, **kwargs)
            return wrapper

        def trials(original):
            def wrapper(*args, **kwargs):
                estimate = original(*args, **kwargs)
                self.estimate_trials += estimate.trials
                return estimate
            return wrapper

        for engine in self.ENGINES:
            for name in self.GAINS:
                self._wrap(engine, name, counted)
        self._wrap(RICSamplePool, "grow", spanned)
        self._wrap(framework, "estimate_benefit", trials)

    def remove(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)


def run_imcaf(seed: int, seconds: float, trace: bool, golden) -> Outcome:
    outcome = Outcome()
    per_case = max(IMCAF_MIN_PER_CASE, round(seconds / IMCAF_ROUND_SECONDS))
    if not trace:
        instances, setups = repeated_setup(imcaf_setup, lambda _: None)
        run = imcaf_pass(instances, imcaf_calls(seed, per_case), golden,
                         outcome)
        record_latency(outcome, WORKLOADS["imcaf"].tail, run.latencies,
                       sum(run.rounds.walls), rounds=run.rounds,
                       round_of=range(len(run.latencies)))
        outcome.metrics["setup_s"] = (statistics.median(setups), "s")
        outcome.metrics["rss_peak_mb"] = (
            ledger.sum_vmhwm_mb([os.getpid()]), "MB")
        outcome.notes.append(
            f"imcaf: {len(run.latencies)} solves, {run.stages} stop stages, "
            f"{run.samples} pool samples, cap {IMCAF_MAX_SAMPLES}")
        finish(outcome)
        return outcome

    calls = imcaf_calls(seed, max(1, per_case // 2))
    instances = imcaf_setup()
    plain = imcaf_pass(instances, calls, golden, outcome)
    probes = ImcafProbes()
    obs.enable()
    probes.install()
    try:
        traced = imcaf_pass(instances, calls, golden, outcome)
    finally:
        probes.remove()
        recorder = obs.disable()
    spans = recorder.spans
    nodes = [
        (s["span_id"], s.get("parent_id"), s["name"],
         s["duration_seconds"] * 1e3)
        for s in spans
    ]
    n = len(calls)
    roots = [s for s in spans if s["name"] == "bench/solve_imc"]
    layers = ledger.layer_ledger(nodes, layer_of)
    sampled = [s for s in spans if s["name"] == "ric/sample_many"]
    samples = sum(s["attrs"].get("samples", 0) for s in sampled)
    sample_seconds = sum(s["duration_seconds"] for s in sampled)
    per_layer = {name: layers.get(name, 0.0) / n for name in LEDGER_LAYERS}
    per_layer.update({
        "ledger.e2e_ms": sum(s["duration_seconds"] for s in roots) * 1e3 / n,
        "sampling.samples": samples / n,
        "sampling.samples_per_s": (
            samples / sample_seconds if sample_seconds else 0.0),
        "select.engine_calls": probes.engine_calls / n,
        "estimate.trials": probes.estimate_trials / n,
        "imcaf.stages": traced.stages / n,
        "imcaf.samples": traced.samples / n,
        "obs.overhead_ratio": (
            statistics.fmean(traced.latencies)
            / statistics.fmean(plain.latencies)),
    })
    report_ledger(outcome, "imcaf", "solve", n, per_layer)
    finish(outcome)
    return outcome


# -- serving: cluster lifecycle -------------------------------------------


def cluster_config(memory_budget_bytes: Optional[int] = None,
                   run_dir: Optional[str] = None) -> ClusterConfig:
    return ClusterConfig(
        SERVE_SCENARIOS,
        replicas=len(REPLICA_IDS),
        workers=1,
        memory_budget_bytes=memory_budget_bytes,
        run_dir=run_dir,
    )


def replica_pids(cluster: ServingCluster) -> List[int]:
    return [
        replica["pid"]
        for replica in cluster.supervisor.status()["replicas"]
        if replica["pid"] is not None
    ]


def helper_pids() -> List[int]:
    """Processes the interpreter starts for itself (spawn's tracker)."""
    pid = getattr(resource_tracker._resource_tracker, "_pid", None)
    return [pid] if pid is not None else []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            text = handle.read()
    except OSError:
        return False
    return text[text.rfind(")") + 2:].split()[0] != "Z"


def kill_and_wait(pids: Iterable[int], timeout: float = 10.0) -> None:
    """SIGKILL ``pids`` and wait until each has ended."""
    pids = list(pids)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    break
            except ChildProcessError:
                if not _alive(pid):
                    break
            time.sleep(0.05)


def check_no_leaks(outcome: Outcome, groups: Iterable[int] = ()) -> None:
    """Fail the run if a replica or sampler process outlived its stop.

    A leaked process would perturb the next run, so it is killed here
    after being reported.
    """
    leaked = ledger.leaked_processes(
        ledger.process_table(), os.getpid(), groups, helper_pids())
    if leaked:
        outcome.problem(f"processes outlived the run: {leaked}")
        kill_and_wait(leaked)


def stop_cluster(cluster: ServingCluster, outcome: Outcome) -> None:
    groups = replica_pids(cluster)
    cluster.stop()
    check_no_leaks(outcome, groups)


def finish(outcome: Outcome) -> None:
    """Stop the helpers this run started and check nothing remains."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
    check_no_leaks(outcome)


def repeated_setup(setup: Callable[[], object],
                   teardown: Callable[[object], None]):
    """Run ``setup`` :data:`SETUP_REPEATS` times; keep the last state.

    Every workload's set-up is compute (instance builds, replica starts,
    warm solves), so each is one round between two speed probes and is
    reported at the reference speed.
    """
    seconds = []
    state = None
    for attempt in range(SETUP_REPEATS):
        rounds = speed.Rounds()
        rounds.boundary()
        state = setup()
        rounds.boundary()
        seconds.append(rounds.scaled_elapsed())
        if attempt < SETUP_REPEATS - 1:
            teardown(state)
    return state, seconds


# -- serving: requests ----------------------------------------------------


@dataclass
class Request:
    """One ``/solve`` round trip as the client saw it."""

    query: Dict
    status: int = 0
    body: bytes = b""
    seconds: float = 0.0
    trace_id: Optional[str] = None
    server_timing: Optional[str] = None
    error: Optional[str] = None
    #: Index of its lockstep round, if the clients went in rounds.
    round: Optional[int] = None


def query(scenario: str, budget: int) -> Dict:
    return {"scenario": scenario, "budget": budget, "solver": "UBG"}


def post_solve(host: str, port: int, payload: Dict) -> Request:
    """One request on its own connection, like an independent caller."""
    request = Request(payload)
    began = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT)
    try:
        conn.request(
            "POST", "/solve", body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        request.body = response.read()
        request.status = response.status
        request.trace_id = response.getheader("X-Repro-Trace-Id")
        request.server_timing = response.getheader("Server-Timing")
    except (OSError, http.client.HTTPException) as exc:
        request.error = f"{type(exc).__name__}: {exc}"
    finally:
        conn.close()
        request.seconds = time.perf_counter() - began
    return request


def get_json(host: str, port: int, path: str) -> Dict:
    conn = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise ClusterError(f"GET {path} answered {response.status}")
        return json.loads(data)
    finally:
        conn.close()


def closed_loop(address, plans: Sequence[Iterable[Dict]],
                until: Optional[float] = None,
                rounds: Optional[speed.Rounds] = None,
                ) -> Tuple[List[Request], float]:
    """One client thread per plan; each waits for its answer to go on.

    ``until`` (a ``perf_counter`` deadline) bounds time-limited plans.
    With ``rounds`` the clients go in lockstep: they meet at a barrier
    before every request, where, with no request in flight, one of them
    runs the speed probe and takes the next payload of every plan. So
    equal plans arrive at the server together, and each request knows
    its round. The loop ends when any plan does.
    """
    host, port = address
    iterators = [iter(plan) for plan in plans]
    results: List[List[Request]] = [[] for _ in plans]
    errors: List[str] = []
    turn: Dict = {"round": -1, "payloads": None}

    def next_round() -> None:
        rounds.boundary()
        payloads = [next(it, None) for it in iterators]
        expired = until is not None and time.perf_counter() >= until
        turn["round"] += 1
        turn["payloads"] = None if expired or None in payloads else payloads

    barrier = (threading.Barrier(len(plans), action=next_round)
               if rounds is not None else None)

    def client(index: int) -> None:
        try:
            if barrier is None:
                for payload in iterators[index]:
                    if until is not None and time.perf_counter() >= until:
                        break
                    results[index].append(post_solve(host, port, payload))
                return
            while True:
                barrier.wait(timeout=HTTP_TIMEOUT)
                if turn["payloads"] is None:
                    break
                request = post_solve(host, port, turn["payloads"][index])
                request.round = turn["round"]
                results[index].append(request)
        except threading.BrokenBarrierError as exc:
            errors.append(f"client {index}: {exc!r}")

    threads = [
        threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
        for i in range(len(plans))
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    if errors:
        raise ClusterError("; ".join(errors))
    return [request for batch in results for request in batch], elapsed


def answer_flags(body: bytes) -> Tuple[Dict, Dict]:
    """Split a ``/solve`` body into its deterministic payload and the
    volatile ``batched``/``cache_hit`` flags."""
    payload = json.loads(body.decode("utf-8"))
    flags = {name: payload.pop(name, None) for name in ("batched", "cache_hit")}
    return payload, flags


def check_answers(requests: Sequence[Request], golden, outcome: Outcome,
                  phase: str, cache_hits: bool = False) -> None:
    """Every answer against its golden, then duplicates among themselves."""
    for request in requests:
        outcome.attempted += 1
        key = serve_key(request.query["scenario"], request.query["budget"])
        if request.error is not None:
            outcome.fail(f"{phase} {key}: {request.error}")
            continue
        if request.status != 200:
            outcome.fail(f"{phase} {key}: HTTP {request.status} "
                         f"{request.body[:200]!r}")
            continue
        payload, flags = answer_flags(request.body)
        expected = golden["serve"].get(key)
        if payload != expected:
            outcome.fail(f"{phase} {key}: got {payload}, golden {expected}")
        elif cache_hits and flags["cache_hit"] is not True:
            outcome.fail(f"{phase} {key}: expected a solve-cache hit")
    result = PhaseResult(phase=phase, queries=[r.query for r in requests])
    result.responses = [(r.status, r.body) for r in requests]
    result.latencies = [r.seconds for r in requests]
    result.errors = [r.error for r in requests if r.error is not None]
    try:
        result.golden()
    except ClusterError as exc:
        outcome.problem(str(exc))


# -- serving: workload shapes ---------------------------------------------


@dataclass(frozen=True)
class ServeShape:
    """How one serving workload sets up and drives the cluster."""

    memory_budget_bytes: Optional[int]
    #: seed -> set-up queries (warm shards, fill hot caches).
    warm: Callable[[int], List[Dict]]
    #: (seed, seconds) -> one query plan per client.
    plans: Callable[[int, float], List[Iterable[Dict]]]
    #: Run for ``seconds`` (else until the plans are done).
    timed: bool = False
    #: Every timed answer must come from the solve cache.
    cache_hits: bool = False


def _hot_plans(seed: int, seconds: float) -> List[Iterable[Dict]]:
    # Each client keeps to the keys of one replica. Two clients on the
    # same replica would interleave on its pooled connections, and how
    # often they do depends on the key order: the run-to-run spread of
    # throughput came from that, not from the code measured.
    rng = random.Random(seed)
    plans = []
    for replica in REPLICA_IDS:
        order = [query(s, k) for s, k in HOT_KEYS
                 if assign_replica(s, REPLICA_IDS) == replica]
        rng.shuffle(order)
        plans.append(itertools.cycle(order))
    return plans


def _solve_plans(seed: int, seconds: float) -> List[Iterable[Dict]]:
    # Both clients send the same keys in the same order, in lockstep.
    # The phase is timed; at about 15 requests a second a 20 s run uses
    # some 150 of the 234 keys.
    keys = [
        query(name, k)
        for name in sorted(SERVE_SCENARIOS)
        for k in range(2, SOLVE_BUDGET_MAX + 1)
    ]
    random.Random(seed).shuffle(keys)
    return [keys, keys]


def _cold_rotation(seed: int) -> List[str]:
    names = sorted(SERVE_SCENARIOS)
    start = random.Random(seed).randrange(len(names))
    return names[start:] + names[:start]


def _cold_plans(seed: int, seconds: float) -> List[Iterable[Dict]]:
    # Endless: the phase is timed, so a run measures all of ``seconds``.
    rng = random.Random(seed + 1)
    rotation = _cold_rotation(seed)
    return [(
        query(name, rng.choice(COLD_BUDGETS))
        for name in itertools.cycle(rotation)
    )]


def _cold_warm(seed: int) -> List[Dict]:
    # The same rotation as the timed plan: afterwards each replica holds
    # the last of its scenarios, and the timed plan starts with another,
    # so every timed request misses.
    return [query(name, WARM_BUDGET) for name in _cold_rotation(seed)]


def _placement_ok() -> bool:
    homes = [assign_replica(name, REPLICA_IDS) for name in SERVE_SCENARIOS]
    return all(homes.count(rid) >= 2 for rid in REPLICA_IDS)


SHAPES = {
    "serve-hot": ServeShape(
        memory_budget_bytes=None,
        warm=lambda seed: [query(s, k) for s, k in HOT_KEYS],
        plans=_hot_plans,
        timed=True,
        cache_hits=True,
    ),
    "serve-solve": ServeShape(
        memory_budget_bytes=None,
        warm=lambda seed: [query(name, WARM_BUDGET)
                           for name in sorted(SERVE_SCENARIOS)],
        plans=_solve_plans,
        timed=True,
    ),
    # One byte is below any shard, so the store keeps only the shard
    # that just answered and evicts the replica's other one.
    "serve-cold": ServeShape(
        memory_budget_bytes=1,
        warm=_cold_warm,
        plans=_cold_plans,
        timed=True,
    ),
}


def serve_setup(shape: ServeShape, seed: int,
                run_dir: Optional[str] = None) -> ServingCluster:
    cluster = ServingCluster(
        cluster_config(shape.memory_budget_bytes, run_dir)).start()
    try:
        host, port = cluster.router_address
        for payload in shape.warm(seed):
            request = post_solve(host, port, payload)
            if request.error is not None or request.status != 200:
                raise ClusterError(
                    f"set-up request {payload} failed: "
                    f"{request.error or request.status}")
    except BaseException:
        cluster.stop()
        raise
    return cluster


def serve_phase(cluster: ServingCluster, name: str, seed: int,
                seconds: float,
                ) -> Tuple[List[Request], float, Optional[speed.Rounds]]:
    """The timed requests; scaled workloads go in lockstep rounds."""
    shape = SHAPES[name]
    rounds = speed.Rounds() if WORKLOADS[name].scaled else None
    until = time.perf_counter() + seconds if shape.timed else None
    requests, elapsed = closed_loop(
        cluster.router_address, shape.plans(seed, seconds), until=until,
        rounds=rounds)
    return requests, elapsed, rounds


def status_counters(cluster: ServingCluster) -> Dict[str, int]:
    """Router and summed replica ``/status`` counters."""
    host, port = cluster.router_address
    router = get_json(host, port, "/status")
    counters = {"failovers": router["requests"]["failovers"]}
    for endpoint in cluster.supervisor.endpoints():
        status = get_json(endpoint.host, endpoint.port, "/status")
        for name in ("hits", "misses", "evictions"):
            counters[name] = counters.get(name, 0) + status["counters"][name]
        for name in ("total", "batched"):
            key = "requests." + name
            counters[key] = counters.get(key, 0) + status["requests"][name]
    return counters


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              golden) -> Outcome:
    outcome = Outcome()
    shape = SHAPES[name]
    if name == "serve-cold" and not _placement_ok():
        raise ClusterError("serve-cold needs two scenarios per replica")
    if not trace:
        cluster, setups = repeated_setup(
            lambda: serve_setup(shape, seed),
            lambda c: stop_cluster(c, outcome),
        )
        try:
            requests, elapsed, rounds = serve_phase(
                cluster, name, seed, seconds)
            rss = ledger.sum_vmhwm_mb([os.getpid()] + replica_pids(cluster))
        finally:
            stop_cluster(cluster, outcome)
        check_answers(requests, golden, outcome, name, shape.cache_hits)
        ok = [r for r in requests if r.error is None and r.status == 200]
        record_latency(outcome, WORKLOADS[name].tail,
                       [r.seconds for r in requests], elapsed,
                       completed=len(ok), rounds=rounds,
                       round_of=[r.round for r in requests])
        outcome.metrics["setup_s"] = (statistics.median(setups), "s")
        outcome.metrics["rss_peak_mb"] = (rss, "MB")
        finish(outcome)
        return outcome

    half = seconds / 2.0
    cluster = serve_setup(shape, seed)
    try:
        plain, _, _ = serve_phase(cluster, name, seed, half)
    finally:
        stop_cluster(cluster, outcome)
    check_answers(plain, golden, outcome, name + " untraced", shape.cache_hits)

    run_dir = os.path.join(RUNS_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        obs.enable()
        try:
            cluster = serve_setup(shape, seed, run_dir=run_dir)
            try:
                before = status_counters(cluster)
                traced, _, _ = serve_phase(cluster, name, seed, half)
                after = status_counters(cluster)
            finally:
                stop_cluster(cluster, outcome)
        finally:
            recorder = obs.disable()
        spans = list(recorder.spans)
        pattern = os.path.join(run_dir, "replica-*.trace.jsonl")
        for path in sorted(glob.glob(pattern)):
            spans.extend(read_jsonl(path))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass  # another run's directory is still in it
    check_answers(traced, golden, outcome, name + " traced", shape.cache_hits)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    per_layer = serve_ledger(traced, spans, delta)
    per_layer["obs.overhead_ratio"] = (
        statistics.fmean(r.seconds for r in traced)
        / statistics.fmean(r.seconds for r in plain))
    report_ledger(outcome, name, "request", len(traced), per_layer)
    finish(outcome)
    return outcome


def request_tree(request: Request, spans: Sequence[Dict],
                 timing: Dict[str, float]) -> List[ledger.Node]:
    """One request's span tree, stitched across processes, in ms.

    The client's own latency is the root; the router's ``router/solve``
    hangs below it. The replica's ``serving/request`` takes the
    ``Server-Timing`` total as its duration (so the forward span keeps
    exactly the hop), and its ``parse`` and ``batch`` phases become
    child nodes, with the leader's ``serving/compute`` inside ``batch``
    (a follower's ``batch`` is all waiting).
    """
    root = "client:" + request.trace_id
    nodes: List[ledger.Node] = [
        (root, None, "bench/request", request.seconds * 1e3)]
    names = {span["span_id"]: span["name"] for span in spans}
    single = sum(1 for s in spans if s["name"] == "serving/request") == 1
    split = single and "total" in timing
    for span in spans:
        span_id, name = span["span_id"], span["name"]
        parent = span.get("parent_id")
        duration = span["duration_seconds"] * 1e3
        if parent not in names:
            parent = root
        if split and name == "serving/request":
            duration = timing["total"]
            nodes.append((span_id + "/parse", span_id, "server/parse",
                          timing.get("parse", 0.0)))
            nodes.append((span_id + "/batch", span_id, "batching/batch",
                          timing.get("batch", 0.0)))
        elif (split and name == "serving/compute"
              and names.get(parent) == "serving/request"):
            parent = parent + "/batch"
        nodes.append((span_id, parent, name, duration))
    return nodes


def serve_ledger(requests: Sequence[Request], spans: Sequence[Dict],
                 delta: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced serving phase."""
    by_trace: Dict[str, List[Dict]] = defaultdict(list)
    for span in spans:
        trace_id = span.get("trace_id")
        if trace_id:
            by_trace[trace_id].append(span)
    nodes: List[ledger.Node] = []
    latencies: List[float] = []
    waits: List[float] = []
    cache_hits = 0
    topup_ms = rounds = samples = sample_seconds = 0.0
    for request in requests:
        if request.error is not None or request.status != 200:
            continue
        if not request.trace_id:
            continue
        mine = by_trace.get(request.trace_id, [])
        timing = ledger.parse_server_timing(request.server_timing)
        _, flags = answer_flags(request.body)
        cache_hits += flags["cache_hit"] is True
        if flags["batched"]:
            waits.append(timing.get("batch", 0.0))
        latencies.append(request.seconds * 1e3)
        nodes.extend(request_tree(request, mine, timing))
        for span in mine:
            if span["name"] == "serving/topup":
                topup_ms += span["duration_seconds"] * 1e3
                rounds += span["attrs"].get("rounds", 0)
            elif span["name"] == "ric/sample_many":
                samples += span["attrs"].get("samples", 0)
                sample_seconds += span["duration_seconds"]
    n = len(latencies)
    if not n:
        raise ClusterError("no traced request was answered")
    layers = ledger.layer_ledger(nodes, layer_of)
    per_layer = {name: layers.get(name, 0.0) / n for name in LEDGER_LAYERS}
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    total = delta.get("requests.total", 0)
    per_layer.update({
        "ledger.e2e_ms": statistics.fmean(latencies),
        "router.failovers": float(delta.get("failovers", 0)),
        "batching.batched_ratio": (
            delta.get("requests.batched", 0) / total if total else 0.0),
        "batching.follower_wait_ms": statistics.fmean(waits) if waits else 0.0,
        "shards.hit_ratio": delta.get("hits", 0) / lookups if lookups else 0.0,
        "shards.evictions": delta.get("evictions", 0) / n,
        "shards.topup_ms": topup_ms / n,
        "shards.merge_rounds": rounds / n,
        "shards.solve_cache_hit_ratio": cache_hits / n,
        "sampling.samples": samples / n,
        "sampling.samples_per_s": (
            samples / sample_seconds if sample_seconds else 0.0),
    })
    return per_layer


# -- reporting ------------------------------------------------------------


def record_latency(outcome: Outcome, tail: float, seconds: Sequence[float],
                   elapsed: float, completed: Optional[int] = None,
                   rounds: Optional[speed.Rounds] = None,
                   round_of: Sequence[int] = ()) -> None:
    """p50, tail and throughput of one timed phase.

    The tail is reported at the workload's fixed percentile ``tail``;
    a run too short to leave ``ledger.MIN_BEYOND`` samples beyond it
    falls back to the highest rung that does. With ``rounds``, operation
    ``i`` ran in round ``round_of[i]``: its time is scaled by that
    round's factor, and ``elapsed`` is replaced by the scaled wall time
    of all rounds.
    """
    if rounds is not None:
        scale = rounds.factors()
        outcome.notes.append(
            f"times scaled to the reference speed: median factor "
            f"{statistics.median(scale):.3f} over {len(scale)} rounds; "
            f"wall-clock p50 {statistics.median(seconds) * 1e3:.3f} ms, "
            f"{sum(rounds.walls):.3f} s in rounds")
        seconds = [t * scale[r] for t, r in zip(seconds, round_of)]
        elapsed = rounds.scaled_elapsed()
    ordered = sorted(seconds)
    n = len(ordered)
    q = tail
    if ledger.beyond(n, q) < ledger.MIN_BEYOND:
        q = ledger.tail_percentile(n)
    if q is None:
        raise ValueError(
            f"{n} samples leave no percentile above the median with "
            f"{ledger.MIN_BEYOND} beyond it")
    done = n if completed is None else completed
    outcome.metrics["latency_p50_ms"] = (percentile(ordered, 50) * 1e3, "ms")
    outcome.metrics["latency_tail_ms"] = (percentile(ordered, q) * 1e3, "ms")
    outcome.metrics["throughput_rps"] = (done / elapsed, "1/s")
    outcome.notes.append(
        f"latency_tail_ms is p{q:g} of {n} samples "
        f"({ledger.beyond(n, q)} beyond); {done} completed in {elapsed:.3f} s")


def report_ledger(outcome: Outcome, workload: str, unit: str, count: int,
                  per_layer: Dict[str, float]) -> None:
    """Print the ledger and fill every per-layer metric."""
    for name, metric_unit, _ in PER_LAYER:
        outcome.metrics[name] = (float(per_layer.get(name, 0.0)), metric_unit)
    e2e = per_layer["ledger.e2e_ms"]
    attributed = sum(per_layer[name] for name in LEDGER_LAYERS)
    outcome.notes.append(
        f"ledger ({workload}, traced, ms per {unit}, {count} {unit}s):")
    for name in sorted(LEDGER_LAYERS, key=lambda n: -abs(per_layer[n])):
        share = per_layer[name] / e2e if e2e else 0.0
        outcome.notes.append(
            f"  {name:<24} {per_layer[name]:10.3f}  {share:6.1%}")
    outcome.notes.append(
        f"  {'sum':<24} {attributed:10.3f}  = traced end-to-end "
        f"{e2e:.3f} ms")
    top = max((n for n in LEDGER_LAYERS if n != "unattributed_ms"),
              key=lambda n: per_layer[n])
    outcome.notes.append(
        f"  dominant layer: {top} ({per_layer[top] / e2e:.1%} of "
        f"{e2e:.3f} ms)")
    outcome.notes.append(
        f"  tracing overhead: traced / untraced mean latency = "
        f"{per_layer['obs.overhead_ratio']:.4f}")
    if abs(attributed - e2e) > 1e-6 * max(1.0, e2e):
        outcome.problem(
            f"ledger does not add up: {attributed} ms vs {e2e} ms")


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run workload ``name``; the result is ready to print."""
    workload = WORKLOADS[name]
    golden = load_golden()
    # The fingerprint asks git about the checkout; stop git's search for
    # a repository at the checkout instead of reading the directories
    # above it.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(CHECKOUT)
    header = [
        f"workload {name}: {workload.why}",
        f"  stresses: {workload.stresses}; bypasses: {workload.bypasses}",
        f"  closed loop, {workload.clients} client(s); seed {seed}, "
        f"{seconds:g} s, trace {int(trace)}",
        "environment: " + json.dumps(environment_fingerprint(CHECKOUT),
                                     sort_keys=True),
    ]
    if name == "imcaf":
        outcome = run_imcaf(seed, seconds, trace, golden)
    else:
        outcome = run_serve(name, seed, seconds, trace, golden)
    outcome.notes[:0] = header
    if not trace:
        ok = outcome.attempted - outcome.failed
        outcome.metrics["success_ratio"] = (ok / outcome.attempted, "ratio")
    expected = END_TO_END if not trace else PER_LAYER
    outcome.metrics = {
        metric: outcome.metrics[metric] for metric, _, _ in expected}
    return outcome
