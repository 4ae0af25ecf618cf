"""Command-line interface.

Four subcommands cover the common workflows::

    python -m repro datasets                 # Table I stand-in registry
    python -m repro table1 --scale 0.2      # regenerate Table I
    python -m repro solve --dataset facebook --solver UBG --k 10
    python -m repro figure fig5 --dataset facebook
    python -m repro bench --record   # kernel perf trajectory
    python -m repro report run.manifest.json   # render a run manifest
    python -m repro serve --datasets facebook --port 8765
    python -m repro cluster --datasets facebook --replicas 3

``solve`` and ``compare`` accept ``--trace-out``/``--metrics-out`` to
record structured spans/metrics plus a run manifest through
``repro.obs`` (see ``docs/observability.md``); results are identical
with or without instrumentation. ``--monitor`` attaches a convergence
monitor (pure observer), and ``--ci-width W`` turns it into adaptive
sampling that stops once ĉ(S)'s relative CI width reaches ``W``.

All randomness is controlled by ``--seed``; every command prints plain
ASCII tables (the same renderer the benchmark harness uses).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, Callable, List, Optional, Sequence

from repro.core import SOLVERS, make_solver, solve_imc
from repro.datasets.registry import DATASETS
from repro.diffusion.simulator import BenefitEvaluator
from repro.errors import (
    EstimationError,
    ReproError,
    SamplingError,
    ServingError,
    SolverError,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig4_community_structure,
    fig5_benefit_regular,
    fig6_benefit_bounded,
    fig7_runtime,
    fig8_ubg_ratio,
)
from repro.experiments.reporting import ascii_table, format_series
from repro.experiments.tables import table1_text
from repro.rng import derive_seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Influence Maximization at the Community level (IMC) — "
            "ICDCS 2019 reproduction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table I dataset stand-ins")

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--scale", type=float, default=0.2)
    table1.add_argument("--seed", type=int, default=7)

    solve = sub.add_parser("solve", help="solve an IMC instance")
    solve.add_argument("--dataset", default="facebook", choices=list(DATASETS))
    solve.add_argument("--scale", type=float, default=0.2)
    solve.add_argument("--solver", default="UBG", choices=SOLVERS)
    solve.add_argument("--k", type=int, default=10)
    solve.add_argument(
        "--threshold", default="bounded", choices=["bounded", "fractional"]
    )
    solve.add_argument("--size-cap", type=int, default=8)
    solve.add_argument("--epsilon", type=float, default=0.2)
    solve.add_argument("--delta", type=float, default=0.2)
    solve.add_argument("--seed", type=int, default=7)
    solve.add_argument("--max-samples", type=int, default=20_000)
    solve.add_argument("--model", default="ic", choices=["ic", "lt"])
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan RIC sampling out to this many worker processes "
        "(default: sample serially)",
    )
    solve.add_argument(
        "--eval-trials",
        type=int,
        default=500,
        help="Monte-Carlo trials for the final c(S) estimate (0 skips)",
    )
    solve.add_argument(
        "--report",
        action="store_true",
        help="print the per-community outcome breakdown (top 15 rows)",
    )
    solve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "wall-clock budget in seconds; on expiry the best-so-far "
            "seed set is returned flagged as truncated"
        ),
    )
    solve.add_argument(
        "--ci-width",
        type=float,
        default=None,
        metavar="W",
        help=(
            "adaptive sampling: stop once the relative CI width of "
            "ĉ(S) is <= W (e.g. 0.05); attaches a ConvergenceMonitor "
            "and records the estimator block in the manifest"
        ),
    )
    solve.add_argument(
        "--min-samples",
        type=int,
        default=100,
        metavar="N",
        help=(
            "minimum pool samples before --ci-width may stop the run "
            "(default: 100)"
        ),
    )
    solve.add_argument(
        "--monitor",
        action="store_true",
        help=(
            "attach a ConvergenceMonitor without a stopping rule: "
            "records the ĉ(S) trajectory and pool diagnostics, results "
            "byte-identical to an unmonitored run"
        ),
    )
    _add_observability_flags(solve)

    compare = sub.add_parser(
        "compare", help="run several algorithms on one instance"
    )
    compare.add_argument("--dataset", default="facebook", choices=list(DATASETS))
    compare.add_argument("--scale", type=float, default=0.15)
    compare.add_argument(
        "--algorithms",
        default="UBG,MAF,HBC,KS,IM",
        help="comma-separated algorithm names",
    )
    compare.add_argument(
        "--k", default="5,10", help="comma-separated seed budgets"
    )
    compare.add_argument(
        "--threshold", default="fractional", choices=["bounded", "fractional"]
    )
    compare.add_argument("--pool-size", type=int, default=600)
    compare.add_argument("--eval-trials", type=int, default=150)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument(
        "--trials",
        type=int,
        default=1,
        help="repeat with derived seeds and report mean ± CI",
    )
    compare.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help=(
            "crash-safe checkpoint file: completed algorithm/k runs "
            "are recorded atomically so a killed comparison can resume"
        ),
    )
    compare.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from an existing --checkpoint file (without this "
            "flag an existing checkpoint is discarded and restarted)"
        ),
    )
    _add_observability_flags(compare)

    bench = sub.add_parser(
        "bench",
        help="run the kernel microbenchmarks (optionally record them)",
    )
    bench.add_argument(
        "--samples",
        type=int,
        default=10_000,
        help="RIC pool size for the benchmark workload",
    )
    bench.add_argument(
        "--k", type=int, default=10, help="seed budget for selection timing"
    )
    bench.add_argument(
        "--record",
        action="store_true",
        help=(
            "append the run to the perf-regression trajectory "
            "(benchmarks/BENCH_kernels.json)"
        ),
    )
    bench.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="trajectory artifact to append to (default: the repo's)",
    )
    bench.add_argument(
        "--allow-dirty",
        action="store_true",
        help=(
            "record even from a dirty git working tree (the stamped "
            "SHA will not describe the measured code)"
        ),
    )

    report = sub.add_parser(
        "report",
        help=(
            "render a run manifest, trace JSONL, or metrics dump as "
            "plain text"
        ),
    )
    report.add_argument(
        "path",
        help=(
            "a *.manifest.json, trace *.jsonl, or metrics JSONL "
            "produced by --trace-out/--metrics-out — or, with "
            "--cluster, a cluster run directory"
        ),
    )
    report.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "treat PATH as a cluster --run-dir and stitch its event "
            "journals, traces, manifest and fleet metrics into one "
            "timeline report"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the always-on shard server (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    _add_scenario_flags(serve)
    _add_observability_flags(serve)

    cluster = sub.add_parser(
        "cluster",
        help=(
            "run the supervised multi-replica serving cluster "
            "(see docs/serving.md)"
        ),
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port",
        type=int,
        default=8765,
        help="router front-door port (replicas bind ephemeral ports)",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=3,
        help="replica server subprocesses to supervise",
    )
    cluster.add_argument(
        "--replica-ports",
        default=None,
        metavar="P1,P2,...",
        help=(
            "comma-separated fixed replica ports (default: ephemeral, "
            "stable across restarts either way)"
        ),
    )
    _add_scenario_flags(cluster)
    cluster.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        help="seconds between supervisor health probes",
    )
    cluster.add_argument(
        "--heartbeat-failures",
        type=int,
        default=3,
        help="consecutive failed probes before a replica is restarted",
    )
    cluster.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a draining server waits for in-flight requests",
    )
    cluster.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive forward failures that open a circuit breaker",
    )
    cluster.add_argument(
        "--breaker-reset-seconds",
        type=float,
        default=1.0,
        help="cooldown before an open breaker admits a half-open probe",
    )
    cluster.add_argument(
        "--run-dir",
        default=None,
        help=(
            "cluster observability run directory: event journals, "
            "per-process traces, the topology manifest and the final "
            "fleet metrics land here (render with "
            "'python -m repro report --cluster RUNDIR')"
        ),
    )
    cluster.add_argument(
        "--no-keepalive",
        action="store_true",
        help=(
            "disable router->replica connection pooling (one fresh "
            "connection per forward)"
        ),
    )
    _add_observability_flags(cluster)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "name", choices=["fig4", "fig5", "fig6", "fig7", "fig8"]
    )
    figure.add_argument("--dataset", default="facebook", choices=list(DATASETS))
    figure.add_argument("--scale", type=float, default=0.15)
    figure.add_argument("--pool-size", type=int, default=600)
    figure.add_argument("--eval-trials", type=int, default=150)
    figure.add_argument("--seed", type=int, default=7)

    return parser


def _add_scenario_flags(subparser) -> None:
    """The scenario and shard flags ``serve`` and ``cluster`` share."""
    subparser.add_argument(
        "--datasets",
        default="facebook",
        help="comma-separated datasets to serve, one scenario each",
    )
    subparser.add_argument("--scale", type=float, default=0.2)
    subparser.add_argument(
        "--threshold", default="bounded", choices=["bounded", "fractional"]
    )
    subparser.add_argument("--size-cap", type=int, default=8)
    subparser.add_argument("--model", default="ic", choices=["ic", "lt"])
    subparser.add_argument("--seed", type=int, default=7)
    subparser.add_argument(
        "--pool-size",
        type=int,
        default=600,
        help="warm sample-pool target per shard",
    )
    subparser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="sampler worker processes per shard (default: all cores)",
    )
    subparser.add_argument(
        "--round-size",
        type=int,
        default=256,
        help="samples per synchronous merge round (bounds shard memory)",
    )
    subparser.add_argument(
        "--memory-budget-mb",
        type=float,
        default=None,
        help=(
            "evict cold shards once a server's summed pool footprint "
            "exceeds this many MiB (per replica in a cluster; default: "
            "no eviction)"
        ),
    )
    subparser.add_argument(
        "--solver",
        default="UBG",
        choices=SOLVERS,
        help="default solver for requests that do not name one",
    )
    subparser.add_argument(
        "--warm",
        action="store_true",
        help="build and warm every scenario's shard before serving",
    )


def _add_observability_flags(subparser) -> None:
    subparser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help=(
            "stream structured spans to this JSONL file and write a "
            "run manifest next to it (see docs/observability.md)"
        ),
    )
    subparser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="dump the run's counters/gauges/histograms to this file",
    )


def _with_observability(args, command: str, run) -> int:
    """Run ``run(extras)`` inside an instrumentation session when
    requested.

    With neither ``--trace-out`` nor ``--metrics-out`` this is a plain
    call — the no-op gate stays closed and results are byte-identical.
    Otherwise a session wraps the command and a manifest is written next
    to the trace (or metrics) artifact. ``extras`` is a dict the command
    may fill with extra manifest blocks (currently ``"estimator"``, the
    convergence-monitor summary of a monitored solve).
    """
    extras: dict = {}
    if not (args.trace_out or args.metrics_out):
        return run(extras)
    from repro import obs

    with obs.session(
        trace_out=args.trace_out, metrics_out=args.metrics_out
    ) as recorder:
        code = run(extras)
    artifacts = {}
    if args.trace_out:
        artifacts["trace"] = args.trace_out
    if args.metrics_out:
        artifacts["metrics"] = args.metrics_out
    manifest = obs.build_manifest(
        command,
        config={
            key: value
            for key, value in vars(args).items()
            if key != "command"
        },
        seeds={"seed": args.seed},
        spans=recorder.spans,
        metrics_snapshot=recorder.metrics,
        artifacts=artifacts,
        estimator=extras.get("estimator"),
    )
    path = obs.write_manifest(
        manifest, obs.manifest_path_for(args.trace_out or args.metrics_out)
    )
    print(f"manifest: {path}")
    return code


def _cmd_datasets() -> int:
    rows = [
        (
            spec.name,
            "Directed" if spec.directed else "Undirected",
            spec.paper_nodes,
            spec.paper_edges,
            spec.substitution,
        )
        for spec in DATASETS.values()
    ]
    print(
        ascii_table(
            ["Data", "Type", "Paper nodes", "Paper edges", "Stand-in"], rows
        )
    )
    return 0


def _cmd_table1(args) -> int:
    print(table1_text(scale=args.scale, seed=args.seed))
    return 0


def _cmd_solve(args, extras: Optional[dict] = None) -> int:
    from repro.serving import ScenarioSpec, build_instance
    from repro.utils.retry import Deadline

    # Reject bad settings before the instance build.
    if args.workers is not None and args.workers < 1:
        raise SamplingError(f"--workers must be >= 1, got {args.workers}")
    if args.max_samples < 0:
        raise SolverError(
            f"--max-samples must be >= 0, got {args.max_samples}"
        )
    if args.eval_trials < 0:
        raise EstimationError(
            f"--eval-trials must be >= 0, got {args.eval_trials}"
        )
    convergence = None
    if args.ci_width is not None:
        from repro.obs.diagnostics import ConvergenceCriterion

        convergence = ConvergenceCriterion(
            ci_width=args.ci_width, min_samples=args.min_samples
        )
    elif args.monitor:
        from repro.obs.diagnostics import ConvergenceMonitor

        convergence = ConvergenceMonitor()
    if args.deadline is not None:
        Deadline(args.deadline)  # validation only: solve_imc starts the clock

    graph, communities = build_instance(
        ScenarioSpec(
            name=args.dataset,
            dataset=args.dataset,
            scale=args.scale,
            threshold=args.threshold,
            size_cap=args.size_cap,
            model=args.model,
            seed=args.seed,
        )
    )
    print(
        f"instance: {args.dataset} n={graph.num_nodes} m={graph.num_edges} "
        f"r={communities.r} b={communities.total_benefit:g} "
        f"h_max={communities.max_threshold}"
    )
    solver = make_solver(args.solver, derive_seed(args.seed, "solver"))
    profiles: List[dict] = []
    result = solve_imc(
        graph,
        communities,
        k=args.k,
        solver=solver,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        max_samples=args.max_samples,
        model=args.model,
        workers=args.workers,
        progress=lambda info: profiles.append(info["sampling_profile"]),
        deadline=args.deadline,
        convergence=convergence,
    )
    print(f"seeds: {sorted(result.selection.seeds)}")
    if result.selection.truncated:
        print(
            f"note: deadline of {args.deadline:g}s expired — seeds are "
            "the best found in budget, not a completed run"
        )
    if profiles:
        last = profiles[-1]
        util = last["worker_utilization"]
        print(
            f"sampling: {last['mode']} engine, "
            f"{last['samples_per_sec']:.0f} samples/s, "
            f"{last['workers']} workers, batch={last['batch_size']}"
            + (f", utilization={util:.0%}" if util is not None else "")
        )
    print(
        f"stopped_by={result.stopped_by} samples={result.num_samples} "
        f"iterations={result.iterations} alpha={result.alpha:.4f}"
    )
    print(f"pool objective c_R(S) = {result.selection.objective:.3f}")
    estimator = result.metadata.get("estimator")
    if estimator is not None:
        if extras is not None:
            extras["estimator"] = estimator
        mean = estimator.get("mean")
        halfwidth = estimator.get("halfwidth")
        relative = estimator.get("relative_width")
        if mean is not None and halfwidth is not None:
            print(
                f"estimator: ĉ(S) = {mean:.3f} ± {halfwidth:.3f}"
                + (
                    f" (relative width {relative:.4f})"
                    if relative is not None
                    else ""
                )
                + f" from {estimator.get('samples', 0)} samples"
            )
        if result.stopped_by == "converged":
            print(
                f"note: adaptive sampling converged at "
                f"{result.num_samples} samples "
                f"(cap was {args.max_samples})"
            )
    if args.eval_trials > 0:
        evaluate = BenefitEvaluator(
            graph,
            communities,
            num_trials=args.eval_trials,
            model=args.model,
            seed=derive_seed(args.seed, "eval"),
        )
        print(
            f"Monte-Carlo c(S) = {evaluate(result.selection.seeds):.3f} "
            f"(of b = {communities.total_benefit:g})"
        )
    if args.report:
        from repro.experiments.solution_report import (
            render_report,
            solution_report,
        )

        outcomes = solution_report(
            graph,
            communities,
            result.selection.seeds,
            num_trials=max(args.eval_trials, 100),
            model=args.model,
            seed=derive_seed(args.seed, "report"),
        )
        print(render_report(outcomes, top=15))
    return 0


def _parse_list(
    text: str, flag: str, convert: Callable[[str], Any] = str
) -> List[Any]:
    """``flag``'s comma-separated values, each passed through ``convert``.

    An empty list, or a value ``convert`` rejects, raises
    :class:`~repro.errors.ReproError`: exit 2 with an ``error:`` line.
    """
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ReproError(f"{flag} needs at least one value, got {text!r}")
    try:
        return [convert(item) for item in items]
    except ValueError as exc:
        raise ReproError(
            f"{flag} takes {convert.__name__} values, got {text!r}"
        ) from exc


def _cmd_compare(args) -> int:
    algorithms = _parse_list(args.algorithms, "--algorithms")
    k_values = _parse_list(args.k, "--k", int)
    if args.trials < 1:
        raise ReproError(f"--trials must be >= 1, got {args.trials}")
    if args.resume and not args.checkpoint:
        raise ReproError("--resume needs --checkpoint PATH")
    config = ExperimentConfig(
        dataset=args.dataset,
        scale=args.scale,
        threshold=args.threshold,
        pool_size=args.pool_size,
        eval_trials=args.eval_trials,
        seed=args.seed,
    )
    if args.trials == 1:
        from repro.experiments.checkpoint import as_checkpoint
        from repro.experiments.runner import run_suite

        store = as_checkpoint(args.checkpoint, resume=args.resume)
        results = run_suite(config, algorithms, k_values, checkpoint=store)
        if store is not None:
            print(store.report().summary())
        rows = []
        for name in algorithms:
            for run in results[name]:
                rows.append(
                    (name, run.k, run.benefit, run.runtime_seconds)
                )
        print(
            ascii_table(["algorithm", "k", "c(S) (MC)", "runtime (s)"], rows)
        )
    else:
        if args.checkpoint:
            print(
                "note: --checkpoint applies to single-trial comparisons "
                "only; ignoring it",
                file=sys.stderr,
            )
        from repro.experiments.stats import repeat_suite

        cells = repeat_suite(config, algorithms, k_values, trials=args.trials)
        rows = [
            (
                cell.algorithm,
                cell.k,
                f"{cell.mean_benefit:.3f} ± {cell.ci_half_width:.3f}",
                cell.mean_runtime,
            )
            for cell in cells
        ]
        print(
            ascii_table(
                ["algorithm", "k", f"c(S) mean ± CI ({args.trials} trials)", "runtime (s)"],
                rows,
            )
        )
    return 0


def _cmd_bench(args) -> int:
    from repro.experiments.kernel_bench import (
        format_entry,
        record_entry,
        run_kernel_bench,
    )

    if args.record:
        from repro.obs import require_clean_tree

        require_clean_tree(args.allow_dirty)
    entry = run_kernel_bench(samples=args.samples, k=args.k)
    print(format_entry(entry))
    if args.record:
        data = record_entry(entry, args.output)
        from repro.experiments.kernel_bench import default_artifact_path

        path = args.output or default_artifact_path()
        print(
            f"recorded entry {len(data['trajectory'])} in {path}"
        )
    return 0


def _cmd_report(args) -> int:
    if getattr(args, "cluster", False):
        from repro.obs import render_cluster_report

        print(render_cluster_report(args.path))
        return 0
    from repro.obs import render_report

    print(render_report(args.path))
    return 0


def _scenarios_and_budget(args):
    """The scenario specs and memory budget (bytes) the flags name.

    A ``--memory-budget-mb`` that is not a positive finite number raises
    :class:`~repro.errors.ServingError`.
    """
    from repro.serving import default_scenarios

    budget = None
    if args.memory_budget_mb is not None:
        if not 0 < args.memory_budget_mb < math.inf:
            raise ServingError(
                f"--memory-budget-mb must be a positive finite number, "
                f"got {args.memory_budget_mb}"
            )
        budget = int(args.memory_budget_mb * 1024 * 1024)
    names = _parse_list(args.datasets, "--datasets")
    scenarios = default_scenarios(
        names,
        scale=args.scale,
        threshold=args.threshold,
        size_cap=args.size_cap,
        model=args.model,
        seed=args.seed,
        pool_size=args.pool_size,
    )
    return scenarios, budget


def _cmd_serve(args) -> int:
    from repro.serving import ShardApp, ShardStore, run_server

    scenarios, budget = _scenarios_and_budget(args)
    store = ShardStore(
        scenarios,
        workers=args.workers,
        round_size=args.round_size,
        memory_budget_bytes=budget,
    )
    app = ShardApp(
        store, default_solver=args.solver, trace_path=args.trace_out
    )
    try:
        if args.warm:
            for name in store.scenario_names():
                shard = store.get(name)
                with shard.lock:
                    shard.warm()
                print(f"warmed {name}: {len(shard.pool)} samples")
        return run_server(app, args.host, args.port)
    finally:
        app.close()


def _cmd_cluster(args) -> int:
    from repro.serving import ClusterConfig, run_cluster

    scenarios, budget = _scenarios_and_budget(args)
    replica_ports = None
    if args.replica_ports:
        replica_ports = tuple(
            _parse_list(args.replica_ports, "--replica-ports", int)
        )
    config = ClusterConfig(
        scenarios,
        replicas=args.replicas,
        host=args.host,
        router_port=args.port,
        replica_ports=replica_ports,
        workers=args.workers,
        round_size=args.round_size,
        memory_budget_bytes=budget,
        default_solver=args.solver,
        warm=args.warm,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_failures=args.heartbeat_failures,
        drain_timeout=args.drain_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset_seconds,
        run_dir=args.run_dir,
        pool_connections=not args.no_keepalive,
    )
    return run_cluster(config)


def _cmd_figure(args) -> int:
    config = ExperimentConfig(
        dataset=args.dataset,
        scale=args.scale,
        pool_size=args.pool_size,
        eval_trials=args.eval_trials,
        seed=args.seed,
    )
    if args.name == "fig4":
        results = fig4_community_structure(
            dataset=args.dataset, base_config=config
        )
        algorithms = sorted(next(iter(results.values())))
        rows = [
            [f"{formation}/s={s}"]
            + [results[(formation, s)][a] for a in algorithms]
            for (formation, s) in sorted(results)
        ]
        print(ascii_table(["instance"] + algorithms, rows))
    elif args.name in ("fig5", "fig6"):
        driver = fig5_benefit_regular if args.name == "fig5" else fig6_benefit_bounded
        k_values = (5, 10, 20, 30)
        results = driver(
            dataset=args.dataset, k_values=k_values, base_config=config
        )
        series = {
            name: [run.benefit for run in runs] for name, runs in results.items()
        }
        print(format_series("k", list(k_values), series))
    elif args.name == "fig7":
        k_values = (5, 10, 20)
        results = fig7_runtime(
            dataset=args.dataset, k_values=k_values, base_config=config
        )
        series = {
            name: [run.runtime_seconds for run in runs]
            for name, runs in results.items()
        }
        print(format_series("k", list(k_values), series))
    else:
        k_values = (2, 5, 10, 25)
        results = fig8_ubg_ratio(
            dataset=args.dataset, k_values=k_values, base_config=config
        )
        print(format_series("k", list(k_values), results))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _cmd_datasets()
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "solve":
            return _with_observability(
                args, "solve", lambda extras: _cmd_solve(args, extras)
            )
        if args.command == "compare":
            return _with_observability(
                args, "compare", lambda extras: _cmd_compare(args)
            )
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "serve":
            return _with_observability(
                args, "serve", lambda extras: _cmd_serve(args)
            )
        if args.command == "cluster":
            return _with_observability(
                args, "cluster", lambda extras: _cmd_cluster(args)
            )
        if args.command == "figure":
            return _cmd_figure(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - unreachable with required subparsers


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
