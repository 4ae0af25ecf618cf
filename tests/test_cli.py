"""CLI tests (direct main() invocation with captured stdout)."""

import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _build_parser, _scenarios_and_budget, main
from repro.errors import ServingError

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro *argv`` in a subprocess, bounded by a timeout."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    for name in ("facebook", "wikivote", "epinions", "dblp", "pokec"):
        assert name in out
    assert "Stand-in" in out


def test_table1_command(capsys):
    assert main(["table1", "--scale", "0.05", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "Paper nodes" in out
    assert "pokec" in out


def test_solve_command_bounded(capsys):
    code = main(
        [
            "solve",
            "--dataset",
            "facebook",
            "--scale",
            "0.1",
            "--solver",
            "MAF",
            "--k",
            "5",
            "--max-samples",
            "1500",
            "--eval-trials",
            "100",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seeds:" in out
    assert "Monte-Carlo c(S)" in out
    assert "stopped_by=" in out


@pytest.mark.parametrize("flag", ["--ci-width", "--deadline"])
def test_solve_rejects_nan_before_building_the_instance(capsys, flag):
    code = main(
        ["solve", "--dataset", "facebook", "--scale", "0.1", "--k", "3",
         flag, "nan"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "instance:" not in captured.out
    assert "error:" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_serving_flags_reject_a_bad_memory_budget(value):
    # 0 used to turn eviction off silently, and nan and inf crashed
    # with a traceback. Parsed here, not run: at a budget the flags
    # accept, ``serve`` would start a server.
    for command in ("serve", "cluster"):
        args = _build_parser().parse_args(
            [command, "--memory-budget-mb", value]
        )
        with pytest.raises(ServingError, match="--memory-budget-mb"):
            _scenarios_and_budget(args)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_serve_exits_2_on_a_non_finite_memory_budget(capsys, value):
    assert main(["serve", "--memory-budget-mb", value]) == 2
    assert "error: --memory-budget-mb" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--workers", "0"], ["--max-samples", "-5"], ["--eval-trials", "-5"]],
)
def test_solve_rejects_bad_limits_before_building_the_instance(capsys, flags):
    # --workers 0 used to fail after the build, --max-samples -5 ran as
    # if it were the first stop stage's floor, and --eval-trials -5
    # skipped the Monte-Carlo evaluation as 0 does.
    code = main(
        ["solve", "--dataset", "facebook", "--scale", "0.1", "--k", "3",
         *flags]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "instance:" not in captured.out
    assert f"error: {flags[0]} must be >= " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--trials", "0"],
        ["compare", "--trials", "-3"],
        ["compare", "--eval-trials", "0"],
        ["compare", "--resume"],
    ],
)
def test_compare_rejects_counts_before_building_the_instance(
    monkeypatch, capsys, argv
):
    # A count the run cannot honour, or --resume with nothing to
    # resume from, must fail before any instance is built.
    built = []
    monkeypatch.setattr(
        "repro.experiments.runner.build_instance",
        lambda config: built.append(config),
    )
    assert main(argv) == 2
    assert "error: " in capsys.readouterr().err
    assert not built


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["compare", "--k", "5,x"], "--k"),
        (["compare", "--k", ","], "--k"),
        (["compare", "--algorithms", ","], "--algorithms"),
        (["serve", "--datasets", ","], "--datasets"),
        # Only input that fails to parse: a cluster command that parses
        # would start a cluster.
        (["cluster", "--replica-ports", "a,b"], "--replica-ports"),
    ],
)
def test_bad_lists_exit_2_with_an_error_line(capsys, argv, flag):
    assert main(argv) == 2
    assert f"error: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--port", "{busy}"],
        ["serve", "--port", "70000"],
        ["cluster", "--replicas", "1", "--port", "{busy}"],
        ["cluster", "--replicas", "1", "--replica-ports", "70000"],
    ],
)
def test_serving_commands_exit_2_on_an_unbindable_port(argv):
    # A failed bind used to surface as an AttributeError traceback.
    with socket.socket() as holder:
        holder.bind(("127.0.0.1", 0))
        holder.listen()
        busy = str(holder.getsockname()[1])
        result = _run_cli(*(arg.format(busy=busy) for arg in argv))
    assert result.returncode == 2, result.stderr
    assert "cannot listen on 127.0.0.1:" in result.stderr
    assert "Traceback" not in result.stderr
    if "--replica-ports" in argv:
        # The replica exits on its bind error, which is no timeout.
        assert "replica r0 exited with code 2" in result.stderr
        assert "did not become healthy" not in result.stderr


def test_solve_command_lt_model(capsys):
    code = main(
        [
            "solve",
            "--dataset",
            "facebook",
            "--scale",
            "0.08",
            "--solver",
            "UBG",
            "--k",
            "4",
            "--model",
            "lt",
            "--max-samples",
            "1000",
            "--eval-trials",
            "0",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pool objective" in out


def test_solve_command_skips_eval_when_zero_trials(capsys):
    main(
        [
            "solve",
            "--scale",
            "0.08",
            "--k",
            "3",
            "--solver",
            "GreedyC",
            "--max-samples",
            "800",
            "--eval-trials",
            "0",
        ]
    )
    out = capsys.readouterr().out
    assert "Monte-Carlo" not in out


def test_figure_fig8(capsys):
    code = main(
        [
            "figure",
            "fig8",
            "--scale",
            "0.08",
            "--pool-size",
            "150",
            "--eval-trials",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "fractional" in out and "bounded" in out


def test_figure_fig7(capsys):
    code = main(
        [
            "figure",
            "fig7",
            "--dataset",
            "epinions",
            "--scale",
            "0.06",
            "--pool-size",
            "100",
            "--eval-trials",
            "30",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAF" in out and "UBG" in out


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["teleport"])


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


def test_bad_dataset_choice_exits():
    with pytest.raises(SystemExit):
        main(["solve", "--dataset", "orkut"])


def test_solve_command_with_report(capsys):
    code = main(
        [
            "solve",
            "--scale",
            "0.08",
            "--k",
            "4",
            "--solver",
            "MAF",
            "--max-samples",
            "800",
            "--eval-trials",
            "60",
            "--report",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Pr[tip]" in out
    assert "total" in out


def test_compare_command_single_trial(capsys):
    code = main(
        [
            "compare",
            "--scale",
            "0.08",
            "--algorithms",
            "MAF,KS",
            "--k",
            "3,6",
            "--pool-size",
            "120",
            "--eval-trials",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "MAF" in out and "KS" in out
    assert "runtime (s)" in out
    assert out.count("MAF") >= 2  # one row per k


def test_compare_command_repeated_trials(capsys):
    code = main(
        [
            "compare",
            "--scale",
            "0.08",
            "--algorithms",
            "MAF",
            "--k",
            "4",
            "--pool-size",
            "100",
            "--eval-trials",
            "30",
            "--trials",
            "3",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "±" in out
    assert "3 trials" in out


def test_solve_command_parallel_engine_matches_default(capsys):
    base_args = [
        "solve",
        "--dataset",
        "facebook",
        "--scale",
        "0.08",
        "--solver",
        "UBG",
        "--k",
        "4",
        "--max-samples",
        "800",
        "--eval-trials",
        "0",
        "--seed",
        "4",
    ]
    assert main(base_args) == 0
    default_out = capsys.readouterr().out
    assert main(base_args + ["--workers", "2"]) == 0
    parallel_out = capsys.readouterr().out

    # Workers receive the pickled mutable graph (without its pair
    # tables) and sample through the same kernel: same seeds and
    # objective. The "sampling:" line reports wall-clock throughput and
    # the engine, which differ between the runs; everything else must
    # match byte-for-byte.
    def _without_timing(text):
        return [
            line for line in text.splitlines()
            if not line.startswith("sampling:")
        ]

    assert "sampling: parallel engine" in parallel_out
    assert _without_timing(default_out) == _without_timing(parallel_out)


def test_bench_command_records_trajectory(capsys, tmp_path):
    artifact = tmp_path / "BENCH_kernels.json"
    args = [
        "bench",
        "--samples",
        "120",
        "--k",
        "3",
        "--record",
        "--output",
        str(artifact),
        # The test tree is routinely dirty (development checkout); the
        # dirty-tree refusal has its own test in test_obs_integration.
        "--allow-dirty",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "combined:" in out and "vs reference" in out
    assert "recorded entry 1" in out

    from repro.experiments.kernel_bench import SCHEMA, load_trajectory

    data = load_trajectory(str(artifact))
    assert data["schema"] == SCHEMA
    (entry,) = data["trajectory"]
    assert entry["samples"] == 120
    assert entry["recorded_at"].endswith("Z")
    assert set(entry["marginals_per_sec"]) == {"reference", "flat"}
    assert entry["index_seconds"] > 0
    # A second run appends rather than overwrites.
    assert main(args) == 0
    assert "recorded entry 2" in capsys.readouterr().out
    assert len(load_trajectory(str(artifact))["trajectory"]) == 2
