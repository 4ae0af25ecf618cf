"""End-to-end instrumentation tests through the CLI and solve_imc.

The contract under test: instrumentation is opt-in, changes no result
(byte-identical solver output), and when opted in leaves a complete
artifact set — streaming span trace, metrics dump, and a run manifest —
that ``python -m repro report`` can render.
"""

import pytest

from repro.cli import main
from repro.errors import ObservabilityError
from repro.obs import enable, disable, read_jsonl, load_manifest, session

pytestmark = pytest.mark.obs

SOLVE_ARGS = [
    "solve",
    "--dataset",
    "facebook",
    "--scale",
    "0.08",
    "--solver",
    "UBG",
    "--k",
    "3",
    "--max-samples",
    "600",
    "--eval-trials",
    "0",
    "--seed",
    "4",
]


def _result_lines(text):
    """The lines that must be invariant under instrumentation (drop
    throughput and artifact-path reporting)."""
    return [
        line
        for line in text.splitlines()
        if not line.startswith(("sampling:", "manifest:"))
    ]


def test_solve_trace_out_produces_full_artifact_set(capsys, tmp_path):
    trace_path = tmp_path / "run.jsonl"
    metrics_path = tmp_path / "run.metrics.jsonl"
    code = main(
        SOLVE_ARGS
        + ["--trace-out", str(trace_path), "--metrics-out", str(metrics_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "seeds:" in out
    assert f"manifest: {tmp_path / 'run.manifest.json'}" in out

    # The streamed trace covers sampling, selection and evaluation.
    records = read_jsonl(str(trace_path))
    names = {r["name"] for r in records if r.get("type") == "span"}
    assert "ric/sample_many" in names
    assert "imc/select" in names
    assert "imc/evaluate" in names
    assert {"ubg/nu_arm", "ubg/c_arm"} <= names

    # The metrics dump carries the sampling counter.
    metric_records = read_jsonl(str(metrics_path))
    counters = {
        r["name"]: r["value"]
        for r in metric_records
        if r["type"] == "counter"
    }
    assert counters["ric.samples.generated"] > 0

    # The manifest binds it together: command, seeds, phases, artifacts.
    manifest = load_manifest(str(tmp_path / "run.manifest.json"))
    assert manifest["command"] == "solve"
    assert manifest["seeds"] == {"seed": 4}
    assert manifest["config"]["solver"] == "UBG"
    assert manifest["phase_timings"]["imc/select"]["count"] >= 1
    assert manifest["artifacts"] == {
        "trace": str(trace_path),
        "metrics": str(metrics_path),
    }


def test_instrumentation_does_not_change_results(capsys, tmp_path):
    assert main(SOLVE_ARGS) == 0
    plain = capsys.readouterr().out
    assert (
        main(SOLVE_ARGS + ["--trace-out", str(tmp_path / "t.jsonl")]) == 0
    )
    traced = capsys.readouterr().out
    assert _result_lines(plain) == _result_lines(traced)


def test_report_renders_manifest_and_trace(capsys, tmp_path):
    trace_path = tmp_path / "run.jsonl"
    assert main(SOLVE_ARGS + ["--trace-out", str(trace_path)]) == 0
    capsys.readouterr()

    assert main(["report", str(tmp_path / "run.manifest.json")]) == 0
    report = capsys.readouterr().out
    assert "command: solve" in report
    assert "phase timings" in report
    assert "imc/select" in report

    assert main(["report", str(trace_path)]) == 0
    trace_report = capsys.readouterr().out
    assert "spans" in trace_report
    assert "ric/sample_many" in trace_report


def test_report_on_missing_file_is_a_cli_error(capsys, tmp_path):
    assert main(["report", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sessions_do_not_nest():
    with session():
        with pytest.raises(ObservabilityError, match="already active"):
            enable()
    with pytest.raises(ObservabilityError, match="no instrumentation"):
        disable()


def test_compare_trace_out_writes_manifest(capsys, tmp_path):
    trace_path = tmp_path / "cmp.jsonl"
    code = main(
        [
            "compare",
            "--scale",
            "0.08",
            "--algorithms",
            "MAF",
            "--k",
            "3",
            "--pool-size",
            "100",
            "--eval-trials",
            "20",
            "--trace-out",
            str(trace_path),
        ]
    )
    assert code == 0
    names = {
        r["name"]
        for r in read_jsonl(str(trace_path))
        if r.get("type") == "span"
    }
    assert "experiment/run_algorithm" in names
    assert "experiment/evaluate" in names
    manifest = load_manifest(str(tmp_path / "cmp.manifest.json"))
    assert manifest["command"] == "compare"


def test_cli_adaptive_solve_records_estimator_everywhere(capsys, tmp_path):
    """--ci-width stops early on an easy instance; the manifest gains
    the estimator block, the metrics dump records samples.used below
    the configured cap, and report renders the trajectory."""
    metrics_path = tmp_path / "run.metrics.jsonl"
    code = main(
        SOLVE_ARGS
        + [
            "--ci-width",
            "0.3",
            "--min-samples",
            "50",
            "--max-samples",
            "50000",
            "--metrics-out",
            str(metrics_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive sampling converged" in out
    assert "estimator: ĉ(S) =" in out

    gauges = {
        r["name"]: r["value"]
        for r in read_jsonl(str(metrics_path))
        if r["type"] == "gauge"
    }
    assert 0 < gauges["estimator.samples.used"] < 50_000

    manifest = load_manifest(str(tmp_path / "run.metrics.manifest.json"))
    block = manifest["estimator"]
    assert block["converged"] is True
    assert block["samples"] == gauges["estimator.samples.used"]
    assert block["criterion"]["ci_width"] == 0.3

    assert main(["report", str(tmp_path / "run.metrics.manifest.json")]) == 0
    report = capsys.readouterr().out
    assert "estimator:" in report
    assert "trajectory:" in report
    assert "converged" in report


def test_cli_monitor_flag_is_byte_identical(capsys):
    assert main(SOLVE_ARGS) == 0
    plain = capsys.readouterr().out
    assert main(SOLVE_ARGS + ["--monitor"]) == 0
    monitored = capsys.readouterr().out
    # The monitored run prints one extra estimator line; everything
    # else — seeds, stop reason, objective — is identical.
    extra = [
        line
        for line in _result_lines(monitored)
        if line not in _result_lines(plain)
    ]
    assert all(line.startswith("estimator:") for line in extra)
    assert [
        line
        for line in _result_lines(monitored)
        if not line.startswith("estimator:")
    ] == _result_lines(plain)


def test_report_renders_metrics_dump_with_bucket_tables(capsys, tmp_path):
    metrics_path = tmp_path / "run.metrics.jsonl"
    assert (
        main(
            SOLVE_ARGS
            + ["--monitor", "--metrics-out", str(metrics_path)]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["report", str(metrics_path)]) == 0
    report = capsys.readouterr().out
    assert report.startswith("metrics:")
    assert "ric.samples.generated" in report
    assert "pool.reach.histogram" in report
    assert "<= 1" in report  # the per-bucket table rows


def test_bench_record_refuses_dirty_tree(capsys, tmp_path, monkeypatch):
    import repro.obs.environment as environment

    monkeypatch.setattr(environment, "working_tree_dirty", lambda cwd=None: True)
    args = [
        "bench",
        "--samples",
        "60",
        "--k",
        "2",
        "--record",
        "--output",
        str(tmp_path / "bench.json"),
    ]
    assert main(args) == 2
    assert "dirty working tree" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()
    # --allow-dirty overrides the refusal.
    assert main(args + ["--allow-dirty"]) == 0
    assert (tmp_path / "bench.json").exists()
