"""Estimator-quality diagnostics tests.

The load-bearing contract: a ConvergenceMonitor is a *pure observer* —
attaching one (without a stopping rule) leaves every ``solve_imc``
result byte-identical for both sampling engines — while attaching a
ConvergenceCriterion turns the same machinery into adaptive sampling
that stops early and records how many samples it actually used.
"""

import math
import statistics
import sys

import pytest

from repro.communities.structure import Community, CommunityStructure
from repro.core.framework import solve_imc
from repro.core.ubg import UBG
from repro.errors import ObservabilityError
from repro.graph.generators import planted_partition_graph
from repro.graph.weights import assign_weighted_cascade
from repro.obs import metrics, session
from repro.obs.diagnostics import (
    ActivationTracker,
    ConvergenceCriterion,
    ConvergenceMonitor,
    StreamingMoments,
    bernoulli_sample_variance,
    empirical_bernstein_halfwidth,
    normal_halfwidth,
    observe_pool,
    pool_composition,
    pool_memory_bytes,
)
from repro.sampling.pool import RICSamplePool
from repro.sampling.ric import RICSampler

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def instance():
    graph, blocks = planted_partition_graph(
        [6] * 5, p_in=0.5, p_out=0.03, directed=True, seed=17
    )
    assign_weighted_cascade(graph)
    communities = CommunityStructure(
        [
            Community(members=tuple(b), threshold=2, benefit=float(len(b)))
            for b in blocks
        ]
    )
    return graph, communities


@pytest.fixture
def small_pool(instance):
    graph, communities = instance
    pool = RICSamplePool(RICSampler(graph, communities, seed=5))
    pool.grow(120)
    return pool


# ---------------------------------------------------------------------
# StreamingMoments (Welford)
# ---------------------------------------------------------------------


def test_streaming_moments_match_statistics_module():
    values = [0.3, 1.7, -2.2, 4.4, 0.0, 9.1, -0.5]
    acc = StreamingMoments()
    acc.push_many(values)
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(statistics.fmean(values))
    assert acc.variance == pytest.approx(statistics.variance(values))
    assert acc.std == pytest.approx(statistics.stdev(values))
    assert acc.min == min(values)
    assert acc.max == max(values)


def test_streaming_moments_empty_and_single():
    acc = StreamingMoments()
    assert (acc.count, acc.mean, acc.variance, acc.min) == (0, 0.0, 0.0, None)
    acc.push(3.0)
    assert acc.variance == 0.0  # unbiased variance undefined for n=1
    assert acc.as_dict()["count"] == 1


def test_streaming_moments_merge_equals_interleaved_stream():
    left, right, combined = (
        StreamingMoments(),
        StreamingMoments(),
        StreamingMoments(),
    )
    a = [1.0, 2.5, -3.0, 0.25]
    b = [10.0, -7.5, 0.0]
    left.push_many(a)
    right.push_many(b)
    combined.push_many(a + b)
    left.merge(right)
    assert left.count == combined.count
    assert left.mean == pytest.approx(combined.mean)
    assert left.variance == pytest.approx(combined.variance)
    assert left.min == combined.min and left.max == combined.max
    # Merging into an empty accumulator copies the other stream.
    empty = StreamingMoments()
    empty.merge(combined)
    assert empty.as_dict() == combined.as_dict()


# ---------------------------------------------------------------------
# Confidence intervals
# ---------------------------------------------------------------------


def test_normal_halfwidth_matches_hand_computation():
    # 95% CI: z = 1.959963...; V=0.25, n=100 -> 1.96 * 0.05
    hw = normal_halfwidth(0.25, 100, 0.05)
    assert hw == pytest.approx(1.959964 * 0.05, rel=1e-5)
    # Quarter the width at 16x the samples.
    assert normal_halfwidth(0.25, 1600, 0.05) == pytest.approx(hw / 4)


def test_empirical_bernstein_halfwidth_formula_and_edge_cases():
    v, r, n, delta = 0.2, 1.0, 50, 0.05
    expected = math.sqrt(2 * v * math.log(2 / delta) / n) + (
        7 * r * math.log(2 / delta) / (3 * (n - 1))
    )
    assert empirical_bernstein_halfwidth(v, r, n, delta) == pytest.approx(
        expected
    )
    # Bernstein is a conservative finite-sample bound: wider than the
    # CLT interval at modest n.
    assert empirical_bernstein_halfwidth(v, r, n, delta) > normal_halfwidth(
        v, n, delta
    )
    assert empirical_bernstein_halfwidth(v, r, 1, delta) == float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: normal_halfwidth(0.1, 0, 0.05),
        lambda: normal_halfwidth(-0.1, 10, 0.05),
        lambda: normal_halfwidth(0.1, 10, 1.5),
        lambda: empirical_bernstein_halfwidth(0.1, 0.0, 10, 0.05),
        lambda: bernoulli_sample_variance(-1, 10),
        lambda: bernoulli_sample_variance(11, 10),
        lambda: bernoulli_sample_variance(1, 0),
    ],
)
def test_ci_input_validation(call):
    with pytest.raises(ObservabilityError):
        call()


def test_bernoulli_sample_variance_is_welford_closed_form():
    successes, n = 7, 25
    acc = StreamingMoments()
    acc.push_many([1.0] * successes + [0.0] * (n - successes))
    assert bernoulli_sample_variance(successes, n) == pytest.approx(
        acc.variance
    )
    assert bernoulli_sample_variance(1, 1) == 0.0


# ---------------------------------------------------------------------
# ConvergenceCriterion / ActivationTracker
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ci_width": 0.0},
        {"ci_width": -0.1},
        {"ci_width": 0.1, "min_samples": 0},
        {"ci_width": 0.1, "delta": 0.0},
        {"ci_width": 0.1, "delta": 1.0},
        {"ci_width": 0.1, "method": "hoeffding"},
        {"ci_width": float("nan")},
        {"ci_width": float("inf")},
    ],
)
def test_convergence_criterion_validation(kwargs):
    with pytest.raises(ObservabilityError):
        ConvergenceCriterion(**kwargs)


def test_convergence_criterion_as_dict_round_trip():
    criterion = ConvergenceCriterion(
        ci_width=0.1, min_samples=50, delta=0.1, method="bernstein"
    )
    assert criterion.as_dict() == {
        "ci_width": 0.1,
        "min_samples": 50,
        "delta": 0.1,
        "method": "bernstein",
    }


def test_activation_tracker_observe_and_bulk_counts():
    tracker = ActivationTracker()
    tracker.observe(0, True)
    tracker.observe(0, False)
    tracker.observe(1, True)
    tracker.add_counts({0: 2, 2: 4}, {0: 2, 2: 1})
    rates = tracker.rates()
    assert rates[0] == {"seen": 4, "influenced": 3, "rate": 0.75}
    assert rates[1] == {"seen": 1, "influenced": 1, "rate": 1.0}
    assert rates[2] == {"seen": 4, "influenced": 1, "rate": 0.25}


# ---------------------------------------------------------------------
# Stopping rule mechanics
# ---------------------------------------------------------------------


def test_monitor_without_criterion_never_stops(small_pool):
    monitor = ConvergenceMonitor()
    monitor.observe_stage(small_pool, [0, 1], len(small_pool))
    assert monitor.should_stop() is False
    assert monitor.converged is False


def test_min_samples_gates_the_stop(small_pool):
    criterion = ConvergenceCriterion(ci_width=0.9, min_samples=10_000)
    monitor = ConvergenceMonitor(criterion)
    monitor.observe_stage(small_pool, [0], 100)
    assert monitor.should_stop() is False  # width fine, n too small
    loose = ConvergenceMonitor(ConvergenceCriterion(ci_width=0.9, min_samples=10))
    loose.observe_stage(small_pool, [0], 100)
    assert loose.should_stop() is True
    assert loose.converged is True


def test_zero_estimate_never_converges(small_pool):
    monitor = ConvergenceMonitor(
        ConvergenceCriterion(ci_width=0.5, min_samples=1)
    )
    monitor.observe_stage(small_pool, [], 0)
    assert monitor.trajectory[-1]["relative_width"] is None
    assert monitor.should_stop() is False


def test_bernstein_method_is_more_conservative(small_pool):
    coverage = small_pool.influenced_count([0, 1, 2])
    normal = ConvergenceMonitor(
        ConvergenceCriterion(ci_width=0.5, min_samples=1)
    )
    bernstein = ConvergenceMonitor(
        ConvergenceCriterion(ci_width=0.5, min_samples=1, method="bernstein")
    )
    normal.observe_stage(small_pool, [0, 1, 2], coverage)
    bernstein.observe_stage(small_pool, [0, 1, 2], coverage)
    assert (
        bernstein.trajectory[-1]["halfwidth"]
        > normal.trajectory[-1]["halfwidth"]
    )


# ---------------------------------------------------------------------
# Byte-identity: monitoring must not perturb results (both engines)
# ---------------------------------------------------------------------


def _result_fingerprint(result):
    return (
        tuple(result.selection.seeds),
        result.selection.objective,
        result.num_samples,
        result.iterations,
        result.stopped_by,
        result.benefit_estimate,
        result.psi,
        result.lambda_threshold,
    )


def test_monitor_is_byte_identical_serial(instance):
    graph, communities = instance
    kwargs = dict(k=3, solver=UBG(), seed=11, max_samples=2000)
    plain = solve_imc(graph, communities, **kwargs)
    monitor = ConvergenceMonitor()
    watched = solve_imc(graph, communities, convergence=monitor, **kwargs)
    assert _result_fingerprint(plain) == _result_fingerprint(watched)
    assert "estimator" not in plain.metadata
    assert watched.metadata["estimator"]["samples"] == watched.num_samples


def test_monitor_is_byte_identical_parallel(instance):
    graph, communities = instance
    kwargs = dict(
        k=3,
        solver=UBG(),
        seed=11,
        max_samples=600,
        engine="parallel",
        workers=2,
    )
    plain = solve_imc(graph, communities, **kwargs)
    watched = solve_imc(
        graph, communities, convergence=ConvergenceMonitor(), **kwargs
    )
    assert _result_fingerprint(plain) == _result_fingerprint(watched)
    # The parallel engine's profile reached the monitor's batch log.
    batches = watched.metadata["estimator"]["batches"]
    assert batches and batches[0]["mode"] == "parallel"


def test_parallel_and_serial_monitored_runs_agree(instance):
    # The two engines draw identical sample streams; the monitor's
    # trajectory must therefore be identical too.
    graph, communities = instance
    kwargs = dict(k=3, solver=UBG(), seed=11, max_samples=600)
    serial = solve_imc(
        graph, communities, convergence=ConvergenceMonitor(), **kwargs
    )
    parallel = solve_imc(
        graph,
        communities,
        convergence=ConvergenceMonitor(),
        engine="parallel",
        workers=2,
        **kwargs,
    )
    assert (
        serial.metadata["estimator"]["trajectory"]
        == parallel.metadata["estimator"]["trajectory"]
    )


# ---------------------------------------------------------------------
# Adaptive sampling
# ---------------------------------------------------------------------


def test_adaptive_mode_stops_early_and_records_usage(instance):
    graph, communities = instance
    max_samples = 50_000
    with session() as recorder:
        result = solve_imc(
            graph,
            communities,
            k=3,
            solver=UBG(),
            seed=11,
            max_samples=max_samples,
            convergence=ConvergenceCriterion(ci_width=0.3, min_samples=50),
        )
    assert result.stopped_by == "converged"
    assert result.num_samples < max_samples
    block = result.metadata["estimator"]
    assert block["converged"] is True
    assert block["samples"] == result.num_samples
    assert block["criterion"]["ci_width"] == 0.3
    assert block["relative_width"] <= 0.3
    gauges = recorder.metrics["gauges"]
    assert gauges["estimator.samples.used"] == result.num_samples
    assert gauges["estimator.samples.used"] < max_samples
    assert recorder.metrics["counters"]["estimator.adaptive.stops"] == 1
    assert "pool.bytes" in gauges
    assert "pool.reach.histogram" in recorder.metrics["histograms"]


def test_criterion_can_be_passed_directly(instance):
    # solve_imc wraps a bare criterion in a fresh monitor.
    graph, communities = instance
    result = solve_imc(
        graph,
        communities,
        k=2,
        solver=UBG(),
        seed=3,
        max_samples=20_000,
        convergence=ConvergenceCriterion(ci_width=0.5, min_samples=10),
    )
    assert result.stopped_by == "converged"
    assert result.metadata["estimator"]["criterion"]["ci_width"] == 0.5


def test_strict_criterion_does_not_stop_the_schedule(instance):
    # An unreachable width target must leave the IMCAF schedule intact.
    graph, communities = instance
    kwargs = dict(k=3, solver=UBG(), seed=11, max_samples=2000)
    plain = solve_imc(graph, communities, **kwargs)
    strict = solve_imc(
        graph,
        communities,
        convergence=ConvergenceCriterion(ci_width=1e-9, min_samples=1),
        **kwargs,
    )
    assert strict.stopped_by == plain.stopped_by != "converged"
    assert _result_fingerprint(plain) == _result_fingerprint(strict)


def test_monitor_summary_structure(instance):
    graph, communities = instance
    monitor = ConvergenceMonitor()
    solve_imc(
        graph,
        communities,
        k=3,
        solver=UBG(),
        seed=11,
        max_samples=2000,
        convergence=monitor,
    )
    block = monitor.summary()
    assert block["criterion"] is None and block["converged"] is False
    assert block["stages"] == len(block["trajectory"]) >= 1
    point = block["trajectory"][0]
    assert set(point) == {
        "samples",
        "influenced",
        "estimate",
        "halfwidth",
        "relative_width",
    }
    assert point["estimate"] == pytest.approx(
        communities.total_benefit * point["influenced"] / point["samples"]
    )
    # Per-community activation rates cover the sources seen in the pool.
    assert block["communities"]
    for stats in block["communities"].values():
        assert 0.0 <= stats["rate"] <= 1.0
    assert block["pool"]["samples"] == block["samples"]
    import json

    json.dumps(block)  # the whole block must be manifest-ready


# ---------------------------------------------------------------------
# Pool composition and footprint
# ---------------------------------------------------------------------


def test_pool_composition_counts_and_ratio(small_pool):
    composition = pool_composition(small_pool)
    total = sum(
        len(sample.reach_sets) for sample in small_pool.samples
    )
    assert composition["samples"] == len(small_pool)
    assert composition["reach_sets"] == total
    assert 0 < composition["unique_ratio"] <= 1.0
    assert composition["reach_size"]["count"] == total
    assert sum(composition["sources"].values()) == len(small_pool)
    assert composition["bytes"] > 0


def test_compact_shrinks_footprint_but_not_composition(small_pool):
    before = pool_composition(small_pool)
    stats = small_pool.compact()
    after = pool_composition(small_pool)
    # Interning rewrites references, not values.
    assert after["unique_ratio"] == before["unique_ratio"]
    assert after["reach_size"] == before["reach_size"]
    assert stats["unique_reach_sets"] == before["unique_reach_sets"]
    # Distinct-object accounting reflects the interning win.
    if stats["interned_duplicates"]:
        assert pool_memory_bytes(small_pool) < before["bytes"]


def test_footprint_counts_the_mask_index(small_pool):
    index = small_pool.mask_index
    index_bytes = sum(map(sys.getsizeof, index.values()))
    before = pool_memory_bytes(small_pool)
    assert before > index_bytes > 0
    # Growth extends the index in add(); the footprint follows it
    # without any rebuild.
    small_pool.grow(40)
    grown_index = sum(map(sys.getsizeof, index.values()))
    assert pool_memory_bytes(small_pool) - before >= grown_index - index_bytes


def test_observe_pool_emits_gated_metrics(small_pool):
    # Outside a session: metrics untouched, composition still returned.
    composition = observe_pool(small_pool)
    assert metrics.snapshot()["histograms"] == {}
    with session() as recorder:
        assert observe_pool(small_pool) == composition
    hists = recorder.metrics["histograms"]
    assert hists["pool.reach.histogram"]["count"] == composition["reach_sets"]
    assert (
        hists["pool.sources.histogram"]["count"]
        == len(composition["sources"])
    )
    assert recorder.metrics["gauges"]["pool.bytes"] == composition["bytes"]


# ---------------------------------------------------------------------
# Overhead floor (slow lane)
# ---------------------------------------------------------------------


@pytest.mark.slow
def test_monitoring_overhead_bounded(instance):
    """Excluded from tier-1 (slow, timing-sensitive): a monitored run
    must stay within a loose multiple of an unmonitored one — the
    monitor folds sizes and trajectory points, it must not re-simulate.
    The disabled path (no convergence argument) adds only None-checks,
    covered by the <3% kernel-bench budget in docs/observability.md."""
    import time

    graph, communities = instance
    kwargs = dict(k=3, solver=UBG(), seed=11, max_samples=2000)
    solve_imc(graph, communities, **kwargs)  # warm caches

    start = time.perf_counter()
    solve_imc(graph, communities, **kwargs)
    bare = time.perf_counter() - start

    start = time.perf_counter()
    solve_imc(graph, communities, convergence=ConvergenceMonitor(), **kwargs)
    monitored = time.perf_counter() - start

    assert monitored < bare * 2.0 + 0.1
