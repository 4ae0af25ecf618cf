"""Metrics registry tests: gating, counters, gauges, histograms,
edge cases (bucket boundaries, negative increments, reset-after-
snapshot), snapshot merging (the fleet-aggregation primitive),
histogram quantiles and the Prometheus text export."""

import pytest

from repro.obs import (
    CATALOG,
    DEFAULT_TIME_BUCKETS,
    histogram_quantile,
    metrics,
    session,
    to_prometheus_text,
)
from repro.obs.metrics import MetricsRegistry

pytestmark = pytest.mark.obs


def test_mutators_are_noops_while_disabled():
    metrics.inc("ghost.counter", 5)
    metrics.set_gauge("ghost.gauge", 1.0)
    metrics.observe("ghost.hist", 0.01)
    snap = metrics.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
    assert metrics.get_counter("ghost.counter") == 0


def test_counters_accumulate_inside_session():
    with session() as recorder:
        metrics.inc("ric.samples.generated", 100)
        metrics.inc("ric.samples.generated", 50)
        metrics.inc("estimator.adaptive.stops")
        assert metrics.get_counter("ric.samples.generated") == 150
    assert recorder.metrics["counters"] == {
        "ric.samples.generated": 150,
        "estimator.adaptive.stops": 1,
    }
    # Session close reset the registry for the next run.
    assert metrics.snapshot()["counters"] == {}


def test_gauges_last_write_wins():
    with session() as recorder:
        metrics.set_gauge("pool.bytes", 10)
        metrics.set_gauge("pool.bytes", 42)
    assert recorder.metrics["gauges"] == {"pool.bytes": 42}


def test_histogram_buckets_fixed_at_first_observation():
    with session() as recorder:
        metrics.observe("t", 0.05, buckets=(0.1, 1.0))
        # Later bucket hints are ignored: the edges stay fixed.
        metrics.observe("t", 0.5, buckets=(99.0,))
        metrics.observe("t", 50.0)  # overflow bucket
    hist = recorder.metrics["histograms"]["t"]
    assert hist["buckets"] == [0.1, 1.0]
    assert hist["counts"] == [1, 1, 1]
    assert hist["count"] == 3
    assert hist["sum"] == pytest.approx(50.55)


def test_histogram_default_buckets_and_bad_edges():
    with session() as recorder:
        metrics.observe("d", 0.002)
        with pytest.raises(ValueError, match="ascend"):
            metrics.observe("bad", 1.0, buckets=(5.0, 1.0))
    hist = recorder.metrics["histograms"]["d"]
    assert tuple(hist["buckets"]) == DEFAULT_TIME_BUCKETS


def test_snapshot_is_a_deep_enough_copy():
    with session():
        metrics.inc("c")
        metrics.observe("h", 0.01)
        snap = metrics.snapshot()
        snap["counters"]["c"] = 999
        snap["histograms"]["h"]["counts"][0] = 999
        assert metrics.get_counter("c") == 1
        assert metrics.snapshot()["histograms"]["h"]["counts"] != [999] + [
            0
        ] * len(DEFAULT_TIME_BUCKETS)


# ---------------------------------------------------------------------
# Edge cases (bucket boundaries, gauge overwrite, reset, negative inc)
# ---------------------------------------------------------------------


def test_histogram_values_on_bucket_boundaries_are_upper_inclusive():
    # A value exactly equal to an edge counts in that edge's bucket
    # (Prometheus `le` semantics) — pinned for every edge.
    with session() as recorder:
        for edge in (1.0, 2.0, 4.0):
            metrics.observe("edges", edge, buckets=(1.0, 2.0, 4.0))
    hist = recorder.metrics["histograms"]["edges"]
    assert hist["counts"] == [1, 1, 1, 0]


def test_histogram_boundary_value_just_above_edge_moves_up():
    with session() as recorder:
        metrics.observe("edges", 1.0, buckets=(1.0, 2.0))
        metrics.observe("edges", 1.0000001, buckets=(1.0, 2.0))
    assert recorder.metrics["histograms"]["edges"]["counts"] == [1, 1, 0]


def test_gauge_overwrite_keeps_only_last_value_and_allows_regression():
    with session() as recorder:
        metrics.set_gauge("g", 100.0)
        metrics.set_gauge("g", -3.5)  # gauges may go down, unlike counters
    assert recorder.metrics["gauges"] == {"g": -3.5}


def test_reset_after_snapshot_clears_but_snapshot_survives():
    with session():
        metrics.inc("c", 2)
        metrics.set_gauge("g", 1.0)
        metrics.observe("h", 0.5, buckets=(1.0,))
        snap = metrics.snapshot()
        metrics.reset()
        assert metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        # The earlier snapshot is an independent copy.
        assert snap["counters"] == {"c": 2}
        assert snap["histograms"]["h"]["count"] == 1
        # The registry is immediately usable again.
        metrics.inc("c")
        assert metrics.get_counter("c") == 1


def test_negative_counter_increment_raises_while_active():
    # Counters are monotone; decrements are a ValueError when the
    # registry is live ...
    with session():
        metrics.inc("c", 2)
        with pytest.raises(ValueError, match="monotone"):
            metrics.inc("c", -1)
        assert metrics.get_counter("c") == 2
    # ... and stay a silent no-op while instrumentation is disabled,
    # like every other mutator.
    metrics.inc("c", -1)
    assert metrics.get_counter("c") == 0


# ---------------------------------------------------------------------
# merge_snapshot: the fleet-aggregation primitive
# ---------------------------------------------------------------------


def _snap(counters=None, gauges=None, histograms=None):
    return {
        "counters": counters or {},
        "gauges": gauges or {},
        "histograms": histograms or {},
    }


def _hist(counts, buckets=(0.1, 1.0), total=None):
    return {
        "buckets": list(buckets),
        "counts": list(counts),
        "count": sum(counts),
        "sum": total if total is not None else float(sum(counts)),
    }


def test_merge_snapshot_sums_counters_and_works_with_gate_off():
    # merge_snapshot is deliberately ungated: the router merges scraped
    # replica snapshots into a private registry regardless of whether
    # its own process has an obs session open.
    registry = MetricsRegistry()
    registry.merge_snapshot(_snap(counters={"a": 2, "b": 1}))
    registry.merge_snapshot(_snap(counters={"a": 3}))
    assert registry.snapshot()["counters"] == {"a": 5, "b": 1}


def test_merge_snapshot_gauges_label_per_source_and_never_sum():
    registry = MetricsRegistry()
    registry.merge_snapshot(_snap(gauges={"shards.active": 2}), source="r0")
    registry.merge_snapshot(_snap(gauges={"shards.active": 3}), source="r1")
    # An unlabelled merge (the local layer) is last-write-wins.
    registry.merge_snapshot(_snap(gauges={"local.gauge": 1.0}))
    registry.merge_snapshot(_snap(gauges={"local.gauge": 7.0}))
    gauges = registry.snapshot()["gauges"]
    assert gauges['shards.active{replica="r0"}'] == 2
    assert gauges['shards.active{replica="r1"}'] == 3
    assert "shards.active" not in gauges  # never summed into one value
    assert gauges["local.gauge"] == 7.0


def test_merge_snapshot_histograms_merge_bucket_wise():
    registry = MetricsRegistry()
    registry.merge_snapshot(
        _snap(histograms={"h": _hist([1, 0, 2], total=5.0)})
    )
    registry.merge_snapshot(
        _snap(histograms={"h": _hist([0, 3, 1], total=2.5)})
    )
    hist = registry.snapshot()["histograms"]["h"]
    assert hist["counts"] == [1, 3, 3]
    assert hist["count"] == 7
    assert hist["sum"] == pytest.approx(7.5)
    assert hist["buckets"] == [0.1, 1.0]


def test_merge_snapshot_mismatched_buckets_fail_loudly():
    registry = MetricsRegistry()
    registry.merge_snapshot(_snap(histograms={"h": _hist([1, 0, 0])}))
    with pytest.raises(ValueError, match="bucket"):
        registry.merge_snapshot(
            _snap(histograms={"h": _hist([1, 0, 0], buckets=(0.5, 2.0))})
        )
    with pytest.raises(ValueError, match="counts"):
        registry.merge_snapshot(
            _snap(histograms={"h": _hist([1, 0])})  # counts/edges mismatch
        )
    # Rejected snapshots leave the registry untouched.
    assert registry.snapshot()["histograms"]["h"]["count"] == 1


def test_merge_snapshot_rejects_negative_counters_before_mutating():
    registry = MetricsRegistry()
    registry.merge_snapshot(_snap(counters={"good": 1}))
    with pytest.raises(ValueError, match="negative"):
        registry.merge_snapshot(_snap(counters={"good": 2, "evil": -1}))
    # Validation happens before any mutation: "good" did not absorb the 2.
    assert registry.snapshot()["counters"] == {"good": 1}


def test_histogram_quantile_interpolates_and_clamps():
    hist = _hist([2, 6, 2], buckets=(1.0, 2.0))
    assert histogram_quantile(hist, 0.0) == pytest.approx(0.0)
    # Median: 5th of 10 observations sits mid-bucket (1.0, 2.0].
    assert 1.0 < histogram_quantile(hist, 0.5) < 2.0
    # Quantiles landing in the overflow bucket clamp to the last edge.
    assert histogram_quantile(hist, 0.99) == pytest.approx(2.0)
    assert histogram_quantile({"buckets": [1.0], "counts": [0, 0],
                               "count": 0, "sum": 0.0}, 0.5) == 0.0


# ---------------------------------------------------------------------
# Prometheus text export
# ---------------------------------------------------------------------


def test_prometheus_export_counters_gauges_histograms():
    with session():
        metrics.inc("ric.samples.generated", 100)
        metrics.set_gauge("pool.bytes", 2048)
        metrics.observe("pool.reach.histogram", 1, buckets=(1, 2, 4))
        metrics.observe("pool.reach.histogram", 3, buckets=(1, 2, 4))
        metrics.observe("pool.reach.histogram", 9, buckets=(1, 2, 4))
        text = to_prometheus_text(metrics.snapshot())
    lines = text.splitlines()
    assert "ric_samples_generated_total 100" in lines
    assert "# TYPE ric_samples_generated_total counter" in lines
    assert "pool_bytes 2048" in lines
    assert "# TYPE pool_bytes gauge" in lines
    # Cumulative buckets: le="1" holds 1, le="2" still 1, le="4" 2,
    # +Inf the full count.
    assert 'pool_reach_histogram_bucket{le="1"} 1' in lines
    assert 'pool_reach_histogram_bucket{le="2"} 1' in lines
    assert 'pool_reach_histogram_bucket{le="4"} 2' in lines
    assert 'pool_reach_histogram_bucket{le="+Inf"} 3' in lines
    assert "pool_reach_histogram_sum 13" in lines
    assert "pool_reach_histogram_count 3" in lines
    assert text.endswith("\n")


def test_prometheus_export_renders_labelled_gauges_once_per_family():
    snap = _snap(
        gauges={
            'serving.shards.active{replica="r0"}': 2,
            'serving.shards.active{replica="r1"}': 3,
        }
    )
    text = to_prometheus_text(snap)
    lines = text.splitlines()
    assert 'serving_shards_active{replica="r0"} 2' in lines
    assert 'serving_shards_active{replica="r1"} 3' in lines
    # One TYPE header for the family, not one per labelled sample.
    assert (
        sum(1 for l in lines if l == "# TYPE serving_shards_active gauge")
        == 1
    )


def test_prometheus_export_help_text_comes_from_catalog():
    snap = {"counters": {"ric.samples.generated": 7},
            "gauges": {}, "histograms": {}}
    text = to_prometheus_text(snap)
    assert (
        f"# HELP ric_samples_generated_total "
        f"{CATALOG['ric.samples.generated']}" in text
    )
    # Uncatalogued names export without a HELP line but still render.
    text = to_prometheus_text(
        {"counters": {"adhoc.name": 1}, "gauges": {}, "histograms": {}}
    )
    assert "# HELP" not in text
    assert "adhoc_name_total 1" in text


def test_prometheus_export_empty_snapshot_is_empty_string():
    assert to_prometheus_text(
        {"counters": {}, "gauges": {}, "histograms": {}}
    ) == ""
