"""Tests for the metrics core: counters, gauges, histogram percentiles."""

import threading

from repro.obs.metrics import (
    DEFAULT_WINDOW,
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    empty_snapshot,
    merge_series,
)


class TestHistogramPercentiles:
    def test_nearest_rank_on_1_to_100(self) -> None:
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(value)
        summary = histogram.summary()
        assert (summary.p50, summary.p95, summary.p99) == (50, 95, 99)
        assert (summary.min, summary.max) == (1, 100)

    def test_single_sample_is_every_percentile(self) -> None:
        histogram = Histogram()
        histogram.observe(7.5)
        summary = histogram.summary()
        assert summary.p50 == summary.p95 == summary.p99 == 7.5
        assert summary.count == 1
        assert summary.min == summary.max == 7.5

    def test_empty_summary_is_zeroes(self) -> None:
        summary = Histogram().summary()
        assert summary.count == 0
        assert summary.sum == 0.0
        assert summary.p50 == summary.p95 == summary.p99 == 0.0

    def test_unordered_observations(self) -> None:
        histogram = Histogram()
        for value in (9, 1, 5, 3, 7):
            histogram.observe(value)
        assert histogram.summary().p50 == 5
        assert histogram.summary().min == 1
        assert histogram.summary().max == 9

    def test_window_bounds_samples_but_not_totals(self) -> None:
        histogram = Histogram()
        total = DEFAULT_WINDOW + 100
        for value in range(total):
            histogram.observe(value)
        assert len(histogram) == DEFAULT_WINDOW
        assert histogram.count == total
        assert histogram.sum == sum(range(total))
        # Percentiles cover only the most recent window (100..total-1).
        summary = histogram.summary()
        assert summary.p50 == 100 + DEFAULT_WINDOW // 2 - 1
        assert summary.min == 0


class TestNullRecorder:
    def test_disabled_and_inert(self) -> None:
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.inc("x")
        recorder.set_gauge("y", 1.0)
        recorder.observe("z", 0.5)
        assert recorder.snapshot() == empty_snapshot()

    def test_shared_instance(self) -> None:
        assert NULL_RECORDER.enabled is False


class TestRegistry:
    def test_counter_accumulates_per_label_set(self) -> None:
        registry = MetricsRegistry()
        registry.inc("requests", method="ping")
        registry.inc("requests", method="ping")
        registry.inc("requests", method="linkEntry", value=3)
        assert registry.counter_value("requests", method="ping") == 2
        assert registry.counter_value("requests", method="linkEntry") == 3
        assert registry.counter_value("requests", method="absent") == 0

    def test_gauge_overwrites(self) -> None:
        registry = MetricsRegistry()
        registry.set_gauge("objects", 5)
        registry.set_gauge("objects", 9)
        assert registry.gauge_value("objects") == 9

    def test_histogram_summary_by_label(self) -> None:
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            registry.observe("latency", value, stage="match")
        summary = registry.histogram_summary("latency", stage="match")
        assert summary.count == 3
        assert summary.p50 == 0.2
        assert registry.histogram_summary("latency", stage="absent").count == 0

    def test_snapshot_shape_and_determinism(self) -> None:
        registry = MetricsRegistry()
        registry.inc("b_total", method="z")
        registry.inc("a_total")
        registry.set_gauge("g", 1.5)
        registry.observe("h_seconds", 0.25, stage="match")
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert [c["name"] for c in first["counters"]] == ["a_total", "b_total"]
        histogram = first["histograms"][0]
        assert histogram["labels"] == {"stage": "match"}
        assert histogram["count"] == 1
        assert histogram["p99"] == 0.25

    def test_snapshot_is_json_serializable(self) -> None:
        import json

        registry = MetricsRegistry()
        registry.observe("h", 0.5, stage="steer")
        assert json.loads(json.dumps(registry.snapshot()))["histograms"][0]["sum"] == 0.5

    def test_concurrent_increments_do_not_lose_updates(self) -> None:
        registry = MetricsRegistry()

        def work() -> None:
            for _ in range(1000):
                registry.inc("hits")
                registry.observe("lat", 0.001, stage="match")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("hits") == 8000
        assert registry.histogram_summary("lat", stage="match").count == 8000


class TestMergeSeries:
    def test_appends_external_counters_and_gauges(self) -> None:
        snapshot = merge_series(
            empty_snapshot(),
            counters=[("cache_hits_total", {}, 5)],
            gauges=[("objects", {"corpus": "pm"}, 42)],
        )
        assert snapshot["counters"] == [
            {"name": "cache_hits_total", "labels": {}, "value": 5.0}
        ]
        assert snapshot["gauges"][0]["labels"] == {"corpus": "pm"}
