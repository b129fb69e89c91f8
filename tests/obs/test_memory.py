"""Tests for the per-component memory accounting layer."""

import sys
import threading
from collections import deque

from repro.obs.memory import (
    SMALL_COMPONENT_BYTES,
    MemoryAccountant,
    deep_sizeof,
    estimate_container,
    estimate_dict_entry,
    estimate_object,
    estimate_set_entry,
    estimate_str,
    estimate_strs,
    within_ratio,
)


class TestEstimators:
    def test_str_estimate_tracks_getsizeof(self) -> None:
        for text in ("", "a", "hypotenuse", "x" * 500):
            actual = sys.getsizeof(text)
            estimate = estimate_str(text)
            assert abs(estimate - actual) <= max(16, actual * 0.2), text

    def test_strs_sums_parts(self) -> None:
        parts = ["alpha", "beta", "gamma"]
        assert estimate_strs(parts) == sum(estimate_str(p) for p in parts)

    def test_container_and_entry_estimates_are_positive(self) -> None:
        assert estimate_container(0) > 0
        assert estimate_container(10) > estimate_container(0)
        assert estimate_dict_entry(28) == estimate_dict_entry() + 28
        assert estimate_set_entry() > 0
        assert estimate_object(5) > estimate_object(0)


class TestDeepSizeof:
    def test_shared_objects_count_once(self) -> None:
        shared = "x" * 1000
        single = deep_sizeof(([shared],))
        doubled = deep_sizeof(([shared, shared],))
        # The second reference adds a list slot, not another kilobyte.
        assert doubled - single < 100

    def test_walks_dicts_instances_and_slots(self) -> None:
        class Slotted:
            __slots__ = ("payload",)

            def __init__(self) -> None:
                self.payload = "y" * 512

        class Plain:
            def __init__(self) -> None:
                self.data = {"key": "z" * 512}

        assert deep_sizeof((Slotted(),)) > 512
        assert deep_sizeof((Plain(),)) > 512

    def test_skips_classes_modules_and_functions(self) -> None:
        baseline = deep_sizeof(([],))
        with_refs = deep_sizeof(([str, sys, deep_sizeof],))
        assert with_refs <= baseline + 100

    def test_max_objects_bounds_traversal(self) -> None:
        big = [[i] for i in range(10_000)]
        bounded = deep_sizeof((big,), max_objects=10)
        unbounded = deep_sizeof((big,))
        assert 0 < bounded < unbounded

    def test_follows_deques(self) -> None:
        samples = deque(float(i) + 0.5 for i in range(1000))
        assert deep_sizeof((samples,)) >= sys.getsizeof(samples) + 1000 * 24


class TestMemoryAccountant:
    def test_sample_reads_estimates_and_tracks_peaks(self) -> None:
        accountant = MemoryAccountant()
        size = {"value": 100}
        accountant.register("comp", lambda: size["value"])
        assert accountant.sample() == {"comp": 100}
        size["value"] = 500
        assert accountant.sample() == {"comp": 500}
        size["value"] = 50
        assert accountant.sample() == {"comp": 50}
        assert accountant.peaks() == {"comp": 500}

    def test_reconcile_reports_ratio_against_deep_walk(self) -> None:
        accountant = MemoryAccountant()
        payload = ["x" * 4096 for _ in range(8)]
        true_size = deep_sizeof((payload,))
        accountant.register("comp", lambda: true_size, lambda: (payload,))
        report = accountant.reconcile()
        assert report["comp"]["estimate"] == float(true_size)
        assert report["comp"]["deep"] == float(true_size)
        assert report["comp"]["ratio"] == 1.0
        assert within_ratio(report)

    def test_tiny_components_pin_to_ratio_one(self) -> None:
        accountant = MemoryAccountant()
        # Estimate 0 vs a non-empty shell: below the smallness floor the
        # discrepancy is fixed-shell noise, not estimator drift.
        accountant.register("idle", lambda: 0, lambda: ({},))
        report = accountant.reconcile()
        assert report["idle"]["ratio"] == 1.0
        assert report["idle"]["deep"] <= SMALL_COMPONENT_BYTES

    def test_snapshot_carries_reconcile_age_and_count(self) -> None:
        accountant = MemoryAccountant()
        accountant.register("comp", lambda: 10, lambda: ([],))
        before = accountant.snapshot()
        assert before["reconcile_age_sec"] is None
        assert before["reconcile_count"] == 0
        accountant.reconcile()
        after = accountant.snapshot()
        assert after["reconcile_count"] == 1
        assert after["reconcile_age_sec"] >= 0.0
        assert after["components"]["comp"]["bytes"] == 10

    def test_reconciles_only_when_asked(self) -> None:
        threads = set(threading.enumerate())
        accountant = MemoryAccountant()
        accountant.register("comp", lambda: 10, lambda: ([],))
        for _ in range(3):
            accountant.sample()
            accountant.snapshot()
        assert accountant.snapshot()["reconcile_count"] == 0
        accountant.reconcile()
        assert accountant.snapshot()["reconcile_count"] == 1
        assert set(threading.enumerate()) == threads


class TestWithinRatio:
    def test_bounds_are_symmetric(self) -> None:
        good = {"a": {"ratio": 1.5}, "b": {"ratio": 0.6}}
        assert within_ratio(good, bound=2.0)
        assert not within_ratio({"a": {"ratio": 2.5}}, bound=2.0)
        assert not within_ratio({"a": {"ratio": 0.4}}, bound=2.0)
        assert not within_ratio({"a": {"ratio": float("inf")}}, bound=2.0)
