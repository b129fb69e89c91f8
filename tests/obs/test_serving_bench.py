"""Tests for the serving benchmark harness and its report schema.

One real benchmark run (tiny, shared across the module) exercises the
live-server path end to end; everything else validates the schema and
gate logic against synthetic reports so the suite stays fast.
"""

import copy
import json

import pytest

from repro.obs.bench import (
    PING_P50_GATE_MS,
    SERVING_SCHEMA_VERSION,
    ServingParams,
    check_serving_regression,
    run_serving_bench,
    validate_serving_report,
)

# Small enough to keep the suite fast (one burst of 60 per transport,
# one short curve point each); large enough that every section of the
# report is populated from live traffic and the pipelined transport's
# advantage clears run-to-run jitter.
_PARAMS = ServingParams(
    smoke=True,
    seed=7,
    burst_requests=60,
    curve_fractions=(0.5,),
    curve_duration_s=0.3,
    serial_concurrency=4,
    pipelined_concurrency=8,
    overhead_samples=20,
)


@pytest.fixture(scope="module")
def report() -> dict:
    return run_serving_bench(_PARAMS)


class TestLiveRun:
    def test_report_passes_its_own_schema(self, report: dict) -> None:
        assert validate_serving_report(report) == []

    def test_report_is_json_serializable(self, report: dict) -> None:
        decoded = json.loads(json.dumps(report))
        assert validate_serving_report(decoded) == []

    def test_params_report_the_servers_pipeline_workers(self, report: dict) -> None:
        # The bench server admits max(64, 2 * 8) = 64, so its executor
        # runs min(32, 64) threads.
        assert report["params"]["pipeline_workers"] == 32

    def test_correctness_is_perfect(self, report: dict) -> None:
        assert report["correctness"]["checked"] > 0
        assert report["correctness"]["mismatches"] == 0

    def test_pipelining_beats_serial_baseline(self, report: dict) -> None:
        throughput = report["throughput"]
        assert (
            throughput["pipelined_max_sustained_rps"]
            > throughput["serial_max_sustained_rps"]
        )
        assert throughput["pipelined_speedup"] > 1.0

    def test_no_transport_errors(self, report: dict) -> None:
        assert report["throughput"]["serial_errors"] == 0
        assert report["throughput"]["pipelined_errors"] == 0

    def test_curves_cover_both_transports(self, report: dict) -> None:
        for mode in ("serial", "pipelined"):
            points = report["latency_curves"][mode]
            assert len(points) == len(_PARAMS.curve_fractions)
            for point in points:
                assert point["completed"] > 0
                # Sorted percentiles of one latency sample set.
                assert point["p50_ms"] <= point["p95_ms"] <= point["p99_ms"]

    def test_gate_passes_on_its_own_output(self, report: dict) -> None:
        assert check_serving_regression(report) == []
        assert check_serving_regression(report, baseline=report) == []


class TestSchemaValidation:
    def test_rejects_non_object(self) -> None:
        assert validate_serving_report([]) != []
        assert validate_serving_report(None) != []

    def test_rejects_wrong_schema_version(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["schema_version"] = SERVING_SCHEMA_VERSION + 1
        assert any("schema_version" in p for p in validate_serving_report(bad))

    def test_rejects_missing_section(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        del bad["throughput"]
        assert any("throughput" in p for p in validate_serving_report(bad))

    def test_rejects_bool_where_number_expected(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["throughput"]["pipelined_speedup"] = True
        assert any("pipelined_speedup" in p for p in validate_serving_report(bad))

    def test_rejects_empty_curve(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["latency_curves"]["pipelined"] = []
        assert any("pipelined" in p for p in validate_serving_report(bad))

    def test_rejects_malformed_curve_point(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        del bad["latency_curves"]["serial"][0]["p99_ms"]
        assert any("p99_ms" in p for p in validate_serving_report(bad))


class TestRegressionGate:
    def test_invalid_report_fails_closed(self) -> None:
        failures = check_serving_regression({"schema_version": 999})
        assert failures
        assert all(f.startswith("current report invalid") for f in failures)

    def test_mismatches_fail_the_gate(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["correctness"]["mismatches"] = 3
        assert any("mismatches" in f for f in check_serving_regression(bad))

    def test_zero_checked_fails_the_gate(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["correctness"]["checked"] = 0
        bad["correctness"]["mismatches"] = 0
        assert any("checked" in f for f in check_serving_regression(bad))

    def test_slow_ping_fails_the_gate(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["protocol_overhead"]["ping_p50_ms"] = PING_P50_GATE_MS + 1.0
        assert any("ping_p50_ms" in f for f in check_serving_regression(bad))

    def test_non_strict_speedup_fails_the_gate(self, report: dict) -> None:
        bad = copy.deepcopy(report)
        bad["throughput"]["pipelined_max_sustained_rps"] = bad["throughput"][
            "serial_max_sustained_rps"
        ]
        assert any("strictly above" in f for f in check_serving_regression(bad))

    def test_baseline_schema_mismatch_fails(self, report: dict) -> None:
        stale = copy.deepcopy(report)
        stale["schema_version"] = SERVING_SCHEMA_VERSION + 1
        assert any(
            "baseline schema_version" in f
            for f in check_serving_regression(report, baseline=stale)
        )
