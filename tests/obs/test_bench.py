"""Tests for the linking benchmark harness and its report schema."""

import copy
import importlib.util
from pathlib import Path

import pytest

from repro.obs.bench import (
    SCALING_WORKER_COUNTS,
    SCHEMA_VERSION,
    STAGES,
    STEER_SHARE_ABSOLUTE_TOLERANCE,
    STEER_SHARE_RELATIVE_TOLERANCE,
    BenchParams,
    check_regression,
    measure_overhead,
    overhead_problems,
    run_linking_bench,
    validate_report,
)

# Small enough to keep the suite fast; large enough for every stage to
# fire.  Every report runs every section, process-pool scaling and the
# fsyncing persistence pass included, so the tests share one report.
_PARAMS = BenchParams(entries=40, seed=7, smoke=True)


@pytest.fixture(scope="module")
def report() -> dict:
    return run_linking_bench(_PARAMS)


@pytest.fixture(scope="module")
def rerun() -> dict:
    return run_linking_bench(_PARAMS)


def test_report_passes_its_own_schema(report) -> None:
    assert validate_report(report) == []
    assert report["params"] == {"entries": 40, "seed": 7, "smoke": True}


def test_identity_fields_are_deterministic(report, rerun) -> None:
    second = rerun
    for section in ("params", "corpus", "links"):
        assert report[section] == second[section]
    assert report["cache"]["hits"] == second["cache"]["hits"]
    assert report["cache"]["misses"] == second["cache"]["misses"]


def test_warm_pass_hits_the_cache(report) -> None:
    # Cold pass misses every entry once; warm pass hits every entry once.
    assert report["cache"]["misses"] == report["corpus"]["objects"]
    assert report["cache"]["hits"] == report["corpus"]["objects"]
    assert report["cache"]["hit_rate"] == 0.5


def test_metrics_run_covers_every_stage(report) -> None:
    assert set(report["stages"]) == set(STAGES)
    for stage in STAGES:
        assert report["stages"][stage]["count"] > 0, stage


def test_persistence_run_reports_durability_section(report) -> None:
    durability = report["persistence"]
    assert durability["backend"] == "sqlite"
    assert durability["sync"] == "always"
    assert durability["restored_objects"] == durability["entries"] == 40
    assert durability["disk_bytes"] > 0
    assert durability["cold_start_sec"] > 0.0
    assert durability["wal_overhead_ratio"] > 0.0


def test_scaling_run_reports_batch_section(report) -> None:
    scaling = report["batch_scaling"]
    assert scaling["mode"] == "process"
    assert [run["workers"] for run in scaling["runs"]] == list(SCALING_WORKER_COUNTS)
    # Every worker count links the identical corpus.
    assert len({run["links"] for run in scaling["runs"]}) == 1
    # Speed-ups are over the in-process relink, not a one-worker pool.
    assert scaling["in_process_sec"] > 0.0
    assert scaling["speedups"] == {
        str(run["workers"]): scaling["in_process_sec"] / run["elapsed_sec"]
        for run in scaling["runs"]
    }


def test_validate_rejects_broken_reports(report) -> None:
    good = report

    assert validate_report("not a dict") == ["report must be a JSON object"]

    wrong_version = copy.deepcopy(good)
    wrong_version["schema_version"] = SCHEMA_VERSION + 1
    assert any("schema_version" in p for p in validate_report(wrong_version))

    missing_section = copy.deepcopy(good)
    del missing_section["throughput"]
    assert any("throughput" in p for p in validate_report(missing_section))

    bad_type = copy.deepcopy(good)
    bad_type["corpus"]["tokens"] = "many"
    assert any("corpus.tokens" in p for p in validate_report(bad_type))

    bool_not_int = copy.deepcopy(good)
    bool_not_int["links"]["links"] = True
    assert any("links.links" in p for p in validate_report(bool_not_int))

    untimed_stage = copy.deepcopy(good)
    untimed_stage["stages"]["render"]["count"] = 0
    assert any("never timed" in p for p in validate_report(untimed_stage))

    missing_stage = copy.deepcopy(good)
    del missing_stage["stages"]["steer"]
    assert any("stages.steer" in p for p in validate_report(missing_stage))

    missing_scaling = copy.deepcopy(good)
    del missing_scaling["batch_scaling"]
    assert any("batch_scaling" in p for p in validate_report(missing_scaling))

    empty_scaling_run = copy.deepcopy(good)
    empty_scaling_run["batch_scaling"] = {"mode": "process", "entries": 40}
    problems = validate_report(empty_scaling_run)
    assert any("batch_scaling.runs" in p for p in problems)
    assert any("batch_scaling.speedups" in p for p in problems)
    assert any("batch_scaling.in_process_sec" in p for p in problems)

    missing_persistence = copy.deepcopy(good)
    del missing_persistence["persistence"]
    assert any("persistence" in p for p in validate_report(missing_persistence))

    lossy_restore = copy.deepcopy(good)
    lossy_restore["persistence"] = {
        "backend": "sqlite", "sync": "always", "entries": 40,
        "ingest_memory_sec": 0.1, "ingest_journaled_sec": 0.2,
        "wal_overhead_ratio": 2.0, "disk_bytes": 1024,
        "cold_start_sec": 0.1, "restored_objects": 39,
    }
    assert any("lost corpus objects" in p for p in validate_report(lossy_restore))

    missing_resources = copy.deepcopy(good)
    del missing_resources["resources"]["components"]["metrics"]
    missing_resources["resources"]["within_2x"] = False
    problems = validate_report(missing_resources)
    assert any("resources.components.metrics" in p for p in problems)
    assert any("within_2x" in p for p in problems)


def test_check_regression_gates_on_steer_share(report) -> None:
    baseline = report
    cold = baseline["throughput"]["cold_elapsed_sec"]
    share = baseline["stages"]["steer"]["sum_sec"] / cold
    # A steer share that moved up by less than both tolerances passes.
    # (Built from the report: two timed 40-entry runs can differ by more
    # than both; CI's --smoke --gate step compares real timings.)
    nudged = copy.deepcopy(baseline)
    rise = 0.5 * min(
        STEER_SHARE_RELATIVE_TOLERANCE * share, STEER_SHARE_ABSOLUTE_TOLERANCE
    )
    nudged["stages"]["steer"]["sum_sec"] = (share + rise) * cold
    assert check_regression(nudged, baseline) == []

    # Losing the steering fast path (steer balloons to most of the cold
    # pass) must fail, with both limits quoted in the message.
    regressed = copy.deepcopy(baseline)
    regressed["stages"]["steer"]["sum_sec"] = (
        regressed["throughput"]["cold_elapsed_sec"] * 0.9
    )
    problems = check_regression(regressed, baseline)
    assert len(problems) == 1
    assert "steer stage regressed" in problems[0]

    # Small jitter within the absolute tolerance passes even when the
    # relative limit is exceeded (tiny baselines would be flaky gates).
    jitter = copy.deepcopy(baseline)
    jitter["stages"]["steer"]["sum_sec"] = (
        baseline["stages"]["steer"]["sum_sec"]
        + 0.04 * baseline["throughput"]["cold_elapsed_sec"]
    )
    assert check_regression(jitter, baseline) == []

    # Reports without steer timings cannot be gated.
    no_stages = copy.deepcopy(baseline)
    no_stages["stages"] = {}
    assert any("current report" in p for p in check_regression(no_stages, baseline))
    assert any("baseline report" in p for p in check_regression(baseline, no_stages))


def test_resources_section_reconciles_and_profiles(report) -> None:
    resources = report["resources"]
    assert set(resources["components"]) == {
        "objects", "map_segments", "invalidation",
        "render_cache", "trace_ring", "metrics",
    }
    for name, component in resources["components"].items():
        assert component["bytes"] >= 0, name
        assert component["peak_bytes"] >= component["bytes"], name
    assert resources["within_2x"] is True
    # The profiler smoke is the overhead check's accounting pass alone.
    assert "profiler" not in resources


def test_profile_overhead_keeps_renderings_identical() -> None:
    overhead = measure_overhead(_PARAMS)
    assert set(overhead["passes"]) == {"plain", "metrics", "tracing", "accounting"}
    for name, body in overhead["passes"].items():
        assert body["renderings_identical"] is True, name
        assert body["sha256"] == overhead["passes"]["plain"]["sha256"], name
        assert body["seconds"] > 0.0, name
    assert overhead["passes"]["accounting"]["reconciles"] >= 1
    assert overhead["profile_samples"] > 0
    assert overhead["collapsed"].strip() != ""
    assert overhead_problems(overhead) == []


def test_overhead_problems_name_each_failed_check() -> None:
    passes = {
        name: {"renderings_identical": True}
        for name in ("plain", "metrics", "tracing", "accounting")
    }
    passes["metrics"]["renderings_identical"] = False
    passes["accounting"]["reconciles"] = 0
    problems = overhead_problems({"passes": passes, "profile_samples": 0})
    assert len(problems) == 3
    assert any(problem.startswith("metrics pass") for problem in problems)
    assert any("no samples" in problem for problem in problems)
    assert any("never reconciled" in problem for problem in problems)


def test_bench_script_has_no_metrics_switch(capsys) -> None:
    # Every report runs every section; there is nothing to switch off.
    script = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_linking.py"
    spec = importlib.util.spec_from_file_location("bench_linking_script", script)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as excinfo:
        module.main(["--no-metrics"])
    assert excinfo.value.code == 2
    assert "--no-metrics" in capsys.readouterr().err
