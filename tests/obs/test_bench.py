"""Tests for the linking benchmark harness and its report schema."""

import copy

from repro.obs.bench import (
    SCALING_WORKER_COUNTS,
    SCHEMA_VERSION,
    STAGES,
    BenchParams,
    check_regression,
    run_linking_bench,
    validate_report,
)

# Small enough to keep the suite fast; large enough for every stage to
# fire.  Scaling is off here (it spawns process pools) and persistence
# is off (it fsyncs every commit) — each has a dedicated test below.
_PARAMS = BenchParams(
    entries=40, seed=7, smoke=True, metrics=True, scaling=False, persistence=False
)


def test_report_passes_its_own_schema() -> None:
    report = run_linking_bench(_PARAMS)
    assert validate_report(report) == []


def test_identity_fields_are_deterministic() -> None:
    first = run_linking_bench(_PARAMS)
    second = run_linking_bench(_PARAMS)
    for section in ("params", "corpus", "links"):
        assert first[section] == second[section]
    assert first["cache"]["hits"] == second["cache"]["hits"]
    assert first["cache"]["misses"] == second["cache"]["misses"]


def test_warm_pass_hits_the_cache() -> None:
    report = run_linking_bench(_PARAMS)
    # Cold pass misses every entry once; warm pass hits every entry once.
    assert report["cache"]["misses"] == report["corpus"]["objects"]
    assert report["cache"]["hits"] == report["corpus"]["objects"]
    assert report["cache"]["hit_rate"] == 0.5


def test_metrics_run_covers_every_stage() -> None:
    report = run_linking_bench(_PARAMS)
    assert set(report["stages"]) == set(STAGES)
    for stage in STAGES:
        assert report["stages"][stage]["count"] > 0, stage


def test_no_metrics_run_has_empty_stages_and_validates() -> None:
    report = run_linking_bench(
        BenchParams(entries=40, seed=7, smoke=True, metrics=False, scaling=False,
                    persistence=False)
    )
    assert report["stages"] == {}
    assert validate_report(report) == []


def test_persistence_run_reports_durability_section() -> None:
    report = run_linking_bench(
        BenchParams(entries=30, seed=7, smoke=True, metrics=False, scaling=False,
                    persistence=True)
    )
    durability = report["persistence"]
    assert durability["backend"] == "sqlite"
    assert durability["sync"] == "always"
    assert durability["restored_objects"] == durability["entries"] == 30
    assert durability["disk_bytes"] > 0
    assert durability["cold_start_sec"] > 0.0
    assert durability["wal_overhead_ratio"] > 0.0
    assert validate_report(report) == []


def test_scaling_run_reports_batch_section() -> None:
    report = run_linking_bench(
        BenchParams(entries=30, seed=7, smoke=True, metrics=False, scaling=True)
    )
    scaling = report["batch_scaling"]
    assert scaling["mode"] == "process"
    assert [run["workers"] for run in scaling["runs"]] == list(SCALING_WORKER_COUNTS)
    # Every worker count links the identical corpus.
    assert len({run["links"] for run in scaling["runs"]}) == 1
    assert scaling["speedups"]["1"] == 1.0
    assert validate_report(report) == []


def test_validate_rejects_broken_reports() -> None:
    good = run_linking_bench(_PARAMS)

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
    empty_scaling_run["params"]["scaling"] = True
    empty_scaling_run["batch_scaling"] = {"mode": "process", "entries": 40}
    problems = validate_report(empty_scaling_run)
    assert any("batch_scaling.runs" in p for p in problems)
    assert any("batch_scaling.speedups" in p for p in problems)

    missing_persistence = copy.deepcopy(good)
    del missing_persistence["persistence"]
    assert any("persistence" in p for p in validate_report(missing_persistence))

    lossy_restore = copy.deepcopy(good)
    lossy_restore["params"]["persistence"] = True
    lossy_restore["persistence"] = {
        "backend": "sqlite", "sync": "always", "entries": 40,
        "ingest_memory_sec": 0.1, "ingest_journaled_sec": 0.2,
        "wal_overhead_ratio": 2.0, "disk_bytes": 1024,
        "cold_start_sec": 0.1, "restored_objects": 39,
    }
    assert any("lost corpus objects" in p for p in validate_report(lossy_restore))


def test_check_regression_gates_on_steer_share() -> None:
    baseline = run_linking_bench(_PARAMS)
    # A re-run of the same corpus on the same machine must pass.
    assert check_regression(run_linking_bench(_PARAMS), baseline) == []

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


def test_resources_section_reconciles_and_profiles() -> None:
    report = run_linking_bench(_PARAMS)
    resources = report["resources"]
    assert set(resources["components"]) == {
        "objects", "map_segments", "invalidation",
        "render_cache", "trace_ring", "metrics",
    }
    for name, component in resources["components"].items():
        assert component["bytes"] >= 0, name
        assert component["peak_bytes"] >= component["bytes"], name
    assert resources["within_2x"] is True
    assert resources["profiler"]["samples"] > 0
    assert resources["profiler"]["distinct_stacks"] > 0


def test_profile_overhead_keeps_renderings_identical() -> None:
    from repro.obs.bench import measure_profile_overhead

    overhead = measure_profile_overhead(
        BenchParams(entries=40, seed=7, smoke=True, metrics=False,
                    scaling=False, persistence=False,
                    resources=False)
    )
    assert overhead["renderings_identical"] is True
    assert overhead["profile_samples"] > 0
    assert overhead["collapsed"].strip() != ""


def test_resources_off_still_validates() -> None:
    report = run_linking_bench(
        BenchParams(entries=40, seed=7, smoke=True, metrics=True,
                    scaling=False, persistence=False,
                    resources=False)
    )
    assert report["resources"] == {}
    assert validate_report(report) == []
