"""The linking benchmark harness behind ``benchmarks/bench_linking.py``.

Runs the full Fig. 2 pipeline over the deterministic synthetic corpus
(seeded generator, so corpus shape, match counts and link counts are
bit-for-bit reproducible) and emits the ``BENCH_linking.json`` report
that seeds the repository's performance trajectory: tokens/sec,
links/sec, per-stage latency percentiles and cache hit rates.  Every
later performance PR is judged against these numbers.

The report's *identity* fields (corpus shape, match/link/cache counts)
are deterministic for a given ``(entries, seed)``; wall-clock figures
naturally vary with the hardware.  :func:`validate_report` checks a
report against the documented schema (see ``EXPERIMENTS.md``) — CI runs
it on every emitted artifact.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.generator import GeneratorParams, load_or_generate
from repro.obs.memory import within_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.trace import NullTracer, Tracer
from repro.persistence import open_storage

__all__ = [
    "BenchParams",
    "run_linking_bench",
    "measure_metrics_overhead",
    "measure_tracing_overhead",
    "measure_profile_overhead",
    "measure_persistence",
    "validate_report",
    "check_regression",
    "SCHEMA_VERSION",
    "STAGES",
    "SMOKE_ENTRIES",
    "RESOURCE_COMPONENTS",
    "MEMORY_RATIO_BOUND",
    "SCALING_WORKER_COUNTS",
    "STEER_SHARE_RELATIVE_TOLERANCE",
    "STEER_SHARE_ABSOLUTE_TOLERANCE",
]

SCHEMA_VERSION = 8

#: Pipeline stages the report must cover when metrics are enabled.
STAGES = ("tokenize", "match", "policy", "steer", "render")

#: Corpus size for the CI smoke run (small enough for seconds, large
#: enough that every stage sees hundreds of samples).
SMOKE_ENTRIES = 120

#: Worker counts measured by the batch-scaling section (process mode).
SCALING_WORKER_COUNTS = (1, 2, 4)

#: Components the resources section must account for (the linker
#: registers exactly these with its MemoryAccountant).
RESOURCE_COMPONENTS = (
    "objects",
    "map_segments",
    "invalidation",
    "render_cache",
    "trace_ring",
    "metrics",
)

#: The incremental memory estimates must stay within this factor of
#: the deep (getsizeof-walk) sample, both ways, on the bench corpus.
MEMORY_RATIO_BOUND = 2.0

#: Regression-gate tolerances on the steer share of the cold pass: a
#: run regresses only when it exceeds the baseline share by BOTH >25%
#: relative and >5 points absolute — generous enough for CI jitter,
#: tight enough to catch the steering fast path being lost (which
#: moves the share from ~15% back to ~70%).
STEER_SHARE_RELATIVE_TOLERANCE = 0.25
STEER_SHARE_ABSOLUTE_TOLERANCE = 0.05


@dataclass(frozen=True)
class BenchParams:
    """Knobs of one benchmark run."""

    entries: int = 1500
    seed: int = 20090612
    smoke: bool = False
    metrics: bool = True
    #: Measure process-mode batch relink scaling (adds three extra
    #: corpus passes); disabled by the overhead comparison runs.
    scaling: bool = True
    #: Measure the durability cost (journaled ingest vs. in-memory)
    #: and the cold-start restore time of the sqlite backend; disabled
    #: by the overhead comparison runs.
    persistence: bool = True
    #: Measure per-component memory accounting (incremental estimates
    #: reconciled against a deep getsizeof walk, gated within 2x) and
    #: smoke the sampling profiler over a render pass; disabled by the
    #: overhead comparison runs.
    resources: bool = True

    @classmethod
    def smoke_params(cls, seed: int = 20090612, metrics: bool = True) -> "BenchParams":
        return cls(entries=SMOKE_ENTRIES, seed=seed, smoke=True, metrics=metrics)


def _build_linker(params: BenchParams) -> tuple[NNexus, Any]:
    corpus = load_or_generate(GeneratorParams(n_entries=params.entries, seed=params.seed))
    registry = MetricsRegistry() if params.metrics else None
    linker = NNexus(scheme=corpus.scheme, metrics=registry)
    linker.add_objects(corpus.objects)
    return linker, corpus


def run_linking_bench(params: BenchParams | None = None) -> dict[str, Any]:
    """One cold render pass + one warm (cache-served) pass; build a report."""
    params = params or BenchParams()
    linker, corpus = _build_linker(params)

    # Token totals counted outside the timed region (reported, not timed).
    tokenizer = linker._tokenizer
    token_total = sum(len(tokenizer.tokenize(obj.text)) for obj in corpus.objects)

    object_ids = [obj.object_id for obj in corpus.objects]

    cold_start = perf_counter()
    for object_id in object_ids:
        linker.render_object(object_id)
    cold_elapsed = perf_counter() - cold_start

    warm_start = perf_counter()
    for object_id in object_ids:
        linker.render_object(object_id)
    warm_elapsed = perf_counter() - warm_start

    stats = linker.stats.snapshot()
    cache = linker.cache.counter_snapshot()
    lookups = cache["hits"] + cache["misses"]

    # Whole-corpus relink scaling in process mode: the linker snapshot
    # (concept map + steering graph) is shipped once per worker
    # and chunks fan out, so this measures true multicore behaviour.
    batch_scaling: dict[str, Any] = {}
    if params.scaling:
        runs = []
        for workers in SCALING_WORKER_COUNTS:
            batch = BatchLinker(
                linker, fmt=None, workers=workers, mode="process",
                retain_renderings=False,
            )
            outcome = batch.run()
            runs.append(
                {
                    "workers": workers,
                    "elapsed_sec": outcome.seconds,
                    "links": outcome.links,
                }
            )
        base = runs[0]["elapsed_sec"]
        batch_scaling = {
            "mode": "process",
            "entries": len(linker),
            "runs": runs,
            "speedups": {
                str(run["workers"]): (base / run["elapsed_sec"] if run["elapsed_sec"] else 0.0)
                for run in runs
            },
        }

    persistence: dict[str, Any] = {}
    if params.persistence:
        persistence = measure_persistence(params)

    stages: dict[str, dict[str, float]] = {}
    if params.metrics:
        for stage in STAGES:
            summary = linker.metrics.histogram_summary(
                "nnexus_pipeline_stage_seconds", stage=stage
            )
            stages[stage] = {
                "count": summary.count,
                "sum_sec": summary.sum,
                "p50_ms": summary.p50 * 1000.0,
                "p95_ms": summary.p95 * 1000.0,
                "p99_ms": summary.p99 * 1000.0,
            }

    # Last on purpose: the profiler smoke re-renders cache-cleared
    # slices (a run-dependent number of passes), which would pollute
    # the stage histograms the steer-share gate reads if it ran before
    # they were snapshotted.
    resources: dict[str, Any] = {}
    if params.resources:
        resources = _measure_resources(linker, object_ids)

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "linking",
        "params": {
            "entries": params.entries,
            "seed": params.seed,
            "smoke": params.smoke,
            "metrics": params.metrics,
            "scaling": params.scaling,
            "persistence": params.persistence,
            "resources": params.resources,
        },
        "corpus": {
            "objects": len(linker),
            "concepts": linker.concept_count(),
            "tokens": token_total,
        },
        "throughput": {
            "cold_elapsed_sec": cold_elapsed,
            "warm_elapsed_sec": warm_elapsed,
            "entries_per_sec": len(object_ids) / cold_elapsed if cold_elapsed else 0.0,
            "tokens_per_sec": token_total / cold_elapsed if cold_elapsed else 0.0,
            "links_per_sec": stats["links_created"] / cold_elapsed if cold_elapsed else 0.0,
        },
        "links": {
            "matches": stats["matches_found"],
            "links": stats["links_created"],
        },
        "cache": {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "invalidations": cache["invalidations"],
            "hit_rate": cache["hits"] / lookups if lookups else 0.0,
        },
        "batch_scaling": batch_scaling,
        "persistence": persistence,
        "resources": resources,
        "stages": stages,
    }


def _measure_resources(linker: NNexus, object_ids: list[int]) -> dict[str, Any]:
    """Memory-accounting reconcile plus a sampling-profiler smoke pass.

    The reconcile compares every component's incremental byte estimate
    against a deep ``getsizeof`` walk of its live graph at the moment
    the corpus is fully ingested and rendered — the additive steady
    state the 2x bound is defined over (after mass removals CPython's
    never-shrinking dict tables make deep exceed any honest estimate).

    The profiler smoke re-renders part of the corpus cold (cache
    cleared) under a 1ms sampler and reports the aggregate; CI gates
    ``samples > 0`` so a silently dead sampler thread cannot pass.
    """
    sizes = linker.accountant.sample()
    peaks = linker.accountant.peaks()
    reconcile = linker.accountant.reconcile()
    components: dict[str, Any] = {}
    for name in sorted(sizes):
        entry: dict[str, Any] = {
            "bytes": int(sizes[name]),
            "peak_bytes": int(peaks.get(name, sizes[name])),
        }
        if name in reconcile:
            entry["deep_bytes"] = float(reconcile[name]["deep"])
            entry["ratio"] = float(reconcile[name]["ratio"])
        components[name] = entry

    profiler = SamplingProfiler(interval_sec=0.001)
    profiler.start()
    start = perf_counter()
    try:
        # Repeat cold render slices until at least one sample lands (a
        # single slice can finish inside one sampling interval on fast
        # hardware); the deadline bounds the worst case.
        deadline = start + 2.0
        while True:
            linker.cache.clear()
            for object_id in object_ids[:200]:
                linker.render_object(object_id)
            if profiler.snapshot(max_stacks=1)["samples"] > 0:
                break
            if perf_counter() > deadline:
                break
    finally:
        profiler.stop()
    elapsed = perf_counter() - start
    snapshot = profiler.snapshot(max_stacks=25)

    return {
        "components": components,
        "ratio_bound": MEMORY_RATIO_BOUND,
        "within_2x": within_ratio(reconcile, bound=MEMORY_RATIO_BOUND),
        "profiler": {
            "interval_ms": 1.0,
            "elapsed_sec": elapsed,
            "samples": int(snapshot["samples"]),
            "distinct_stacks": int(snapshot["distinct_stacks"]),
        },
    }


def measure_persistence(params: BenchParams | None = None) -> dict[str, Any]:
    """Durability cost and cold-start time of the sqlite backend.

    Ingests the deterministic corpus twice — once into a memory-backed
    linker, once into a sqlite-backed linker that syncs every commit
    (``sync="always"``, the production default) — then reopens the
    durable directory and times the cold start (loading plus
    relinking).  ``wal_overhead_ratio`` is journaled/memory ingest wall
    time: the full price of crash safety on the mutation path.
    ``disk_bytes`` is the data directory's size after close; sqlite
    checkpoints its ``-wal`` file on its own, so that file's size is
    not the journal volume.  Renderings are not persisted so the
    measurement isolates the journaling cost from the render cache.
    """
    params = params or BenchParams.smoke_params()
    corpus = load_or_generate(
        GeneratorParams(n_entries=params.entries, seed=params.seed)
    )

    start = perf_counter()
    memory_linker = NNexus(scheme=corpus.scheme)
    memory_linker.add_objects(corpus.objects)
    memory_sec = perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="bench-persistence-") as tmp:
        data_dir = Path(tmp) / "data"
        storage = open_storage("sqlite", data_dir, persist_renderings=False)
        try:
            start = perf_counter()
            durable = NNexus(scheme=corpus.scheme, storage=storage)
            durable.add_objects(corpus.objects)
            journaled_sec = perf_counter() - start
        finally:
            storage.close()
        disk_bytes = sum(path.stat().st_size for path in data_dir.iterdir())

        storage = open_storage("sqlite", data_dir, persist_renderings=False)
        try:
            start = perf_counter()
            restarted = NNexus(scheme=corpus.scheme, storage=storage)
            cold_start_sec = perf_counter() - start
            restored_objects = len(restarted)
        finally:
            storage.close()

    return {
        "backend": "sqlite",
        "sync": "always",
        "entries": len(corpus.objects),
        "ingest_memory_sec": memory_sec,
        "ingest_journaled_sec": journaled_sec,
        "wal_overhead_ratio": (journaled_sec / memory_sec) if memory_sec else 0.0,
        "disk_bytes": disk_bytes,
        "cold_start_sec": cold_start_sec,
        "restored_objects": restored_objects,
    }


def measure_metrics_overhead(params: BenchParams | None = None) -> dict[str, float]:
    """Cold-pass wall time with metrics off vs. on (the <=2% budget check).

    Returns both timings and their ratio.  Wall-clock based, so treat
    single runs as indicative — the acceptance budget is asserted on
    the median of repeats when it matters.
    """
    params = params or BenchParams.smoke_params()
    baseline = run_linking_bench(
        BenchParams(entries=params.entries, seed=params.seed, smoke=params.smoke,
                    metrics=False, scaling=False, persistence=False,
                    resources=False)
    )
    instrumented = run_linking_bench(
        BenchParams(entries=params.entries, seed=params.seed, smoke=params.smoke,
                    metrics=True, scaling=False, persistence=False,
                    resources=False)
    )
    base = baseline["throughput"]["cold_elapsed_sec"]
    inst = instrumented["throughput"]["cold_elapsed_sec"]
    return {
        "baseline_sec": base,
        "instrumented_sec": inst,
        "overhead_ratio": (inst / base) if base else 0.0,
    }


def measure_tracing_overhead(params: BenchParams | None = None) -> dict[str, Any]:
    """Cold-pass wall time and output hash with the null vs. a live tracer.

    Runs the same deterministic corpus through two fresh linkers — one
    with the default :data:`~repro.obs.trace.NULL_TRACER`, one with an
    active :class:`~repro.obs.trace.Tracer` — hashing every rendering
    both times.  ``renderings_identical`` MUST be true: tracing is
    observation only and may never change output bytes.  The timing
    ratio is wall-clock based and indicative, like
    :func:`measure_metrics_overhead`.
    """
    params = params or BenchParams.smoke_params()

    def cold_pass(tracer: NullTracer | None) -> tuple[float, str]:
        corpus = load_or_generate(
            GeneratorParams(n_entries=params.entries, seed=params.seed)
        )
        linker = NNexus(scheme=corpus.scheme, tracer=tracer)
        linker.add_objects(corpus.objects)
        object_ids = [obj.object_id for obj in corpus.objects]
        digest = hashlib.sha256()
        start = perf_counter()
        for object_id in object_ids:
            digest.update(linker.render_object(object_id).encode("utf-8"))
        elapsed = perf_counter() - start
        return elapsed, digest.hexdigest()

    baseline_sec, baseline_sha = cold_pass(None)
    traced_sec, traced_sha = cold_pass(Tracer(max_traces=64))
    return {
        "baseline_sec": baseline_sec,
        "traced_sec": traced_sec,
        "overhead_ratio": (traced_sec / baseline_sec) if baseline_sec else 0.0,
        "baseline_sha256": baseline_sha,
        "traced_sha256": traced_sha,
        "renderings_identical": baseline_sha == traced_sha,
    }


def measure_profile_overhead(params: BenchParams | None = None) -> dict[str, Any]:
    """Cold-pass wall time and output hash with profiling/accounting active.

    Mirrors :func:`measure_tracing_overhead` for the resource-
    observability layer: the baseline pass runs a plain linker (null
    profiler, accountant idle), the instrumented pass runs under a 1ms
    :class:`~repro.obs.profile.SamplingProfiler` with the memory
    accountant deep-reconciling every 50ms.  ``renderings_identical``
    MUST be true — profiling and accounting observe, they never touch
    output bytes — and ``profile_samples`` must be positive, proving
    the sampler actually ran.  CI gates both via
    ``bench_linking.py --profile-overhead``.
    """
    params = params or BenchParams.smoke_params()

    def cold_pass(reconcile_sec: float | None) -> tuple[float, str]:
        corpus = load_or_generate(
            GeneratorParams(n_entries=params.entries, seed=params.seed)
        )
        linker = NNexus(scheme=corpus.scheme, memory_reconcile_sec=reconcile_sec)
        linker.add_objects(corpus.objects)
        object_ids = [obj.object_id for obj in corpus.objects]
        digest = hashlib.sha256()
        start = perf_counter()
        for object_id in object_ids:
            digest.update(linker.render_object(object_id).encode("utf-8"))
        elapsed = perf_counter() - start
        linker.accountant.stop()
        return elapsed, digest.hexdigest()

    baseline_sec, baseline_sha = cold_pass(None)
    profiler = SamplingProfiler(interval_sec=0.001)
    profiler.start()
    try:
        profiled_sec, profiled_sha = cold_pass(0.05)
    finally:
        profiler.stop()
    snapshot = profiler.snapshot(max_stacks=25)
    return {
        "baseline_sec": baseline_sec,
        "profiled_sec": profiled_sec,
        "overhead_ratio": (profiled_sec / baseline_sec) if baseline_sec else 0.0,
        "baseline_sha256": baseline_sha,
        "profiled_sha256": profiled_sha,
        "renderings_identical": baseline_sha == profiled_sha,
        "profile_samples": int(snapshot["samples"]),
        "profile_stacks": int(snapshot["distinct_stacks"]),
        "collapsed": profiler.collapsed(),
    }


# ---------------------------------------------------------------------------
# Schema validation (CI gates every emitted artifact through this)
# ---------------------------------------------------------------------------

_NUMBER = (int, float)

_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "params": {
        "entries": int,
        "seed": int,
        "smoke": bool,
        "metrics": bool,
        "scaling": bool,
        "persistence": bool,
        "resources": bool,
    },
    "corpus": {"objects": int, "concepts": int, "tokens": int},
    "throughput": {
        "cold_elapsed_sec": _NUMBER,
        "warm_elapsed_sec": _NUMBER,
        "entries_per_sec": _NUMBER,
        "tokens_per_sec": _NUMBER,
        "links_per_sec": _NUMBER,
    },
    "links": {"matches": int, "links": int},
    "cache": {"hits": int, "misses": int, "invalidations": int, "hit_rate": _NUMBER},
}

_PERSISTENCE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "backend": str,
    "sync": str,
    "entries": int,
    "ingest_memory_sec": _NUMBER,
    "ingest_journaled_sec": _NUMBER,
    "wal_overhead_ratio": _NUMBER,
    "disk_bytes": int,
    "cold_start_sec": _NUMBER,
    "restored_objects": int,
}

_STAGE_FIELDS: dict[str, type | tuple[type, ...]] = {
    "count": int,
    "sum_sec": _NUMBER,
    "p50_ms": _NUMBER,
    "p95_ms": _NUMBER,
    "p99_ms": _NUMBER,
}

_RESOURCE_COMPONENT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "bytes": int,
    "peak_bytes": int,
}

_RESOURCE_PROFILER_FIELDS: dict[str, type | tuple[type, ...]] = {
    "interval_ms": _NUMBER,
    "elapsed_sec": _NUMBER,
    "samples": int,
    "distinct_stacks": int,
}


def validate_report(report: Any) -> list[str]:
    """Problems with a BENCH_linking.json report (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report must be a JSON object"]
    if report.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got {report.get('schema_version')!r}"
        )
    if report.get("benchmark") != "linking":
        problems.append(f"benchmark must be 'linking', got {report.get('benchmark')!r}")

    for section, fields in _SCHEMA.items():
        body = report.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing or non-object section {section!r}")
            continue
        for name, kinds in fields.items():
            value = body.get(name)
            if not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool):
                problems.append(f"{section}.{name} must be {kinds}, got {value!r}")

    stages = report.get("stages")
    if not isinstance(stages, dict):
        problems.append("missing or non-object section 'stages'")
    else:
        metrics_on = isinstance(report.get("params"), dict) and report["params"].get("metrics")
        if metrics_on:
            for stage in STAGES:
                body = stages.get(stage)
                if not isinstance(body, dict):
                    problems.append(f"stages.{stage} missing (metrics run must cover it)")
                    continue
                for name, kinds in _STAGE_FIELDS.items():
                    value = body.get(name)
                    if not isinstance(value, kinds) or isinstance(value, bool):
                        problems.append(f"stages.{stage}.{name} must be {kinds}, got {value!r}")
                if body.get("count") == 0:
                    problems.append(f"stages.{stage}.count is 0 — stage never timed")

    persistence_on = isinstance(report.get("params"), dict) and report["params"].get(
        "persistence"
    )
    persistence = report.get("persistence")
    if not isinstance(persistence, dict):
        problems.append("missing or non-object section 'persistence'")
    elif persistence_on:
        for name, kinds in _PERSISTENCE_FIELDS.items():
            value = persistence.get(name)
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(f"persistence.{name} must be {kinds}, got {value!r}")
        if persistence.get("restored_objects") != persistence.get("entries"):
            problems.append(
                "persistence.restored_objects must equal persistence.entries "
                "— the cold start lost corpus objects"
            )

    resources_on = isinstance(report.get("params"), dict) and report["params"].get(
        "resources"
    )
    resources = report.get("resources")
    if not isinstance(resources, dict):
        problems.append("missing or non-object section 'resources'")
    elif resources_on:
        components = resources.get("components")
        if not isinstance(components, dict):
            problems.append("resources.components must be an object")
        else:
            for name in RESOURCE_COMPONENTS:
                body = components.get(name)
                if not isinstance(body, dict):
                    problems.append(
                        f"resources.components.{name} missing — the linker "
                        "must account for every component"
                    )
                    continue
                for field, kinds in _RESOURCE_COMPONENT_FIELDS.items():
                    value = body.get(field)
                    if not isinstance(value, kinds) or isinstance(value, bool):
                        problems.append(
                            f"resources.components.{name}.{field} must be "
                            f"{kinds}, got {value!r}"
                        )
        if resources.get("within_2x") is not True:
            problems.append(
                "resources.within_2x must be true — an incremental memory "
                "estimate drifted beyond 2x of the deep sample"
            )
        profiler = resources.get("profiler")
        if not isinstance(profiler, dict):
            problems.append("resources.profiler must be an object")
        else:
            for field, kinds in _RESOURCE_PROFILER_FIELDS.items():
                value = profiler.get(field)
                if not isinstance(value, kinds) or isinstance(value, bool):
                    problems.append(
                        f"resources.profiler.{field} must be {kinds}, got {value!r}"
                    )
            if profiler.get("samples") == 0:
                problems.append(
                    "resources.profiler.samples is 0 — the sampling profiler "
                    "never captured a stack during the smoke pass"
                )

    scaling_on = isinstance(report.get("params"), dict) and report["params"].get("scaling")
    batch_scaling = report.get("batch_scaling")
    if not isinstance(batch_scaling, dict):
        problems.append("missing or non-object section 'batch_scaling'")
    elif scaling_on:
        if batch_scaling.get("mode") not in ("thread", "process"):
            problems.append(
                f"batch_scaling.mode must be a batch mode, got {batch_scaling.get('mode')!r}"
            )
        if not isinstance(batch_scaling.get("entries"), int):
            problems.append("batch_scaling.entries must be int")
        runs = batch_scaling.get("runs")
        if not isinstance(runs, list) or not runs:
            problems.append("batch_scaling.runs must be a non-empty list")
        else:
            for position, run in enumerate(runs):
                if not isinstance(run, dict) or not isinstance(run.get("workers"), int):
                    problems.append(f"batch_scaling.runs[{position}].workers must be int")
                    continue
                for name in ("elapsed_sec",):
                    if not isinstance(run.get(name), _NUMBER):
                        problems.append(
                            f"batch_scaling.runs[{position}].{name} must be a number"
                        )
        speedups = batch_scaling.get("speedups")
        if not isinstance(speedups, dict) or not all(
            isinstance(value, _NUMBER) for value in speedups.values()
        ):
            problems.append("batch_scaling.speedups must map worker counts to numbers")
    return problems


def _steer_share(report: dict[str, Any]) -> float | None:
    """Steer-stage share of the cold pass, or None when not derivable."""
    try:
        steer_sum = report["stages"]["steer"]["sum_sec"]
        cold = report["throughput"]["cold_elapsed_sec"]
    except (KeyError, TypeError):
        return None
    if not isinstance(steer_sum, _NUMBER) or not isinstance(cold, _NUMBER) or cold <= 0:
        return None
    return steer_sum / cold


def check_regression(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Perf-regression problems of ``current`` vs ``baseline`` (empty = pass).

    Wall-clock sums are machine-dependent, so the gate compares the
    steer stage's *share* of the cold pass instead: losing the steering
    fast path moves the share from ~15% back to ~70% on any hardware,
    while honest CI jitter moves it by a few points.  A run fails only
    when it exceeds the baseline share by both
    :data:`STEER_SHARE_RELATIVE_TOLERANCE` (relative) and
    :data:`STEER_SHARE_ABSOLUTE_TOLERANCE` (absolute).
    """
    problems: list[str] = []
    current_share = _steer_share(current)
    baseline_share = _steer_share(baseline)
    if current_share is None:
        problems.append("current report lacks a steer stage timing to gate on")
        return problems
    if baseline_share is None:
        problems.append("baseline report lacks a steer stage timing to gate against")
        return problems
    relative_limit = baseline_share * (1.0 + STEER_SHARE_RELATIVE_TOLERANCE)
    absolute_limit = baseline_share + STEER_SHARE_ABSOLUTE_TOLERANCE
    if current_share > relative_limit and current_share > absolute_limit:
        problems.append(
            "steer stage regressed: "
            f"{current_share:.1%} of the cold pass vs {baseline_share:.1%} in the "
            f"baseline (limits: >{relative_limit:.1%} and >{absolute_limit:.1%})"
        )
    return problems
