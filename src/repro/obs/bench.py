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
from repro.obs.trace import Tracer
from repro.persistence import SqliteBackend

__all__ = [
    "BenchParams",
    "run_linking_bench",
    "measure_overhead",
    "overhead_problems",
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

SCHEMA_VERSION = 10

#: Pipeline stages the report must cover.
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

    @classmethod
    def smoke_params(cls, seed: int = 20090612) -> "BenchParams":
        return cls(entries=SMOKE_ENTRIES, seed=seed, smoke=True)


def run_linking_bench(params: BenchParams | None = None) -> dict[str, Any]:
    """One cold render pass + one warm (cache-served) pass; build a report.

    Every report also measures process-mode batch relink scaling, the
    durability cost and cold start of the sqlite backend, and the
    per-component memory accounting.
    """
    params = params or BenchParams()
    corpus = load_or_generate(GeneratorParams(n_entries=params.entries, seed=params.seed))
    linker = NNexus(scheme=corpus.scheme, metrics=MetricsRegistry())
    linker.add_objects(corpus.objects)

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

    stages: dict[str, dict[str, float]] = {}
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

    # Whole-corpus relink scaling in process mode, against the
    # in-process relink that ``repro batch --workers 1`` runs: each
    # process run pays pool start-up and ships the linker snapshot
    # (concept map + steering graph) once per worker, then chunks fan
    # out.  The in-process run feeds the stage histograms, so they are
    # read above.
    in_process_sec = BatchLinker(linker, fmt=None).run().seconds
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
    batch_scaling = {
        "mode": "process",
        "entries": len(linker),
        "in_process_sec": in_process_sec,
        "runs": runs,
        "speedups": {
            str(run["workers"]): (
                in_process_sec / run["elapsed_sec"] if run["elapsed_sec"] else 0.0
            )
            for run in runs
        },
    }

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "linking",
        "params": {
            "entries": params.entries,
            "seed": params.seed,
            "smoke": params.smoke,
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
        "persistence": measure_persistence(params),
        "resources": _measure_resources(linker),
        "stages": stages,
    }


def _measure_resources(linker: NNexus) -> dict[str, Any]:
    """Memory-accounting reconcile of the fully rendered linker.

    The reconcile compares every component's incremental byte estimate
    against a deep ``getsizeof`` walk of its live graph at the moment
    the corpus is fully ingested and rendered — the additive steady
    state the 2x bound is defined over (after mass removals CPython's
    never-shrinking dict tables make deep exceed any honest estimate).
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
    return {
        "components": components,
        "ratio_bound": MEMORY_RATIO_BOUND,
        "within_2x": within_ratio(reconcile, bound=MEMORY_RATIO_BOUND),
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
    not the journal volume.  Nothing is rendered, so the renderings
    table stays empty and the measurement is the journaling cost alone.
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
        storage = SqliteBackend(data_dir)
        try:
            start = perf_counter()
            durable = NNexus(scheme=corpus.scheme, storage=storage)
            durable.add_objects(corpus.objects)
            journaled_sec = perf_counter() - start
        finally:
            storage.close()
        disk_bytes = sum(path.stat().st_size for path in data_dir.iterdir())

        storage = SqliteBackend(data_dir)
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


def _cold_pass(
    params: BenchParams, *, reconcile: bool = False, **linker_kwargs: Any
) -> tuple[float, str, int]:
    """One fresh linker over the bench corpus, every entry rendered cold.

    Returns the seconds spent rendering, a sha256 over every rendering
    followed by what the cache then holds for each entry (so an
    instrument that drops or alters a cached rendering changes the hash
    too), and the number of memory reconciles.  ``reconcile=True`` runs
    one on-demand reconcile, untimed, between the two halves of the
    render loop.
    """
    corpus = load_or_generate(GeneratorParams(n_entries=params.entries, seed=params.seed))
    linker = NNexus(scheme=corpus.scheme, **linker_kwargs)
    linker.add_objects(corpus.objects)
    object_ids = [obj.object_id for obj in corpus.objects]
    half = len(object_ids) // 2
    digest = hashlib.sha256()
    elapsed = 0.0
    for position, chunk in enumerate((object_ids[:half], object_ids[half:])):
        if reconcile and position:
            linker.accountant.reconcile()
        start = perf_counter()
        for object_id in chunk:
            digest.update(linker.render_object(object_id).encode("utf-8"))
        elapsed += perf_counter() - start
    for object_id in object_ids:
        digest.update(b"\0" + (linker.cache.get(object_id) or "").encode("utf-8"))
    return elapsed, digest.hexdigest(), linker.accountant.snapshot()["reconcile_count"]


def measure_overhead(params: BenchParams | None = None) -> dict[str, Any]:
    """Cold-pass time and output hash with each instrument on vs. plain.

    Four passes over fresh linkers: plain (null recorder, null tracer,
    accountant idle), one with a :class:`~repro.obs.metrics.MetricsRegistry`,
    one with a live :class:`~repro.obs.trace.Tracer`, and one under a
    1 ms :class:`~repro.obs.profile.SamplingProfiler` that also reconciles
    the memory accountant between renders.  Instruments observe; they
    never change output, so every pass's ``renderings_identical`` MUST be
    true, the profiler must have taken samples and the accounting pass
    must have reconciled (see :func:`overhead_problems`).  The ratios
    are wall-clock based and indicative.
    """
    params = params or BenchParams.smoke_params()
    runs = {
        "plain": _cold_pass(params),
        "metrics": _cold_pass(params, metrics=MetricsRegistry()),
        "tracing": _cold_pass(params, tracer=Tracer(max_traces=64)),
    }
    profiler = SamplingProfiler(interval_sec=0.001)
    profiler.start()
    try:
        runs["accounting"] = _cold_pass(params, reconcile=True)
    finally:
        profiler.stop()
    plain_sec, plain_sha, _ = runs["plain"]
    snapshot = profiler.snapshot(max_stacks=25)
    return {
        "entries": params.entries,
        "seed": params.seed,
        "passes": {
            name: {
                "seconds": seconds,
                "ratio": (seconds / plain_sec) if plain_sec else 0.0,
                "sha256": sha,
                "renderings_identical": sha == plain_sha,
                "reconciles": reconciles,
            }
            for name, (seconds, sha, reconciles) in runs.items()
        },
        "profile_samples": int(snapshot["samples"]),
        "profile_stacks": int(snapshot["distinct_stacks"]),
        "collapsed": profiler.collapsed(),
    }


def overhead_problems(report: dict[str, Any]) -> list[str]:
    """Failed checks of a :func:`measure_overhead` report (empty = pass)."""
    problems = [
        f"{name} pass: renderings differ from the plain pass"
        for name, body in report["passes"].items()
        if not body["renderings_identical"]
    ]
    if report["profile_samples"] == 0:
        problems.append("accounting pass: the sampling profiler took no samples")
    if report["passes"]["accounting"]["reconciles"] == 0:
        problems.append("accounting pass: the memory accountant never reconciled")
    return problems


# ---------------------------------------------------------------------------
# Schema validation (CI gates every emitted artifact through this)
# ---------------------------------------------------------------------------

_NUMBER = (int, float)

_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "params": {"entries": int, "seed": int, "smoke": bool},
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
        for stage in STAGES:
            body = stages.get(stage)
            if not isinstance(body, dict):
                problems.append(f"stages.{stage} missing (the run must cover it)")
                continue
            for name, kinds in _STAGE_FIELDS.items():
                value = body.get(name)
                if not isinstance(value, kinds) or isinstance(value, bool):
                    problems.append(f"stages.{stage}.{name} must be {kinds}, got {value!r}")
            if body.get("count") == 0:
                problems.append(f"stages.{stage}.count is 0 — stage never timed")

    persistence = report.get("persistence")
    if not isinstance(persistence, dict):
        problems.append("missing or non-object section 'persistence'")
    else:
        for name, kinds in _PERSISTENCE_FIELDS.items():
            value = persistence.get(name)
            if not isinstance(value, kinds) or isinstance(value, bool):
                problems.append(f"persistence.{name} must be {kinds}, got {value!r}")
        if persistence.get("restored_objects") != persistence.get("entries"):
            problems.append(
                "persistence.restored_objects must equal persistence.entries "
                "— the cold start lost corpus objects"
            )

    resources = report.get("resources")
    if not isinstance(resources, dict):
        problems.append("missing or non-object section 'resources'")
    else:
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

    batch_scaling = report.get("batch_scaling")
    if not isinstance(batch_scaling, dict):
        problems.append("missing or non-object section 'batch_scaling'")
    else:
        if batch_scaling.get("mode") not in ("thread", "process"):
            problems.append(
                f"batch_scaling.mode must be a batch mode, got {batch_scaling.get('mode')!r}"
            )
        if not isinstance(batch_scaling.get("entries"), int):
            problems.append("batch_scaling.entries must be int")
        if not isinstance(batch_scaling.get("in_process_sec"), _NUMBER):
            problems.append("batch_scaling.in_process_sec must be a number")
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
