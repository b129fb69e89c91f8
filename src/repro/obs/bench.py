"""The benchmark harnesses behind ``benchmarks/bench_linking.py`` and
``benchmarks/bench_serving.py``, their report checks and their shared CLI.

**Linking** (``BENCH_linking.json``) runs the full Fig. 2 pipeline over
the deterministic synthetic corpus (seeded generator, so corpus shape,
match counts and link counts are bit-for-bit reproducible): tokens/sec,
links/sec, per-stage latency percentiles, cache hit rates, batch
scaling, the sqlite durability cost and per-component memory.  Every
later performance PR is judged against these numbers.

**Serving** (``BENCH_serving.json``) measures the *serving path* —
client, wire protocol, server demux — rather than the linking pipeline.
Two transport shapes are compared end to end against one live server:

* **serial**: the pre-pipelining worst case — one request per fresh
  client and TCP connection (connect, one framed exchange, close);
* **pipelined**: one shared client whose connection carries many
  ``reqid``-tagged requests in flight.

The serving load generator is **open-loop**: arrivals follow a fixed
schedule (``i / rps``) regardless of how fast responses come back, and
each latency is measured from the request's *scheduled arrival*, not
from when a worker got around to sending it.  A closed-loop generator
slows down when the server does and silently hides queueing delay;
open-loop arrivals are how production serving stacks are actually
loaded, and the p95/p99 numbers here show the queue forming as offered
RPS approaches capacity.  Max-sustained throughput comes from a
saturation burst (a fixed batch pushed through at full concurrency);
the RPS-vs-latency curves then probe fixed fractions of that measured
ceiling so runtimes stay bounded on any machine.

Both reports' *identity* fields are deterministic for a given seed;
wall-clock figures vary with the hardware.  One shape checker walks
each report against its declarative schema (see ``EXPERIMENTS.md``),
and :func:`validate_report` / :func:`validate_serving_report` add the
semantic checks — CI runs them on every emitted artifact.  The gates
(:func:`check_regression`, :func:`check_serving_regression`) compare
ratios and structural inequalities, never absolute wall-clock numbers.
:func:`bench_parser` and :func:`bench_main` are the one CLI front both
scripts share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.generator import GeneratorParams, load_or_generate
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.memory import within_ratio
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SamplingProfiler
from repro.obs.trace import Tracer
from repro.ontology.msc import build_small_msc
from repro.persistence import SqliteBackend
from repro.server import protocol
from repro.server.client import NNexusClient
from repro.server.resilience import RetryPolicy
from repro.server.server import serve_forever

__all__ = [
    "BenchParams",
    "run_linking_bench",
    "measure_overhead",
    "overhead_problems",
    "measure_persistence",
    "validate_report",
    "check_regression",
    "ServingParams",
    "run_serving_bench",
    "validate_serving_report",
    "check_serving_regression",
    "bench_parser",
    "bench_main",
    "SCHEMA_VERSION",
    "SERVING_SCHEMA_VERSION",
    "STAGES",
    "SMOKE_ENTRIES",
    "RESOURCE_COMPONENTS",
    "MEMORY_RATIO_BOUND",
    "SCALING_WORKER_COUNTS",
    "STEER_SHARE_RELATIVE_TOLERANCE",
    "STEER_SHARE_ABSOLUTE_TOLERANCE",
    "PING_P50_GATE_MS",
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
# Serving harness
# ---------------------------------------------------------------------------

SERVING_SCHEMA_VERSION = 1

#: Gate on loopback ping p50: generous enough for any CI box (a healthy
#: loopback round trip is well under a millisecond), tight enough to
#: catch a stray sleep, a lost TCP_NODELAY, or per-request reconnects
#: sneaking into the hot path.
PING_P50_GATE_MS = 50.0

#: Phrases the sample corpus defines (linkable) mixed with ones it does
#: not — correctness checks that the former link and bodies round-trip.
_LINKABLE_PHRASES = (
    "planar graph",
    "bipartite graph",
    "Markov chain",
    "abelian group",
)
_PLAIN_PHRASES = ("weather balloon", "breakfast menu")

#: Cap on open-loop requests per curve point so a fast machine's high
#: measured ceiling cannot balloon the run.
_MAX_CURVE_REQUESTS = 2000


@dataclass(frozen=True)
class ServingParams:
    """Knobs of one serving benchmark run."""

    smoke: bool = False
    seed: int = 20090612
    burst_requests: int = 400
    curve_fractions: tuple[float, ...] = (0.3, 0.6, 0.9)
    curve_duration_s: float = 2.0
    serial_concurrency: int = 8
    pipelined_concurrency: int = 32
    overhead_samples: int = 200

    @staticmethod
    def smoke_params(seed: int = 20090612) -> "ServingParams":
        return ServingParams(
            smoke=True,
            seed=seed,
            burst_requests=120,
            curve_fractions=(0.5, 0.9),
            curve_duration_s=0.8,
            overhead_samples=80,
        )


def _workload_texts(count: int, seed: int) -> list[tuple[str, bool]]:
    """Deterministic (text, linkable) pairs; no RNG state shared out."""
    phrases = list(_LINKABLE_PHRASES) + list(_PLAIN_PHRASES)
    texts = []
    for i in range(count):
        # A simple seeded mix: stable across runs and platforms.
        phrase = phrases[(i * 7 + seed) % len(phrases)]
        linkable = phrase in _LINKABLE_PHRASES
        texts.append((f"entry {i} discusses the {phrase} in detail", linkable))
    return texts


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


class _Correctness:
    """Thread-safe tally of response checks across every probe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.checked = 0
        self.mismatches = 0

    def record(self, ok: bool) -> None:
        with self._lock:
            self.checked += 1
            if not ok:
                self.mismatches += 1


def _check_response(
    index: int, linkable: bool, body: str, links: list[dict[str, str]]
) -> bool:
    if not body.startswith(f"entry {index} "):
        return False
    if linkable and not links:
        return False
    return True


def _burst(
    run_one: Callable[[int], None], n_requests: int, concurrency: int
) -> tuple[float, int]:
    """Push a fixed batch through at full concurrency.

    Returns (sustained RPS, transport errors).  This is the saturation
    probe: with every worker always busy, completed/elapsed is the
    ceiling the open-loop curves are scaled against.
    """
    errors = 0
    error_lock = threading.Lock()

    def guarded(i: int) -> None:
        nonlocal errors
        try:
            run_one(i)
        except Exception:
            with error_lock:
                errors += 1

    start = perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(guarded, range(n_requests)))
    elapsed = perf_counter() - start
    return (n_requests / elapsed if elapsed > 0 else 0.0), errors


def _open_loop(
    run_one: Callable[[int], None],
    n_requests: int,
    rps: float,
    max_workers: int,
) -> dict[str, Any]:
    """Offer ``n_requests`` at fixed ``rps``; latency from scheduled arrival."""
    results: list[tuple[bool, float]] = []

    def timed(i: int, scheduled: float) -> tuple[bool, float]:
        try:
            run_one(i)
            ok = True
        except Exception:
            ok = False
        return ok, (perf_counter() - scheduled) * 1000.0

    start = perf_counter()
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = []
        for i in range(n_requests):
            scheduled = start + i / rps
            delay = scheduled - perf_counter()
            if delay > 0:
                time.sleep(delay)
            futures.append(pool.submit(timed, i, scheduled))
        results = [future.result() for future in futures]
    elapsed = perf_counter() - start
    latencies = sorted(latency for ok, latency in results if ok)
    completed = len(latencies)
    return {
        "offered_rps": round(rps, 2),
        "achieved_rps": round(completed / elapsed if elapsed > 0 else 0.0, 2),
        "requests": n_requests,
        "completed": completed,
        "errors": n_requests - completed,
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p95_ms": round(_percentile(latencies, 0.95), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
    }


def _measure_protocol_overhead(
    address: tuple[str, int], samples: int
) -> dict[str, Any]:
    """Loopback ping round-trips plus pure encode/decode cost."""
    rtts: list[float] = []
    with NNexusClient(*address, timeout=30, retry=RetryPolicy.none()) as client:
        for _ in range(samples):
            start = perf_counter()
            client.ping()
            rtts.append((perf_counter() - start) * 1000.0)
    rtts.sort()

    request = protocol.Request("linkEntry", fields={"text": "a planar graph"})
    encoded = protocol.encode_request(request)
    framed = protocol.frame(encoded)
    header = protocol.FRAME_HEADER_BYTES
    start = perf_counter()
    for _ in range(samples):
        protocol.decode_request(
            protocol.frame(protocol.encode_request(request))[header:].decode("utf-8")
        )
    codec_elapsed = perf_counter() - start
    return {
        "samples": samples,
        "ping_p50_ms": round(_percentile(rtts, 0.50), 3),
        "ping_p99_ms": round(_percentile(rtts, 0.99), 3),
        "codec_roundtrip_us": round(codec_elapsed / samples * 1e6, 2),
        "frame_bytes": len(framed),
    }


def run_serving_bench(params: ServingParams) -> dict[str, Any]:
    """Run the full serving benchmark; returns the report dict."""
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    server = serve_forever(
        linker, max_in_flight=max(64, params.pipelined_concurrency * 2)
    )
    correctness = _Correctness()
    texts = _workload_texts(
        max(params.burst_requests, _MAX_CURVE_REQUESTS), params.seed
    )
    try:
        address = server.address
        overhead = _measure_protocol_overhead(address, params.overhead_samples)

        def serial_one(i: int) -> None:
            text, linkable = texts[i % len(texts)]
            # One request per fresh connection: the pre-pipelining cost
            # model this benchmark exists to retire.
            with NNexusClient(
                *address, timeout=30, retry=RetryPolicy.none()
            ) as client:
                body, links = client.link_entry(text)
            correctness.record(
                _check_response(i % len(texts), linkable, body, links)
            )

        pipelined_client = NNexusClient(
            *address, timeout=30, retry=RetryPolicy.none()
        )

        def pipelined_one(i: int) -> None:
            text, linkable = texts[i % len(texts)]
            body, links = pipelined_client.link_entry(text)
            correctness.record(
                _check_response(i % len(texts), linkable, body, links)
            )

        try:
            serial_max, serial_errors = _burst(
                serial_one, params.burst_requests, params.serial_concurrency
            )
            pipelined_max, pipelined_errors = _burst(
                pipelined_one,
                params.burst_requests,
                params.pipelined_concurrency,
            )

            serial_curve = []
            pipelined_curve = []
            for fraction in params.curve_fractions:
                rps = max(1.0, serial_max * fraction)
                n = min(
                    _MAX_CURVE_REQUESTS,
                    max(10, int(rps * params.curve_duration_s)),
                )
                serial_curve.append(
                    _open_loop(serial_one, n, rps, params.serial_concurrency)
                )
                rps = max(1.0, pipelined_max * fraction)
                n = min(
                    _MAX_CURVE_REQUESTS,
                    max(10, int(rps * params.curve_duration_s)),
                )
                pipelined_curve.append(
                    _open_loop(
                        pipelined_one, n, rps, params.pipelined_concurrency
                    )
                )
        finally:
            pipelined_client.close()
    finally:
        server.shutdown()
        server.server_close()

    speedup = pipelined_max / serial_max if serial_max > 0 else 0.0
    return {
        "schema_version": SERVING_SCHEMA_VERSION,
        "benchmark": "serving",
        "params": {
            "smoke": params.smoke,
            "seed": params.seed,
            "burst_requests": params.burst_requests,
            "curve_duration_s": params.curve_duration_s,
            "serial_concurrency": params.serial_concurrency,
            "pipelined_concurrency": params.pipelined_concurrency,
            "pipeline_workers": server.pipeline_workers,
        },
        "workload": {
            "texts": len(texts),
            "linkable_phrases": len(_LINKABLE_PHRASES),
            "method": "linkEntry",
        },
        "correctness": {
            "checked": correctness.checked,
            "mismatches": correctness.mismatches,
        },
        "protocol_overhead": overhead,
        "latency_curves": {
            "serial": serial_curve,
            "pipelined": pipelined_curve,
        },
        "throughput": {
            "serial_max_sustained_rps": round(serial_max, 2),
            "pipelined_max_sustained_rps": round(pipelined_max, 2),
            "pipelined_speedup": round(speedup, 3),
            "serial_errors": serial_errors,
            "pipelined_errors": pipelined_errors,
        },
        "scaling": {
            "cores": os.cpu_count() or 1,
            "note": (
                "multicore scaling is informational only — CI runs on one "
                "core, so the gate compares transports, not parallelism"
            ),
        },
    }


# ---------------------------------------------------------------------------
# Report schemas (CI gates every emitted artifact through these)
# ---------------------------------------------------------------------------

_NUMBER = (int, float)

# A schema node is a type leaf (a type, or ``_NUMBER``), a field dict
# (every listed field required, others ignored), ``[item]`` (a non-empty
# list of items) or ``{str: item}`` (an object mapping any key to items).

_LINKING_SCHEMA: dict[Any, Any] = {
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
    "batch_scaling": {
        "mode": str,
        "entries": int,
        "in_process_sec": _NUMBER,
        "runs": [{"workers": int, "elapsed_sec": _NUMBER, "links": int}],
        "speedups": {str: _NUMBER},
    },
    "persistence": {
        "backend": str,
        "sync": str,
        "entries": int,
        "ingest_memory_sec": _NUMBER,
        "ingest_journaled_sec": _NUMBER,
        "wal_overhead_ratio": _NUMBER,
        "disk_bytes": int,
        "cold_start_sec": _NUMBER,
        "restored_objects": int,
    },
    "resources": {
        "components": {
            name: {"bytes": int, "peak_bytes": int} for name in RESOURCE_COMPONENTS
        },
        "ratio_bound": _NUMBER,
        "within_2x": bool,
    },
    "stages": {
        stage: {"count": int, "sum_sec": _NUMBER, "p50_ms": _NUMBER, "p95_ms": _NUMBER,
                "p99_ms": _NUMBER}
        for stage in STAGES
    },
}

_CURVE_POINT = {
    "offered_rps": _NUMBER,
    "achieved_rps": _NUMBER,
    "requests": int,
    "completed": int,
    "errors": int,
    "p50_ms": _NUMBER,
    "p95_ms": _NUMBER,
    "p99_ms": _NUMBER,
}

_SERVING_SCHEMA: dict[Any, Any] = {
    "params": {
        "smoke": bool,
        "seed": int,
        "burst_requests": int,
        "curve_duration_s": _NUMBER,
        "serial_concurrency": int,
        "pipelined_concurrency": int,
        "pipeline_workers": int,
    },
    "workload": {"texts": int, "linkable_phrases": int, "method": str},
    "correctness": {"checked": int, "mismatches": int},
    "protocol_overhead": {
        "samples": int,
        "ping_p50_ms": _NUMBER,
        "ping_p99_ms": _NUMBER,
        "codec_roundtrip_us": _NUMBER,
        "frame_bytes": int,
    },
    "latency_curves": {"serial": [_CURVE_POINT], "pipelined": [_CURVE_POINT]},
    "throughput": {
        "serial_max_sustained_rps": _NUMBER,
        "pipelined_max_sustained_rps": _NUMBER,
        "pipelined_speedup": _NUMBER,
        "serial_errors": int,
        "pipelined_errors": int,
    },
    "scaling": {"cores": int, "note": str},
}


def _shape_problems(value: Any, schema: Any, path: str = "") -> list[str]:
    """Where ``value`` departs from ``schema``, each problem naming its dotted path."""
    if isinstance(schema, list):
        if not isinstance(value, list) or not value:
            return [f"{path} must be a non-empty list"]
        return [
            problem
            for position, item in enumerate(value)
            for problem in _shape_problems(item, schema[0], f"{path}[{position}]")
        ]
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return [f"{path or 'report'} must be a JSON object"]
        prefix = f"{path}." if path else ""
        fields = [(key, schema[str]) for key in value] if str in schema else schema.items()
        problems = []
        for name, node in fields:
            if name not in value:
                problems.append(f"{prefix}{name} missing")
            else:
                problems += _shape_problems(value[name], node, prefix + name)
        return problems
    if isinstance(value, schema) and isinstance(value, bool) == (schema is bool):
        return []
    kind = "a number" if schema is _NUMBER else schema.__name__
    return [f"{path} must be {kind}, got {value!r}"]


def _at(report: Any, dotted: str) -> Any:
    """The value at a dotted path, or None where any step is not an object."""
    for key in dotted.split("."):
        report = report.get(key) if isinstance(report, dict) else None
    return report


def _report_problems(report: Any, schema: Any, version: int, benchmark: str) -> list[str]:
    """Shape problems, then the identity fields every report carries."""
    problems = _shape_problems(report, schema)
    if isinstance(report, dict):
        for field, expected in (("schema_version", version), ("benchmark", benchmark)):
            if report.get(field) != expected:
                problems.append(f"{field} must be {expected!r}, got {report.get(field)!r}")
    return problems


def validate_report(report: Any) -> list[str]:
    """Problems with a BENCH_linking.json report (empty list = valid)."""
    problems = _report_problems(report, _LINKING_SCHEMA, SCHEMA_VERSION, "linking")
    problems += [
        f"stages.{stage}.count is 0 — stage never timed"
        for stage in STAGES
        if _at(report, f"stages.{stage}.count") == 0
    ]
    if _at(report, "persistence.restored_objects") != _at(report, "persistence.entries"):
        problems.append(
            "persistence.restored_objects must equal persistence.entries "
            "— the cold start lost corpus objects"
        )
    if _at(report, "resources.within_2x") is False:
        problems.append(
            "resources.within_2x must be true — an incremental memory "
            "estimate drifted beyond 2x of the deep sample"
        )
    mode = _at(report, "batch_scaling.mode")
    if isinstance(mode, str) and mode not in ("thread", "process"):
        problems.append(f"batch_scaling.mode must be a batch mode, got {mode!r}")
    return problems


def validate_serving_report(report: Any) -> list[str]:
    """Problems with a BENCH_serving.json report (empty list = valid)."""
    return _report_problems(report, _SERVING_SCHEMA, SERVING_SCHEMA_VERSION, "serving")


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


def check_serving_regression(
    current: dict[str, Any], baseline: dict[str, Any] | None = None
) -> list[str]:
    """Gate failures for a serving report (empty list = pass).

    The gate is machine-independent: correctness must be perfect,
    loopback ping p50 must stay under the (very generous) absolute
    bound, and pipelining must beat the serial one-request-per-
    connection baseline *strictly* — that inequality is the whole
    point of the subsystem, and it holds on a single core because the
    serial path pays a connect/teardown per request that pipelining
    amortizes away.  The optional baseline is checked for schema
    compatibility so trend tooling can diff reports; its wall-clock
    numbers are never gated on (different machines).
    """
    failures: list[str] = []
    problems = validate_serving_report(current)
    if problems:
        return [f"current report invalid: {p}" for p in problems]

    correctness = current["correctness"]
    if correctness["checked"] <= 0:
        failures.append("correctness.checked is 0 — no responses were verified")
    if correctness["mismatches"] != 0:
        failures.append(
            f"correctness.mismatches is {correctness['mismatches']} — "
            "responses were mismatched or unlinked"
        )

    ping_p50 = current["protocol_overhead"]["ping_p50_ms"]
    if ping_p50 > PING_P50_GATE_MS:
        failures.append(
            f"protocol_overhead.ping_p50_ms {ping_p50} exceeds the "
            f"{PING_P50_GATE_MS}ms bound — something slow crept into the "
            "per-request path"
        )

    throughput = current["throughput"]
    if not (
        throughput["pipelined_max_sustained_rps"]
        > throughput["serial_max_sustained_rps"]
    ):
        failures.append(
            "pipelined max-sustained throughput "
            f"({throughput['pipelined_max_sustained_rps']} rps) is not "
            "strictly above the serial one-request-per-connection baseline "
            f"({throughput['serial_max_sustained_rps']} rps)"
        )

    if baseline is not None:
        if baseline.get("schema_version") != current["schema_version"]:
            failures.append(
                "baseline schema_version "
                f"{baseline.get('schema_version')!r} does not match current "
                f"{current['schema_version']} — regenerate the baseline"
            )
    return failures


# ---------------------------------------------------------------------------
# The CLI front both bench scripts share
# ---------------------------------------------------------------------------

#: Per report: its validator, its gate, the prefix of the gate's lines and
#: what the gate's pass line notes.
_REPORT_CHECKS: dict[str, tuple[Callable[..., Any], ...]] = {
    "linking": (
        validate_report, check_regression, "perf gate",
        lambda report: f"steer share {_steer_share(report):.1%} of cold pass",
    ),
    "serving": (
        validate_serving_report, check_serving_regression, "serving gate",
        lambda report: (
            f"pipelined {report['throughput']['pipelined_speedup']:.2f}x over serial, "
            "0 mismatches"
        ),
    ),
}


def bench_parser(benchmark: str, *, smoke_help: str, gate_help: str) -> argparse.ArgumentParser:
    """The flags of ``benchmarks/bench_<benchmark>.py``; each script adds its own."""
    parser = argparse.ArgumentParser(prog=f"python benchmarks/bench_{benchmark}.py")
    parser.add_argument("--seed", type=int, default=20090612)
    parser.add_argument("--smoke", action="store_true", help=smoke_help)
    parser.add_argument("--out", type=str, default=f"BENCH_{benchmark}.json",
                        help="report path ('-' for stdout)")
    parser.add_argument("--validate", type=str, metavar="PATH", default="",
                        help="validate an existing report instead of running")
    parser.add_argument("--gate", type=str, metavar="PATH", default="", help=gate_help)
    return parser


def _say(line: str, *, problem: bool = False) -> None:
    # The front's lines are the command's output, not log records: they go
    # to stdout (problems to stderr) whatever logging the process set up.
    print(line, file=sys.stderr if problem else sys.stdout)  # lint: disable=REP104


def _failed(problems: list[str], prefix: str) -> bool:
    for problem in problems:
        _say(f"{prefix}: {problem}", problem=True)
    return bool(problems)


def _read_report(path: str) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def bench_main(
    benchmark: str,
    args: argparse.Namespace,
    run: Callable[[], dict[str, Any]],
    summary: Callable[[dict[str, Any]], str],
) -> int:
    """``--validate`` a report, or ``run`` one, write it to ``--out`` and
    apply the ``--gate``; 0 when everything passes, 1 otherwise.

    ``summary`` is what follows ``wrote <path>:`` once the report is
    written.  The gate's baseline is read before the run, so ``--out``
    may overwrite it, and a report that fails its own schema is never
    written.
    """
    validate, gate, gate_label, gate_note = _REPORT_CHECKS[benchmark]
    if args.validate:
        report = _read_report(args.validate)
        if _failed(validate(report), "schema error"):
            return 1
        _say(f"{args.validate}: valid (schema_version {report['schema_version']})")
        return 0

    baseline = _read_report(args.gate) if args.gate else None
    report = run()
    if _failed(validate(report), "internal schema error"):
        return 1
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out == "-":
        _say(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        _say(f"wrote {args.out}: {summary(report)}")

    if baseline is not None:
        if _failed(gate(report, baseline), gate_label):
            return 1
        _say(f"{gate_label}: pass ({gate_note(report)})")
    return 0
