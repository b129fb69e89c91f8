"""The serving benchmark harness behind ``benchmarks/bench_serving.py``.

Measures the *serving path* — client, wire protocol, server demux —
rather than the linking pipeline itself (that is ``bench_linking``'s
job).  Two transport shapes are compared end to end against one live
server:

* **serial**: the pre-pipelining worst case — one request per fresh
  client and TCP connection (connect, one framed exchange, close);
* **pipelined**: one shared client whose connection carries many
  ``reqid``-tagged requests in flight.

The load generator is **open-loop**: arrivals follow a fixed schedule
(``i / rps``) regardless of how fast responses come back, and each
latency is measured from the request's *scheduled arrival*, not from
when a worker got around to sending it.  A closed-loop generator slows
down when the server does and silently hides queueing delay; open-loop
arrivals are how production serving stacks are actually loaded, and
the p95/p99 numbers here show the queue forming as offered RPS
approaches capacity.

Max-sustained throughput comes from a saturation burst (a fixed batch
pushed through at full concurrency); the RPS-vs-latency curves then
probe fixed fractions of that measured ceiling so runtimes stay
bounded on any machine.  The workload is deterministic for a given
seed — texts, phrase mix, and schedule are all derived from it; only
wall-clock figures vary with hardware.

The regression gate (:func:`check_serving_regression`) is deliberately
narrow for 1-core CI: response **correctness** (every body echoes its
request marker, every linkable phrase linked), **protocol overhead**
(loopback ping p50 under a generous absolute bound — catches
accidental sleeps and Nagle-style stalls, not machine jitter), and the
structural claim of this subsystem: pipelined max-sustained throughput
strictly above the serial one-request-per-connection baseline.
Multicore scaling is reported but informational only.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc
from repro.server import protocol
from repro.server.client import NNexusClient, RemoteError
from repro.server.resilience import RetryPolicy
from repro.server.server import serve_forever

__all__ = [
    "ServingParams",
    "run_serving_bench",
    "validate_serving_report",
    "check_serving_regression",
    "SERVING_SCHEMA_VERSION",
    "PING_P50_GATE_MS",
]

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
# Schema validation and the regression gate
# ---------------------------------------------------------------------------

_SERVING_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "params": {
        "smoke": bool,
        "seed": int,
        "burst_requests": int,
        "curve_duration_s": (int, float),
        "serial_concurrency": int,
        "pipelined_concurrency": int,
        "pipeline_workers": int,
    },
    "workload": {"texts": int, "linkable_phrases": int, "method": str},
    "correctness": {"checked": int, "mismatches": int},
    "protocol_overhead": {
        "samples": int,
        "ping_p50_ms": (int, float),
        "ping_p99_ms": (int, float),
        "codec_roundtrip_us": (int, float),
        "frame_bytes": int,
    },
    "throughput": {
        "serial_max_sustained_rps": (int, float),
        "pipelined_max_sustained_rps": (int, float),
        "pipelined_speedup": (int, float),
        "serial_errors": int,
        "pipelined_errors": int,
    },
    "scaling": {"cores": int, "note": str},
}

_CURVE_POINT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "offered_rps": (int, float),
    "achieved_rps": (int, float),
    "requests": int,
    "completed": int,
    "errors": int,
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "p99_ms": (int, float),
}


def validate_serving_report(report: Any) -> list[str]:
    """Problems with a BENCH_serving.json report (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["report must be a JSON object"]
    if report.get("schema_version") != SERVING_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SERVING_SCHEMA_VERSION}, "
            f"got {report.get('schema_version')!r}"
        )
    if report.get("benchmark") != "serving":
        problems.append(
            f"benchmark must be 'serving', got {report.get('benchmark')!r}"
        )
    for section, fields in _SERVING_SCHEMA.items():
        body = report.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing or non-object section {section!r}")
            continue
        for name, kinds in fields.items():
            value = body.get(name)
            if not isinstance(value, kinds) or isinstance(value, bool) != (
                kinds is bool
            ):
                problems.append(f"{section}.{name} must be {kinds}, got {value!r}")
    curves = report.get("latency_curves")
    if not isinstance(curves, dict):
        problems.append("missing or non-object section 'latency_curves'")
    else:
        for mode in ("serial", "pipelined"):
            points = curves.get(mode)
            if not isinstance(points, list) or not points:
                problems.append(f"latency_curves.{mode} must be a non-empty list")
                continue
            for index, point in enumerate(points):
                if not isinstance(point, dict):
                    problems.append(f"latency_curves.{mode}[{index}] must be an object")
                    continue
                for name, kinds in _CURVE_POINT_FIELDS.items():
                    value = point.get(name)
                    if not isinstance(value, kinds) or isinstance(value, bool):
                        problems.append(
                            f"latency_curves.{mode}[{index}].{name} "
                            f"must be {kinds}, got {value!r}"
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
