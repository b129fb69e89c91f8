#!/usr/bin/env python
"""Serving benchmark: emit (or validate) the BENCH_serving.json baseline.

Drives a live NNexus server over real loopback sockets with a
deterministic open-loop load generator and writes RPS vs p50/p95/p99
latency curves plus max-sustained throughput for two transport shapes:
the serial one-request-per-connection baseline and the pipelined
reqid-multiplexed client.  See EXPERIMENTS.md ("Serving benchmark")
for the schema and docs/wire-protocol.md for the pipelining protocol.

Usage::

    python benchmarks/bench_serving.py                      # full run
    python benchmarks/bench_serving.py --smoke              # CI-sized run
    python benchmarks/bench_serving.py --validate BENCH_serving.json
    python benchmarks/bench_serving.py --smoke --gate BENCH_serving.json

The gate (``repro.obs.bench.check_serving_regression``) is
machine-independent; multicore scaling is reported but never gated.

Not a pytest file on purpose: the shape-asserted serving tests live in
``tests/server`` and ``tests/obs``; this is the JSON-emitting
trajectory harness CI uploads as an artifact.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Runnable as a plain script without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.bench import ServingParams, bench_main, bench_parser, run_serving_bench  # noqa: E402


def _summary(report: dict) -> str:
    throughput = report["throughput"]
    return (
        f"serial {throughput['serial_max_sustained_rps']:,.0f} rps, pipelined "
        f"{throughput['pipelined_max_sustained_rps']:,.0f} rps "
        f"({throughput['pipelined_speedup']:.2f}x), ping p50 "
        f"{report['protocol_overhead']['ping_p50_ms']:.3f} ms, "
        f"{report['correctness']['mismatches']} mismatches in "
        f"{report['correctness']['checked']} checked responses"
    )


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(
        "serving",
        smoke_help="CI-sized run (smaller bursts, shorter curves)",
        gate_help="fail unless correctness is perfect, ping p50 is within bound, "
                  "and pipelining strictly beats the serial baseline; PATH is "
                  "schema-checked as the comparison baseline",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        params = ServingParams.smoke_params(seed=args.seed)
    else:
        params = ServingParams(seed=args.seed)
    return bench_main("serving", args, lambda: run_serving_bench(params), _summary)


if __name__ == "__main__":
    sys.exit(main())
