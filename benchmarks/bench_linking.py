#!/usr/bin/env python
"""Linking benchmark: emit (or validate) the BENCH_linking.json baseline.

Runs the full Fig. 2 pipeline over the deterministic synthetic corpus
and writes the performance report every later perf PR is judged
against.  See EXPERIMENTS.md ("Benchmark baseline") for the schema.

Usage::

    python benchmarks/bench_linking.py                      # 1,500 entries
    python benchmarks/bench_linking.py --smoke              # CI-sized run
    python benchmarks/bench_linking.py --entries 7132       # paper scale
    python benchmarks/bench_linking.py --validate BENCH_linking.json
    python benchmarks/bench_linking.py --smoke --overhead   # instruments change no bytes
    python benchmarks/bench_linking.py --smoke --overhead --profile-out stacks.txt
    python benchmarks/bench_linking.py --smoke --gate BENCH_linking.json

Not a pytest file on purpose: the shape-asserted benchmark suite lives
in the ``test_*.py`` files; this is the JSON-emitting trajectory
harness CI uploads as an artifact.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Runnable as a plain script without PYTHONPATH=src.
_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.obs.bench import (  # noqa: E402
    SMOKE_ENTRIES,
    BenchParams,
    bench_main,
    bench_parser,
    measure_overhead,
    overhead_problems,
    run_linking_bench,
)


def _summary(report: dict) -> str:
    throughput = report["throughput"]
    durability = report["persistence"]
    resources = report["resources"]
    total = sum(c["bytes"] for c in resources["components"].values())
    return (
        f"{report['corpus']['objects']} entries, "
        f"{throughput['tokens_per_sec']:,.0f} tokens/sec, "
        f"{throughput['links_per_sec']:,.0f} links/sec, "
        f"cache hit rate {report['cache']['hit_rate']:.3f}\n"
        f"persistence ({durability['backend']}, sync={durability['sync']}): "
        f"cold start {durability['cold_start_sec']:.3f}s, "
        f"journal overhead {durability['wal_overhead_ratio']:.2f}x ingest, "
        f"{durability['disk_bytes']:,} bytes on disk\n"
        f"resources: {total:,} estimated bytes across "
        f"{len(resources['components'])} components, "
        f"within_2x={resources['within_2x']}"
    )


def main(argv: list[str] | None = None) -> int:
    parser = bench_parser(
        "linking",
        smoke_help=f"CI-sized run ({SMOKE_ENTRIES} entries)",
        gate_help="fail if the run's steer share regresses vs this baseline report",
    )
    parser.add_argument("--entries", type=int, default=1500,
                        help="corpus size (paper scale: 7132)")
    parser.add_argument("--overhead", action="store_true",
                        help="time a cold pass plain and with metrics, a live "
                             "tracer, and the profiler plus memory reconciles; "
                             "fail unless every pass renders the same bytes, "
                             "the profiler sampled and a reconcile ran")
    parser.add_argument("--profile-out", type=str, metavar="PATH", default="",
                        help="with --overhead, also write the collapsed-stack "
                             "profile (flamegraph input) to PATH")
    args = parser.parse_args(argv)

    if args.smoke:
        params = BenchParams.smoke_params(seed=args.seed)
    else:
        params = BenchParams(entries=args.entries, seed=args.seed)

    if args.overhead and not args.validate:
        overhead = measure_overhead(params)
        collapsed = overhead.pop("collapsed")
        print(json.dumps(overhead, indent=2))
        if args.profile_out:
            Path(args.profile_out).write_text(collapsed, encoding="utf-8")
            print(f"wrote collapsed-stack profile to {args.profile_out}")
        problems = overhead_problems(overhead)
        for problem in problems:
            print(f"overhead check: {problem}", file=sys.stderr)
        return 1 if problems else 0

    return bench_main("linking", args, lambda: run_linking_bench(params), _summary)


if __name__ == "__main__":
    sys.exit(main())
