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

import argparse
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
    check_regression,
    measure_overhead,
    overhead_problems,
    run_linking_bench,
    validate_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/bench_linking.py")
    parser.add_argument("--entries", type=int, default=1500,
                        help="corpus size (paper scale: 7132)")
    parser.add_argument("--seed", type=int, default=20090612)
    parser.add_argument("--smoke", action="store_true",
                        help=f"CI-sized run ({SMOKE_ENTRIES} entries)")
    parser.add_argument("--out", type=str, default="BENCH_linking.json",
                        help="report path ('-' for stdout)")
    parser.add_argument("--validate", type=str, metavar="PATH", default="",
                        help="validate an existing report instead of running")
    parser.add_argument("--overhead", action="store_true",
                        help="time a cold pass plain and with metrics, a live "
                             "tracer, and the profiler plus memory reconciles; "
                             "fail unless every pass renders the same bytes, "
                             "the profiler sampled and a reconcile ran")
    parser.add_argument("--profile-out", type=str, metavar="PATH", default="",
                        help="with --overhead, also write the collapsed-stack "
                             "profile (flamegraph input) to PATH")
    parser.add_argument("--gate", type=str, metavar="PATH", default="",
                        help="fail if the run's steer share regresses vs this baseline report")
    args = parser.parse_args(argv)

    if args.validate:
        report = json.loads(Path(args.validate).read_text(encoding="utf-8"))
        problems = validate_report(report)
        if problems:
            for problem in problems:
                print(f"schema error: {problem}", file=sys.stderr)
            return 1
        print(f"{args.validate}: valid (schema_version {report['schema_version']})")
        return 0

    if args.smoke:
        params = BenchParams.smoke_params(seed=args.seed)
    else:
        params = BenchParams(entries=args.entries, seed=args.seed)

    if args.overhead:
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

    # Load the gate baseline up front: --out may overwrite the same file.
    gate_baseline = None
    if args.gate:
        gate_baseline = json.loads(Path(args.gate).read_text(encoding="utf-8"))

    report = run_linking_bench(params)
    problems = validate_report(report)
    if problems:  # the harness must never emit an invalid artifact
        for problem in problems:
            print(f"internal schema error: {problem}", file=sys.stderr)
        return 1
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        throughput = report["throughput"]
        print(
            f"wrote {args.out}: {report['corpus']['objects']} entries, "
            f"{throughput['tokens_per_sec']:,.0f} tokens/sec, "
            f"{throughput['links_per_sec']:,.0f} links/sec, "
            f"cache hit rate {report['cache']['hit_rate']:.3f}"
        )
        durability = report["persistence"]
        print(
            f"persistence ({durability['backend']}, sync={durability['sync']}): "
            f"cold start {durability['cold_start_sec']:.3f}s, "
            f"journal overhead {durability['wal_overhead_ratio']:.2f}x ingest, "
            f"{durability['disk_bytes']:,} bytes on disk"
        )
        resources = report["resources"]
        total = sum(c["bytes"] for c in resources["components"].values())
        print(
            f"resources: {total:,} estimated bytes across "
            f"{len(resources['components'])} components, "
            f"within_2x={resources['within_2x']}"
        )

    if gate_baseline is not None:
        regressions = check_regression(report, gate_baseline)
        if regressions:
            for regression in regressions:
                print(f"perf gate: {regression}", file=sys.stderr)
            return 1
        steer_share = report["stages"]["steer"]["sum_sec"] / report["throughput"][
            "cold_elapsed_sec"
        ]
        print(f"perf gate: pass (steer share {steer_share:.1%} of cold pass)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
