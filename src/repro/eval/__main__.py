"""Command-line entry point for regenerating the paper's tables/figures.

Usage::

    python -m repro.eval all                # every experiment
    python -m repro.eval table2 --entries 7132
    python -m repro.eval table3 --sizes 200,500,1000
    python -m repro.eval fig8 --entries 2000

``--entries`` controls the synthetic corpus size (default 7132, the
paper's PlanetMath snapshot size); smaller values make quick runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Callable

from repro.corpus.generator import GeneratorParams, corpus_statistics, load_or_generate
from repro.eval import experiments

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig8",
    "mislink",
    "baselines",
    "ablation-weighting",
    "ablation-invalidation",
    "ablation-conceptmap",
    "auto-policies",
    "connectivity",
    "growth",
    "error-breakdown",
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the NNexus paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=(*_EXPERIMENTS, "all"))
    parser.add_argument("--entries", type=int, default=7132,
                        help="synthetic corpus size (default: 7132)")
    parser.add_argument("--seed", type=int, default=20090612)
    parser.add_argument("--sizes", type=str, default="",
                        help="comma-separated corpus sizes for table3/fig8")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    params = GeneratorParams(n_entries=args.entries, seed=args.seed)
    start = time.perf_counter()
    corpus = load_or_generate(params)
    stats = corpus_statistics(corpus)
    print(
        f"corpus: {stats['entries']:.0f} entries, "
        f"{stats['concept_labels']:.0f} concept labels, "
        f"{stats['invocations']:.0f} planted invocations "
        f"(generated in {time.perf_counter() - start:.1f}s)\n"
    )

    # Table 3 and Fig. 8 print one sweep, run at most once per invocation.
    sweep = functools.cache(
        lambda: experiments.run_table3(corpus, sizes=_sizes(args, corpus))
    )
    chosen = list(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in chosen:
        print(_run_one(name, corpus, sweep))
        print()
    return 0


def _run_one(name: str, corpus, sweep: Callable[[], experiments.Table3Result]) -> str:
    if name == "table1":
        return experiments.run_table1(corpus).format()
    if name == "table2":
        return experiments.run_table2(corpus).format()
    if name == "table3":
        return sweep().format()
    if name == "fig8":
        return sweep().format_fig8()
    if name == "mislink":
        return experiments.run_mislink_study(corpus).format()
    if name == "baselines":
        return experiments.run_baseline_comparison(corpus).format()
    if name == "ablation-weighting":
        return experiments.run_ablation_weighting(corpus).format()
    if name == "ablation-invalidation":
        return experiments.run_ablation_invalidation(corpus).format()
    if name == "ablation-conceptmap":
        return experiments.run_ablation_concept_map(corpus).format()
    if name == "auto-policies":
        return experiments.run_auto_policy_study(corpus).format()
    if name == "connectivity":
        return experiments.run_connectivity_study(corpus).format()
    if name == "growth":
        return experiments.run_growth_study(corpus).format()
    if name == "error-breakdown":
        return experiments.run_error_breakdown(corpus).format()
    raise ValueError(f"unknown experiment {name!r}")


def _sizes(args: argparse.Namespace, corpus) -> tuple[int, ...]:
    if args.sizes:
        return tuple(int(part) for part in args.sizes.split(",") if part)
    default = (200, 500, 1000, 2000, 3000, 5000, 7132)
    return tuple(size for size in default if size <= len(corpus.objects)) or (
        len(corpus.objects),
    )


if __name__ == "__main__":
    sys.exit(main())
