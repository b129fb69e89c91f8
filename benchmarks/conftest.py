"""Shared fixtures for the benchmark suite.

The corpus size defaults to 1,500 entries so ``pytest benchmarks/
--benchmark-only`` completes in a few minutes; set
``REPRO_BENCH_ENTRIES=7132`` to run at the paper's PlanetMath scale
(Section 3: 7,145 entries / 12,171 concepts — our generator's default
7,132 matches the largest subset of Table 3).

Without the pytest-benchmark plugin (not installed, or disabled with
``-p no:benchmark``) a stand-in ``benchmark`` fixture runs each target
once, so the suite's assertions still run and nothing is timed.
"""

from __future__ import annotations

import os

import pytest

from repro.corpus.generator import GeneratorParams, load_or_generate

BENCH_ENTRIES = int(os.environ.get("REPRO_BENCH_ENTRIES", "1500"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20090612"))


class OneShotBenchmark:
    """The part of pytest-benchmark's fixture the suite uses.

    Runs the target once; ``rounds`` and ``iterations`` are ignored.
    """

    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, setup=None, **_):
        if setup is not None:
            prepared = setup()
            if prepared is not None:
                args, kwargs = prepared
        return target(*args, **(kwargs or {}))


class OneShotBenchmarkPlugin:
    @pytest.fixture()
    def benchmark(self):
        return OneShotBenchmark()


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(OneShotBenchmarkPlugin(), "one-shot-benchmark")


@pytest.fixture(scope="session")
def bench_corpus():
    """The shared synthetic corpus (memoized across benchmark files)."""
    return load_or_generate(GeneratorParams(n_entries=BENCH_ENTRIES, seed=BENCH_SEED))


@pytest.fixture(scope="session")
def small_corpus():
    """A small corpus for micro-benchmarks that rebuild linkers per round."""
    return load_or_generate(GeneratorParams(n_entries=300, seed=BENCH_SEED))


def emit(title: str, text: str) -> None:
    """Print a result table so benchmark logs double as the paper tables."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
