"""Linker-level memory accounting: components, reconcile bound, stats."""

import pickle

from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.obs.memory import within_ratio
from repro.obs.metrics import MetricsRegistry
from repro.ontology.msc import build_small_msc

COMPONENTS = {
    "objects",
    "map_segments",
    "invalidation",
    "render_cache",
    "trace_ring",
    "metrics",
}


def _linker(metrics: bool = False) -> NNexus:
    linker = NNexus(
        scheme=build_small_msc(),
        metrics=MetricsRegistry() if metrics else None,
    )
    linker.add_objects(sample_corpus())
    for object_id in linker.object_ids():
        linker.render_object(object_id)
    return linker


def test_every_component_is_registered() -> None:
    linker = _linker()
    assert set(linker.accountant.sample()) == COMPONENTS


def test_estimates_track_mutations() -> None:
    linker = _linker()
    before = linker.accountant.sample()
    assert before["objects"] > 0
    assert before["map_segments"] > 0
    assert before["invalidation"] > 0
    assert before["render_cache"] > 0
    first_id = linker.object_ids()[0]
    linker.remove_object(first_id)
    after = linker.accountant.sample()
    assert after["objects"] < before["objects"]
    # Peaks remember the high-watermark across the removal.
    assert linker.accountant.peaks()["objects"] == before["objects"]


def test_reconcile_stays_within_2x_on_populated_corpus() -> None:
    linker = _linker()
    report = linker.accountant.reconcile()
    # Every deep-rooted component is reconciled; metrics is estimate-only.
    assert set(report) == COMPONENTS - {"metrics"}
    assert within_ratio(report, bound=2.0), report


def test_resource_stats_shape_and_deep_toggle() -> None:
    linker = _linker(metrics=True)
    shallow = linker.resource_stats()
    assert shallow["objects"] == len(linker)
    assert shallow["uptime_seconds"] >= 0.0
    assert set(shallow["memory"]["components"]) == COMPONENTS
    assert shallow["memory"]["reconcile"] == {}
    deep = linker.resource_stats(deep=True)
    assert deep["memory"]["reconcile"], "deep=True must force a reconcile"
    assert deep["memory"]["reconcile_age_sec"] is not None


def test_memory_gauges_fold_into_metrics_snapshot() -> None:
    linker = _linker(metrics=True)
    snapshot = linker.metrics_snapshot()
    gauge_names = {gauge["name"] for gauge in snapshot["gauges"]}
    assert "nnexus_memory_bytes" in gauge_names
    assert "nnexus_memory_peak_bytes" in gauge_names
    assert "nnexus_build_info" in gauge_names
    assert "nnexus_uptime_seconds" in gauge_names
    components = {
        gauge["labels"]["component"]
        for gauge in snapshot["gauges"]
        if gauge["name"] == "nnexus_memory_bytes"
    }
    assert components == COMPONENTS


def test_describe_carries_version_and_uptime() -> None:
    from repro import __version__

    linker = _linker()
    description = linker.describe()
    assert description["version"] == __version__
    assert description["uptime_seconds"] >= 0.0


def test_pickled_linker_rebuilds_its_accountant() -> None:
    linker = _linker()
    clone = pickle.loads(pickle.dumps(linker))
    sample = clone.accountant.sample()
    assert set(sample) == COMPONENTS
    # The clone's estimators are bound to the clone, not the parent.
    parent_objects = linker.accountant.sample()["objects"]
    clone.remove_object(clone.object_ids()[0])
    assert clone.accountant.sample()["objects"] < parent_objects
    assert linker.accountant.sample()["objects"] == parent_objects


def _deep_ratio(linker: NNexus, component: str) -> float:
    reconcile = linker.resource_stats(deep=True)["memory"]["reconcile"]
    return reconcile[component]["ratio"]


def _churned_linker(formats: tuple[str, ...] = ()) -> NNexus:
    """A 300-entry linker after updates, removals and re-adds.

    With ``formats``, every entry is rendered in each of them before the
    churn, and the dirty renderings are refreshed after it.
    """
    from dataclasses import replace

    from repro.corpus.generator import GeneratorParams, generate_corpus

    corpus = generate_corpus(GeneratorParams(n_entries=300, seed=5))
    linker = NNexus(scheme=corpus.scheme)
    linker.add_objects(corpus.objects)
    assert 0.5 <= _deep_ratio(linker, "invalidation") <= 2.0
    for fmt in formats:
        for object_id in linker.object_ids():
            linker.render_object(object_id, fmt=fmt)
    objects = corpus.objects
    for obj in objects[:60]:
        linker.update_object(replace(obj, text=obj.text[: len(obj.text) // 2]))
    for obj in objects[60:120]:
        linker.remove_object(obj.object_id)
    for obj in objects[60:90]:
        linker.add_object(obj)
    if formats:
        linker.relink_invalidated()
    return linker


def test_invalidation_estimate_within_2x_after_build_and_churn() -> None:
    from repro.core.invalidation import InvalidationIndex
    from repro.core.tokenizer import Tokenizer

    linker = _churned_linker()
    assert 0.5 <= _deep_ratio(linker, "invalidation") <= 2.0
    # No drift: the incrementally maintained estimate equals the estimate
    # of an index built from scratch over the surviving texts.
    fresh = InvalidationIndex()
    tokenizer = Tokenizer()
    for object_id in linker.object_ids():
        words = tokenizer.tokenize(linker.get_object(object_id).text).canonical_words()
        fresh.index_object(object_id, words)
    assert linker.invalidation_index.estimated_bytes == fresh.estimated_bytes


def test_objects_estimate_within_2x_and_without_drift_after_churn() -> None:
    linker = _churned_linker()
    assert 0.5 <= _deep_ratio(linker, "objects") <= 2.0
    # The stored objects and their kept scans are charged symmetrically:
    # a fresh linker over the surviving entries estimates the same bytes.
    fresh = NNexus(scheme=linker.scheme)
    fresh.add_objects(linker.get_object(object_id) for object_id in linker.object_ids())
    assert (
        linker.accountant.sample()["objects"] == fresh.accountant.sample()["objects"]
    )


def test_map_and_render_cache_estimates_without_drift_after_churn() -> None:
    linker = _churned_linker(formats=("html", "markdown"))
    cache = linker.cache
    assert not cache.invalid_keys()
    # A fresh linker over the survivors, rendered in the formats the
    # churned cache holds for each, must estimate the same bytes.
    fresh = NNexus(scheme=linker.scheme)
    fresh.add_objects(linker.get_object(object_id) for object_id in linker.object_ids())
    cached_formats = 0
    for object_id in linker.object_ids():
        for fmt in sorted(cache.formats_for(object_id)):
            fresh.render_object(object_id, fmt=fmt)
            cached_formats += 1
    assert cached_formats > len(linker)  # both formats, for most survivors
    churned = linker.accountant.sample()
    rebuilt = fresh.accountant.sample()
    assert churned["map_segments"] == rebuilt["map_segments"]
    assert churned["render_cache"] == rebuilt["render_cache"]
