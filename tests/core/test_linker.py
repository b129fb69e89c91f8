"""Tests for the NNexus façade: the full pipeline of Fig. 2."""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import DomainConfig, NNexusConfig
from repro.core.errors import (
    DuplicateObjectError,
    NNexusError,
    PolicyParseError,
    UnknownObjectError,
)
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.obs.metrics import MetricsRegistry
from repro.ontology.msc import build_small_msc
from tests.core.test_incremental_model import (
    PROFILE,
    SCHEME,
    classes,
    entries,
    labels,
    policies,
    texts,
)

#: Examples per update-contract property; the large-budget CI step sets
#: ``NNEXUS_MODEL_PROFILE=ci``.
CONTRACT_EXAMPLES = 1_000 if PROFILE == "ci" else 60


def fig1_linker(**kwargs) -> NNexus:
    linker = NNexus(scheme=build_small_msc(), **kwargs)
    linker.add_objects(
        [
            CorpusObject(2, "planar graph", defines=["planar graph"],
                         classes=["05C10"], text="Embeds in the plane."),
            CorpusObject(5, "graph", defines=["graph"], synonyms=["graphs"],
                         classes=["05C99"], text="Vertices and edges."),
            CorpusObject(6, "graph (set theory)", defines=["graph"],
                         classes=["03E20"], text="Set of ordered pairs."),
            CorpusObject(9, "connected components", defines=["connected component"],
                         classes=["05C40"], text="Maximal connected subgraphs."),
        ]
    )
    return linker


class TestCorpusMaintenance:
    def test_duplicate_object_rejected(self) -> None:
        linker = fig1_linker()
        with pytest.raises(DuplicateObjectError):
            linker.add_object(CorpusObject(5, "dup", defines=["dup"]))

    def test_unknown_object_raises(self) -> None:
        with pytest.raises(UnknownObjectError):
            fig1_linker().get_object(404)
        with pytest.raises(UnknownObjectError):
            fig1_linker().remove_object(404)

    def test_remove_unindexes_labels(self) -> None:
        linker = fig1_linker()
        linker.remove_object(2)
        doc = linker.link_text("a planar graph here", source_classes=["05C10"])
        # "planar graph" gone; bare "graph" still matches.
        assert [l.target_id for l in doc.links] == [5]

    def test_update_object_replaces(self) -> None:
        linker = fig1_linker()
        linker.update_object(
            CorpusObject(2, "planar graph", defines=["outerplanar graph"],
                         classes=["05C10"], text="changed")
        )
        doc = linker.link_text("an outerplanar graph", source_classes=["05C10"])
        assert [l.target_id for l in doc.links] == [2]

    def test_object_ids_and_len(self) -> None:
        linker = fig1_linker()
        assert linker.object_ids() == [2, 5, 6, 9]
        assert len(linker) == 4
        assert linker.has_object(5)
        assert not linker.has_object(50)


class TestLinking:
    def test_steering_resolves_homonym(self) -> None:
        linker = fig1_linker()
        doc = linker.link_text("the graph is connected", source_classes=["05C40"])
        assert [l.target_id for l in doc.links] == [5]
        doc = linker.link_text("the graph of a pairing", source_classes=["03E20"])
        assert [l.target_id for l in doc.links] == [6]

    def test_self_link_excluded(self) -> None:
        linker = fig1_linker()
        linker.update_object(
            CorpusObject(5, "graph", defines=["graph"], classes=["05C99"],
                         text="A graph is a pair of vertex sets.")
        )
        doc = linker.link_object(5)
        # 'graph' may only link to the set-theory homonym, never itself.
        assert all(link.target_id != 5 for link in doc.links)

    def test_self_link_allowed_when_configured(self) -> None:
        config = NNexusConfig(allow_self_links=True)
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_object(
            CorpusObject(5, "graph", defines=["graph"], classes=["05C99"],
                         text="A graph is a graph.")
        )
        doc = linker.link_object(5)
        assert [l.target_id for l in doc.links] == [5]

    def test_first_occurrence_only(self) -> None:
        linker = fig1_linker()
        doc = linker.link_text("graph graph graph", source_classes=["05C99"])
        assert doc.link_count == 1

    def test_every_occurrence_when_configured(self) -> None:
        config = NNexusConfig(link_first_occurrence_only=False)
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_object(CorpusObject(5, "graph", defines=["graph"],
                                       classes=["05C99"], text=""))
        doc = linker.link_text("graph then graph", source_classes=["05C99"])
        assert doc.link_count == 2

    def test_link_spans_match_source_text(self) -> None:
        linker = fig1_linker()
        text = "every planar graph has connected components"
        doc = linker.link_text(text, source_classes=["05C10"])
        for link in doc.links:
            assert text[link.char_start : link.char_end] == link.source_phrase

    def test_no_steering_falls_back_to_lowest_id(self) -> None:
        linker = fig1_linker(enable_steering=False)
        doc = linker.link_text("the graph", source_classes=["03E20"])
        assert [l.target_id for l in doc.links] == [5]  # min id, not steered

    def test_unclassified_source_still_links(self) -> None:
        linker = fig1_linker()
        doc = linker.link_text("a planar graph")
        assert doc.link_count == 1

    def test_stats_accumulate(self) -> None:
        linker = fig1_linker()
        linker.link_text("a planar graph", source_classes=["05C10"])
        snapshot = linker.stats.snapshot()
        assert snapshot["entries_linked"] == 1
        assert snapshot["links_created"] == 1


class TestPolicies:
    def test_policy_blocks_link(self) -> None:
        linker = fig1_linker()
        linker.add_object(
            CorpusObject(7, "even number", defines=["even number", "even"],
                         classes=["11A05"], text="Divisible by two.",
                         linking_policy="forbid even\npermit even 11\n")
        )
        outside = linker.link_text("an even split", source_classes=["05C99"])
        assert outside.link_count == 0
        inside = linker.link_text("an even integer", source_classes=["11A41"])
        assert [l.target_id for l in inside.links] == [7]

    def test_policy_ignored_when_disabled(self) -> None:
        linker = fig1_linker(enable_policies=False)
        linker.add_object(
            CorpusObject(7, "even number", defines=["even"], classes=["11A05"],
                         text="", linking_policy="forbid even\n")
        )
        doc = linker.link_text("even here", source_classes=["05C99"])
        assert doc.link_count == 1

    def test_policy_never_written_through_to_caller_objects(self) -> None:
        """Two linkers sharing CorpusObject instances must not leak state."""
        shared = CorpusObject(7, "even number", defines=["even"],
                              classes=["11A05"], text="")
        first = fig1_linker()
        first.add_object(shared)
        first.set_linking_policy(7, "forbid even\n")
        assert shared.linking_policy == ""  # caller's object untouched
        second = fig1_linker()
        second.add_object(shared)
        doc = second.link_text("even", source_classes=["05C99"])
        assert doc.link_count == 1  # no policy leaked into the new linker

    def test_set_linking_policy_after_add(self) -> None:
        linker = fig1_linker()
        linker.add_object(CorpusObject(7, "even number", defines=["even"],
                                       classes=["11A05"], text=""))
        assert linker.link_text("even", source_classes=["05C99"]).link_count == 1
        linker.set_linking_policy(7, "forbid even\n")
        assert linker.link_text("even", source_classes=["05C99"]).link_count == 0
        assert linker.get_object(7).linking_policy == "forbid even\n"


class TestTieBreaking:
    def test_priority_breaks_ties(self) -> None:
        config = NNexusConfig(
            domains={
                "pm": DomainConfig("pm", priority=1),
                "mw": DomainConfig("mw", priority=2),
            },
            default_domain="pm",
        )
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_object(CorpusObject(10, "tree", defines=["tree"],
                                       classes=["05C05"], domain="mw", text=""))
        linker.add_object(CorpusObject(20, "tree", defines=["tree"],
                                       classes=["05C05"], domain="pm", text=""))
        doc = linker.link_text("a tree", source_classes=["05C05"])
        # Same class distance; pm (priority 1) wins despite higher id.
        assert [l.target_id for l in doc.links] == [20]
        assert linker.stats.ties_broken_by_priority == 1

    def test_id_breaks_remaining_ties(self) -> None:
        linker = NNexus(scheme=build_small_msc())
        linker.add_object(CorpusObject(30, "tree", defines=["tree"],
                                       classes=["05C05"], text=""))
        linker.add_object(CorpusObject(10, "tree", defines=["tree"],
                                       classes=["05C05"], text=""))
        doc = linker.link_text("a tree", source_classes=["05C05"])
        assert [l.target_id for l in doc.links] == [10]


class TestRankerIntegration:
    def test_ranker_overrides_steering(self) -> None:
        from repro.core.ranking import CompositeRanker, ReputationTable

        linker = fig1_linker()
        reputation = ReputationTable()
        for __ in range(50):
            reputation.record_feedback(6, helpful=True)
            reputation.record_feedback(5, helpful=False)
        # Heavy reputation weight flips the homonym away from steering.
        linker.set_ranker(
            CompositeRanker(
                steering=linker.steering,
                reputation=reputation,
                class_weight=0.0,
                reputation_weight=10.0,
            )
        )
        doc = linker.link_text("the graph", source_classes=["05C40"])
        assert [l.target_id for l in doc.links] == [6]

    def test_detaching_ranker_restores_steering(self) -> None:
        from repro.core.ranking import CompositeRanker

        linker = fig1_linker()
        linker.set_ranker(CompositeRanker(steering=linker.steering))
        linker.set_ranker(None)
        doc = linker.link_text("the graph", source_classes=["05C40"])
        assert [l.target_id for l in doc.links] == [5]

    def test_default_composite_ranker_agrees_with_steering(self) -> None:
        from repro.core.ranking import CompositeRanker

        plain = fig1_linker()
        ranked = fig1_linker()
        ranked.set_ranker(CompositeRanker(steering=ranked.steering))
        for classes in (["05C40"], ["03E20"], ["11A41"]):
            text = "the graph and a planar graph"
            a = plain.link_text(text, source_classes=classes)
            b = ranked.link_text(text, source_classes=classes)
            assert [l.target_id for l in a.links] == [l.target_id for l in b.links]

    def test_policies_still_apply_with_ranker(self) -> None:
        from repro.core.ranking import CompositeRanker

        linker = fig1_linker()
        linker.add_object(
            CorpusObject(7, "even number", defines=["even"], classes=["11A05"],
                         text="", linking_policy="forbid even\n")
        )
        linker.set_ranker(CompositeRanker(steering=linker.steering))
        doc = linker.link_text("even now", source_classes=["05C99"])
        assert doc.link_count == 0


class TestInvalidationFlow:
    def test_new_concept_invalidates_probable_invokers(self) -> None:
        linker = fig1_linker()
        for object_id in linker.object_ids():
            linker.render_object(object_id)
        invalidated = linker.add_object(
            CorpusObject(42, "vertex", defines=["vertex", "vertices"],
                         classes=["05C99"], text="Unit of a graph.")
        )
        assert 5 in invalidated  # object 5's text mentions "vertices"
        assert 2 not in invalidated
        assert 5 in linker.invalid_entries()

    def test_relink_invalidated_refreshes(self) -> None:
        linker = fig1_linker()
        for object_id in linker.object_ids():
            linker.render_object(object_id)
        linker.add_object(
            CorpusObject(42, "vertex", defines=["vertex", "vertices"],
                         classes=["05C99"], text="Unit of a graph.")
        )
        refreshed = linker.relink_invalidated()
        assert 5 in refreshed
        assert "#object-42" in refreshed[5]
        assert linker.invalid_entries() == []

    def test_remove_object_invalidates_linkers_to_it(self) -> None:
        linker = fig1_linker()
        linker.render_object(9)  # links "connected" etc.
        invalidated = linker.remove_object(2)
        assert isinstance(invalidated, set)


class TestRendering:
    def test_render_formats(self) -> None:
        linker = fig1_linker()
        linker.update_object(
            CorpusObject(9, "connected components", defines=["connected component"],
                         classes=["05C40"], text="Pieces of a graph.")
        )
        html = linker.render_object(9, fmt="html")
        assert "<a " in html
        markdown = linker.render_object(9, fmt="markdown")
        assert "](" in markdown
        annotated = linker.render_object(9, fmt="annotations")
        assert "[->" in annotated

    def test_unknown_format_raises(self) -> None:
        with pytest.raises(ValueError):
            fig1_linker().render_object(9, fmt="docx")

    def test_html_render_served_from_cache(self) -> None:
        linker = fig1_linker()
        linker.render_object(9)
        hits_before = linker.cache.hits
        linker.render_object(9)
        assert linker.cache.hits == hits_before + 1


class TestStageTimers:
    def test_signature_time_lands_in_steer_not_tokenize(self, monkeypatch) -> None:
        registry = MetricsRegistry()
        linker = fig1_linker(metrics=registry)
        steering = linker._steering
        interned = steering.signature

        def slow_signature(classes):
            time.sleep(0.1)
            return interned(classes)

        monkeypatch.setattr(steering, "signature", slow_signature)
        doc = linker.link_text("a planar graph", source_classes=["05C10"])
        assert doc.link_count == 1

        def stage_sum(stage: str) -> float:
            return registry.histogram_summary(
                "nnexus_pipeline_stage_seconds", stage=stage
            ).sum

        assert stage_sum("tokenize") < 0.1
        assert stage_sum("steer") >= 0.1


class TestStoredScans:
    """Each stored entry version is tokenized once, at mutation time."""

    @staticmethod
    def _count_scans(linker: NNexus, monkeypatch) -> list[str]:
        scanned: list[str] = []
        tokenize = linker._tokenizer.tokenize

        def counting(text: str):
            scanned.append(text)
            return tokenize(text)

        monkeypatch.setattr(linker._tokenizer, "tokenize", counting)
        return scanned

    def test_mutations_tokenize_once_and_links_never(self, monkeypatch) -> None:
        linker = fig1_linker(metrics=MetricsRegistry())
        scanned = self._count_scans(linker, monkeypatch)
        text = "A planar graph of graphs."
        linker.add_object(CorpusObject(11, "note", classes=["05C10"], text=text))
        assert scanned == [text]
        updated = "Connected components of a graph."
        linker.update_object(CorpusObject(11, "note", classes=["05C40"], text=updated))
        assert scanned == [text, updated]
        scanned.clear()
        for object_id in linker.object_ids():
            linker.link_object(object_id)
            for fmt in ("html", "markdown", "annotations"):
                linker.render_object(object_id, fmt=fmt)
        linker.cache.clear()
        linker.relink_invalidated()
        linker.render_object(11)
        assert scanned == []
        # Ad-hoc text is not stored, so it is scanned on every call.
        linker.link_text("a planar graph")
        linker.link_text("a planar graph")
        assert scanned == ["a planar graph"] * 2

    def test_update_keeping_the_text_keeps_the_scan(self, monkeypatch) -> None:
        linker = fig1_linker()
        text = "A planar graph of graphs."
        linker.add_object(CorpusObject(11, "note", classes=["05C10"], text=text))
        kept = linker._scans[11]
        scanned = self._count_scans(linker, monkeypatch)
        linker.update_object(
            CorpusObject(11, "note", synonyms=["jotting"], classes=["05C10"], text=text)
        )
        assert scanned == []
        linker.set_linking_policy(11, "forbid *")
        assert scanned == []
        assert linker._scans[11] is kept
        updated = text + " Trees."
        linker.update_object(CorpusObject(11, "note", classes=["05C10"], text=updated))
        assert scanned == [updated]
        for object_id in linker.object_ids():
            obj = linker.get_object(object_id)
            assert linker.link_object(object_id) == linker.link_text(
                obj.text, obj.classes, (object_id,), object_id
            )

    def test_pickled_snapshot_links_without_tokenizing(self, monkeypatch) -> None:
        # Process-mode batch workers link from the scans in the snapshot.
        import pickle

        linker = fig1_linker()
        clone = pickle.loads(pickle.dumps(linker))
        scanned = self._count_scans(clone, monkeypatch)
        for object_id in linker.object_ids():
            assert clone.link_object(object_id) == linker.link_object(object_id)
        assert scanned == []

    def test_tokenize_stage_timed_once_per_stored_version(self) -> None:
        registry = MetricsRegistry()
        linker = fig1_linker(metrics=registry)
        for object_id in linker.object_ids():
            linker.render_object(object_id)
        summary = registry.histogram_summary(
            "nnexus_pipeline_stage_seconds", stage="tokenize"
        )
        assert summary.count == len(linker)
        assert registry.histogram_summary(
            "nnexus_pipeline_stage_seconds", stage="match"
        ).count == len(linker)

    def test_tokenize_span_recorded_only_inside_a_trace(self) -> None:
        from repro.obs.trace import Tracer

        tracer = Tracer(seed=1)
        linker = fig1_linker(tracer=tracer)
        assert tracer.recent_traces() == []
        with tracer.span("server.addObject"):
            linker.add_object(CorpusObject(11, "note", text="a planar graph"))
        (trace,) = tracer.recent_traces()
        names = [span["name"] for span in trace["spans"]]
        assert sorted(names) == ["server.addObject", "stage.tokenize"]

    def test_link_object_equals_link_text_after_churn(self) -> None:
        from repro.corpus.planetmath_sample import sample_corpus

        linker = NNexus(scheme=build_small_msc())
        corpus = sample_corpus()
        linker.add_objects(corpus)
        for obj in corpus[::2]:
            linker.update_object(
                CorpusObject(
                    obj.object_id,
                    obj.title,
                    defines=obj.defines,
                    classes=obj.classes,
                    text=obj.text.upper() + " $x$ planar graphs.",
                )
            )
        linker.remove_object(corpus[1].object_id)
        linker.add_object(corpus[1])
        for object_id in linker.object_ids():
            obj = linker.get_object(object_id)
            assert linker.link_object(object_id) == linker.link_text(
                obj.text, obj.classes, (object_id,), object_id
            )


class TestTargetMemo:
    """Each target's URL is built once per stored version and domain.

    After every lifecycle event the memoised URLs must equal those of a
    linker built fresh over the same corpus and configuration.
    """

    @staticmethod
    def _linker() -> NNexus:
        config = NNexusConfig(default_domain="pm")
        config.add_domain(DomainConfig("pm", "https://pm.example/{title}", priority=1))
        config.add_domain(
            DomainConfig("mw", "https://mw.example/{object_id}/{title}.html", priority=2)
        )
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_objects(
            [
                CorpusObject(2, "planar graph", defines=["planar graph"],
                             classes=["05C10"], domain="pm",
                             text="A planar graph has connected components."),
                CorpusObject(5, "graph", classes=["05C99"], domain="pm",
                             text="Every planar graph is a graph."),
                CorpusObject(6, "graph (set theory)", defines=["graph"],
                             classes=["03E20"], domain="mw",
                             text="A graph of a function has connected components."),
                CorpusObject(9, "connected components", defines=["connected component"],
                             classes=["05C40"], domain="mw",
                             text="The connected components of a planar graph."),
            ]
        )
        return linker

    @staticmethod
    def _links(linker: NNexus) -> dict[int, list]:
        return {oid: linker.link_object(oid).links for oid in linker.object_ids()}

    def _assert_fresh(self, linker: NNexus) -> dict[int, list]:
        fresh = NNexus(scheme=build_small_msc(), config=linker.config)
        fresh.add_objects(linker.get_object(oid) for oid in linker.object_ids())
        links = self._links(linker)
        assert links == self._links(fresh)
        return links

    def test_replaced_domain_rebuilds_urls(self) -> None:
        linker = self._linker()
        self._links(linker)
        linker.config.add_domain(
            DomainConfig("pm", "https://new.example/{object_id}", priority=1)
        )
        links = self._assert_fresh(linker)
        assert links[9][0].url == "https://new.example/2"

    def test_renamed_title_rebuilds_url(self) -> None:
        linker = self._linker()
        assert self._links(linker)[9][0].url == "https://pm.example/planar-graph"
        renamed = CorpusObject(2, "Planar graphs (plane)", defines=["planar graph"],
                               classes=["05C10"], domain="pm",
                               text="A planar graph has connected components.")
        linker.update_object(renamed)
        links = self._assert_fresh(linker)
        assert links[9][0].url == "https://pm.example/Planar-graphs-plane"

    def test_rebuilt_steering_graph_keeps_urls_right(self) -> None:
        linker = self._linker()
        self._links(linker)
        linker.set_base_weight(1.0)
        self._assert_fresh(linker)

    def test_removed_target_leaves_no_memo(self) -> None:
        linker = self._linker()
        self._links(linker)
        assert 2 in linker._targets
        linker.remove_object(2)
        assert 2 not in linker._targets
        self._assert_fresh(linker)

    def test_pickled_snapshot_links_identically(self) -> None:
        import pickle

        linker = self._linker()
        expected = self._links(linker)
        clone = pickle.loads(pickle.dumps(linker))
        assert clone._targets.keys() == linker._targets.keys()
        assert self._links(clone) == expected
        # The snapshot's memo still refers to the snapshot's own domains.
        clone.config.add_domain(DomainConfig("mw", "/mw/{object_id}", priority=2))
        self._assert_fresh(clone)
        assert self._links(clone)[2][1].url == "/mw/9"

    def test_concurrent_fills_give_the_serial_urls(self) -> None:
        # Batch worker threads fill a cold memo concurrently; every
        # reader must still get the URL a serial pass builds.
        import sys
        import threading

        from repro.core.render import render_html
        from repro.corpus.planetmath_sample import sample_corpus

        config = NNexusConfig()
        config.add_domain(DomainConfig("default", "https://pm.example/{object_id}/{title}"))
        linker = NNexus(scheme=build_small_msc(), config=config)
        linker.add_objects(sample_corpus())
        ids = linker.object_ids()
        expected = {oid: render_html(linker.link_object(oid)) for oid in ids}
        rendered: dict[tuple[int, int], str] = {}

        def work(worker: int) -> None:
            for oid in ids:
                rendered[worker, oid] = render_html(linker.link_object(oid))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                linker._targets.clear()
                threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert rendered == {(w, oid): expected[oid] for w in range(8) for oid in ids}
        finally:
            sys.setswitchinterval(interval)


class TestBaseWeight:
    def test_set_base_weight_changes_distances(self) -> None:
        linker = fig1_linker()
        linker.set_base_weight(1.0)
        doc = linker.link_text("the graph", source_classes=["05C40"])
        assert doc.link_count == 1  # still resolves

    def test_set_base_weight_without_scheme_raises(self) -> None:
        linker = NNexus(scheme=None)
        with pytest.raises(NNexusError):
            linker.set_base_weight(2.0)

    def test_describe(self) -> None:
        info = fig1_linker().describe()
        assert info["objects"] == 4
        # planar graph, graph, graph set theory (title), connected component
        assert info["concepts"] == 4


class TestOneWritePath:
    """Every mutation stores once, invalidates once and journals once."""

    @staticmethod
    def _twins(data, count: int) -> tuple[NNexus, NNexus]:
        objects = [data.draw(entries(object_id)) for object_id in range(1, count + 1)]
        twins = NNexus(scheme=SCHEME), NNexus(scheme=SCHEME)
        for linker in twins:
            linker.add_objects(objects)
        return twins

    @staticmethod
    def _edits(stored: CorpusObject) -> st.SearchStrategy[CorpusObject]:
        """A fresh entry or a one-field edit of ``stored``."""
        return st.one_of(
            entries(stored.object_id),
            texts.map(lambda text: replace(stored, text=text)),
            st.lists(labels, max_size=2).map(lambda syns: replace(stored, synonyms=syns)),
            classes.map(lambda new: replace(stored, classes=new)),
        )

    @settings(max_examples=CONTRACT_EXAMPLES, deadline=None)
    @given(data=st.data(), count=st.integers(1, 5))
    def test_update_invalidates_over_what_changed(self, data, count) -> None:
        """Remove ∪ add when a target field changes, else the changed labels."""
        updated, split = self._twins(data, count)
        object_id = data.draw(st.integers(1, count))
        old = split.get_object(object_id)
        edited = data.draw(self._edits(old))
        old_labels = split.concept_map.labels_for_object(object_id)
        union = split.remove_object(object_id) | split.add_object(edited)
        changed = old_labels ^ split.concept_map.labels_for_object(object_id)
        invalidated = updated.update_object(edited)
        assert invalidated <= union
        if any(getattr(old, name) != getattr(edited, name)
               for name in ("title", "classes", "domain", "linking_policy")):
            assert invalidated == union
        else:
            expected = split.invalidation_index.invalidate_many(changed) - {object_id}
            assert invalidated == expected

    @settings(max_examples=CONTRACT_EXAMPLES, deadline=None)
    @given(data=st.data(), count=st.integers(1, 5))
    def test_only_a_changed_policy_invalidates_the_entry_labels(self, data, count) -> None:
        linker, twin = self._twins(data, count)
        object_id = data.draw(st.integers(1, count))
        stored = linker.get_object(object_id).linking_policy
        policy = data.draw(st.one_of(st.just(stored), policies))
        defined = twin.concept_map.labels_for_object(object_id)
        expected = twin.invalidation_index.invalidate_many(defined) - {object_id}
        if policy == stored:
            expected = set()
        assert linker.set_linking_policy(object_id, policy) == expected

    @staticmethod
    def _count(owner, name: str, monkeypatch) -> list[int]:
        """Count the calls of ``owner.name``; returns the live counter."""
        calls = [0]
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_update_invalidates_once(self, monkeypatch) -> None:
        linker = fig1_linker()
        calls = self._count(linker.invalidation_index, "invalidate_many", monkeypatch)
        linker.update_object(
            CorpusObject(2, "planar graph", defines=["outerplanar graph"],
                         classes=["05C10"], text="A graph with vertices.")
        )
        assert calls == [1]
        linker.set_linking_policy(5, "forbid graph\n")
        assert calls == [2]

    def test_update_reindexes_without_removing(self, monkeypatch) -> None:
        linker = fig1_linker()
        index = linker.invalidation_index
        removes = self._count(index, "remove_object", monkeypatch)
        indexes = self._count(index, "index_object", monkeypatch)
        linker.update_object(
            CorpusObject(2, "planar graph", defines=["planar graph"],
                         classes=["05C10"], text="Embeds in the plane, a graph.")
        )
        assert (removes, indexes) == ([0], [1])
        assert index.invalidate("graph") >= {2}
        linker.remove_object(2)
        assert (removes, indexes) == ([1], [1])
        assert 2 not in index.invalidate("graph")

    def test_cold_start_neither_invalidates_nor_journals(self, tmp_path, monkeypatch) -> None:
        from repro.core.invalidation import InvalidationIndex
        from repro.persistence.sqlite_backend import SqliteBackend

        linker = fig1_linker(storage=SqliteBackend(tmp_path / "data"))
        for object_id in linker.object_ids():
            linker.render_object(object_id)
        expected = {oid: linker.render_object(oid) for oid in linker.object_ids()}
        linker.storage.close()
        invalidations = self._count(InvalidationIndex, "invalidate_many", monkeypatch)
        journal = [
            self._count(SqliteBackend, method, monkeypatch)
            for method in ("record_add", "record_bulk_add", "record_update",
                           "record_remove", "record_rendering",
                           "record_invalidate_all", "record_cache_clear")
        ]
        restarted = NNexus(
            scheme=build_small_msc(), storage=SqliteBackend(tmp_path / "data")
        )
        try:
            assert invalidations == [0]
            assert journal == [[0]] * 7
            assert {oid: restarted.render_object(oid) for oid in expected} == expected
        finally:
            restarted.storage.close()

    def test_each_mutation_journals_once(self, tmp_path, monkeypatch) -> None:
        from repro.persistence import SqliteBackend

        linker = fig1_linker(storage=SqliteBackend(tmp_path / "data"))
        try:
            calls = {
                method: self._count(linker.storage, method, monkeypatch)
                for method in ("record_add", "record_update", "record_remove")
            }
            linker.add_object(CorpusObject(42, "vertex", defines=["vertex"], text="x"))
            linker.update_object(CorpusObject(42, "vertex", defines=["vertices"], text="y"))
            linker.set_linking_policy(42, "forbid vertices\n")
            linker.remove_object(42)
            assert calls == {"record_add": [1], "record_update": [2], "record_remove": [1]}
        finally:
            linker.storage.close()

    @pytest.mark.parametrize("mutation", ["add", "update", "policy"])
    def test_bad_policy_changes_nothing(self, mutation) -> None:
        linker = fig1_linker()
        before = {oid: linker.render_object(oid) for oid in linker.object_ids()}
        stored = linker.get_object(5)
        bad = "allow graph\n"
        with pytest.raises(PolicyParseError):
            if mutation == "add":
                linker.add_object(CorpusObject(7, "even", text="", linking_policy=bad))
            elif mutation == "update":
                linker.update_object(CorpusObject(5, "graph", text="", linking_policy=bad))
            else:
                linker.set_linking_policy(5, bad)
        assert linker.object_ids() == [2, 5, 6, 9]
        assert linker.get_object(5) == stored
        assert 5 in linker.invalidation_index.invalidate("vertices")
        assert {oid: linker.render_object(oid) for oid in before} == before


# ---------------------------------------------------------------------------
# The bulk load.  ``add_objects`` skips the invalidation search for an entry
# while nothing is rendered; both of its branches must leave the linker as
# ``add_object`` called entry by entry does.
# ---------------------------------------------------------------------------


def bulk_corpus(name: str) -> tuple[object, list[CorpusObject]]:
    """(scheme, entries) of the golden sample or of a generated corpus whose
    entries carry the generator's recommended policies."""
    from repro.corpus.generator import GeneratorParams, generate_corpus
    from repro.corpus.planetmath_sample import sample_corpus

    if name == "sample":
        return build_small_msc(), list(sample_corpus())
    corpus = generate_corpus(GeneratorParams(n_entries=120, seed=5))
    recommended = corpus.recommended_policies()
    objects = [
        replace(obj, linking_policy=recommended.get(obj.object_id, ""))
        for obj in corpus.objects
    ]
    return corpus.scheme, objects


BULK_CORPORA = ("sample", "generated")
BULK_FORMATS = ("html", "markdown")


def linker_state(linker: NNexus) -> dict[str, object]:
    """What storing entries builds, in comparable form: the kept scans,
    the invalidation postings and sequences, the concept map, the
    policies and the render cache with its valid flags."""
    index = linker.invalidation_index
    chains = linker.concept_map._chains
    return {
        "scans": {
            object_id: (scan.source, list(scan.words), list(scan.starts),
                        list(scan.ends), list(scan.escaped_regions))
            for object_id, scan in linker._scans.items()
        },
        "postings": index.postings(),
        "sequences": dict(index._sequences),
        "concept_map": {
            first: ({words: set(owners) for words, owners in chain.labels.items()},
                    list(chain.by_length))
            for first, chain in chains.items()
        },
        "object_labels": {
            object_id: linker.concept_map.labels_for_object(object_id)
            for object_id in linker.object_ids()
        },
        "policies": {
            object_id: linker.policy_table.raw_policy(object_id)
            for object_id in linker.policy_table.object_ids()
        },
        "cache": {key: (entry.rendered, entry.valid)
                  for key, entry in linker.cache._entries.items()},
    }


def render_every(linker: NNexus, object_ids=None) -> dict[tuple[int, str], str]:
    ids = linker.object_ids() if object_ids is None else object_ids
    return {(oid, fmt): linker.render_object(oid, fmt) for oid in ids for fmt in BULK_FORMATS}


class TestBulkLoad:
    @pytest.mark.parametrize("name", BULK_CORPORA)
    def test_bulk_load_of_an_empty_linker_equals_adds_one_by_one(self, name) -> None:
        scheme, objects = bulk_corpus(name)
        bulk, single = NNexus(scheme=scheme), NNexus(scheme=scheme)
        bulk.add_objects(objects)
        for obj in objects:
            single.add_object(obj)
        assert linker_state(bulk) == linker_state(single)
        assert render_every(bulk) == render_every(single)
        assert linker_state(bulk) == linker_state(single)

    @pytest.mark.parametrize("name", BULK_CORPORA)
    def test_bulk_load_onto_renderings_dirties_what_add_object_would(self, name) -> None:
        scheme, objects = bulk_corpus(name)
        half = len(objects) // 2
        bulk, single = NNexus(scheme=scheme), NNexus(scheme=scheme)
        expected: set[int] = set()
        for linker in (bulk, single):
            linker.add_objects(objects[:half])
            render_every(linker)
        bulk.add_objects(objects[half:])
        for obj in objects[half:]:
            expected |= single.add_object(obj)
        rendered = {obj.object_id for obj in objects[:half]}
        assert expected & rendered, "the second half must dirty renderings of the first"
        assert bulk.invalid_entries() == single.invalid_entries() == sorted(expected & rendered)
        assert linker_state(bulk) == linker_state(single)

    def test_bulk_load_checks_for_renderings_per_entry(self) -> None:
        """A rendering made while the load runs is dirtied by later entries."""
        scheme, objects = bulk_corpus("sample")
        half = len(objects) // 2
        bulk, single = NNexus(scheme=scheme), NNexus(scheme=scheme)
        for obj in objects[:half]:
            single.add_object(obj)
        dirtied = set().union(*(single.add_object(obj) for obj in objects[half:]))
        rendered = min(dirtied & {obj.object_id for obj in objects[:half]})
        single = NNexus(scheme=scheme)

        def rendering_midway():
            yield from objects[:half]
            render_every(bulk, [rendered])
            yield from objects[half:]

        bulk.add_objects(rendering_midway())
        for obj in objects[:half]:
            single.add_object(obj)
        render_every(single, [rendered])
        for obj in objects[half:]:
            single.add_object(obj)
        assert single.invalid_entries() == [rendered]
        assert linker_state(bulk) == linker_state(single)

    def test_add_object_still_returns_the_exact_set(self) -> None:
        linker = fig1_linker()
        vertex = CorpusObject(42, "vertex", defines=["vertices"], text="x")
        assert linker.add_object(vertex) == {5}
