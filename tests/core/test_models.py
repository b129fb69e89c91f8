"""Tests for the core data model."""

import pytest

from repro.core.models import (
    ConceptLabel,
    CorpusObject,
    Link,
    LinkedDocument,
    Match,
    spans_overlap,
)


class TestConceptLabel:
    def test_properties(self) -> None:
        label = ConceptLabel(words=("planar", "graph"), raw="Planar Graphs", object_id=2)
        assert label.first_word == "planar"
        assert label.length == 2
        assert label.text == "planar graph"

    def test_empty_words_rejected(self) -> None:
        with pytest.raises(ValueError):
            ConceptLabel(words=(), raw="", object_id=1)
        with pytest.raises(ValueError):
            ConceptLabel((), "", 1)


class TestResultRecords:
    """The per-link records are slotted: no instance dict, value equality."""

    def test_positional_equals_keyword_construction(self) -> None:
        label = ConceptLabel(("planar", "graph"), "planar graphs", 2)
        assert label == ConceptLabel(words=("planar", "graph"), raw="planar graphs", object_id=2)
        match = Match(label, 3, 5, "planar graphs", (2, 7))
        assert match == Match(
            label=label, start=3, end=5, surface="planar graphs", candidates=(2, 7)
        )
        link = Link("planar graphs", 2, "pm", 10, 23, "u")
        assert link == Link(
            source_phrase="planar graphs",
            target_id=2,
            target_domain="pm",
            char_start=10,
            char_end=23,
            url="u",
        )
        assert link != Link("planar graphs", 2, "pm", 10, 23)
        assert Link("x", 1, "d", 0, 1).url == ""

    def test_records_have_no_instance_dict(self) -> None:
        label = ConceptLabel(("graph",), "graph", 5)
        records = (label, Match(label, 0, 1, "graph", (5,)), Link("graph", 5, "d", 0, 5))
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
            with pytest.raises(AttributeError):
                record.extra = 1  # type: ignore[union-attr]


class TestCorpusObject:
    def test_concept_phrases_union(self) -> None:
        obj = CorpusObject(
            object_id=1,
            title="graph",
            defines=["graph", "simple graph"],
            synonyms=["graphs"],
        )
        assert obj.concept_phrases() == ["graph", "simple graph", "graphs"]

    def test_concept_phrases_deduplicate_case_insensitively(self) -> None:
        obj = CorpusObject(object_id=1, title="Graph", defines=["graph"])
        assert obj.concept_phrases() == ["Graph"]

    def test_blank_phrases_dropped(self) -> None:
        obj = CorpusObject(object_id=1, title="  ", defines=["x", ""])
        assert obj.concept_phrases() == ["x"]


class TestLinkedDocument:
    def test_targets_in_order(self) -> None:
        doc = LinkedDocument(
            source_text="ab cd",
            links=[Link("ab", 1, "d", 0, 2), Link("cd", 2, "d", 3, 5)],
        )
        assert doc.targets() == [1, 2]
        assert doc.link_count == 2

    def test_link_span_property(self) -> None:
        link = Link("x", 1, "d", 3, 8)
        assert link.span == (3, 8)


class TestHelpers:
    def test_spans_overlap(self) -> None:
        assert spans_overlap((0, 5), (4, 9))
        assert not spans_overlap((0, 5), (5, 9))
        assert spans_overlap((2, 3), (0, 10))
