"""Tests for the core data model."""

import pytest

from repro.core.models import (
    ConceptLabel,
    CorpusObject,
    Link,
    LinkedDocument,
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
