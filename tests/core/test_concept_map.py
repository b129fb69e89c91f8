"""Tests for the chained-hash concept map (Fig. 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.concept_map import ConceptChain, ConceptMap


def build_map(entries: list[tuple[str, int]]) -> ConceptMap:
    concept_map = ConceptMap()
    concept_map.bulk_load(entries)
    return concept_map


class TestAddAndLookup:
    def test_owner_lookup(self) -> None:
        cmap = build_map([("planar graph", 2), ("graph", 5), ("graph", 6)])
        assert cmap.owners("graph") == frozenset({5, 6})
        assert cmap.owners("planar graph") == frozenset({2})

    def test_canonicalization_applied(self) -> None:
        cmap = build_map([("Planar Graphs", 2)])
        assert cmap.owners("planar graph") == frozenset({2})
        assert "planar graphs" in cmap

    def test_empty_phrase_rejected(self) -> None:
        cmap = ConceptMap()
        assert cmap.add_phrase("  ", 1) is None
        assert len(cmap) == 0

    def test_len_counts_distinct_labels(self) -> None:
        cmap = build_map([("graph", 5), ("graph", 6), ("tree", 7)])
        assert len(cmap) == 2
        assert cmap.first_word_count == 2

    def test_labels_for_object(self) -> None:
        cmap = build_map([("graph", 5), ("simple graph", 5)])
        assert cmap.labels_for_object(5) == frozenset({("graph",), ("simple", "graph")})

    def test_concept_labels_iteration(self) -> None:
        cmap = build_map([("graph", 5), ("graph", 6)])
        pairs = {(label.text, label.object_id) for label in cmap.concept_labels()}
        assert pairs == {("graph", 5), ("graph", 6)}


class TestLongestMatch:
    def test_prefers_longest(self) -> None:
        cmap = build_map(
            [("orthogonal", 1), ("function", 2), ("orthogonal function", 3)]
        )
        words = ["an", "orthogonal", "function", "here"]
        match = cmap.longest_match(words, 1)
        assert match is not None
        label, owners = match
        assert label == ("orthogonal", "function")
        assert owners == frozenset({3})

    def test_falls_back_to_shorter(self) -> None:
        cmap = build_map([("orthogonal", 1), ("orthogonal function", 3)])
        words = ["orthogonal", "basis"]
        match = cmap.longest_match(words, 0)
        assert match is not None
        assert match[0] == ("orthogonal",)

    def test_no_match(self) -> None:
        cmap = build_map([("graph", 5)])
        assert cmap.longest_match(["tree"], 0) is None

    def test_match_at_end_of_text(self) -> None:
        cmap = build_map([("planar graph", 2)])
        assert cmap.longest_match(["planar"], 0) is None
        match = cmap.longest_match(["planar", "graph"], 0)
        assert match is not None


class TestRemoval:
    def test_remove_reports_vanished_labels(self) -> None:
        cmap = build_map([("graph", 5), ("graph", 6), ("tree", 5)])
        vanished = cmap.remove_object(5)
        assert vanished == {("tree",)}
        assert cmap.owners("graph") == frozenset({6})
        assert cmap.owners("tree") == frozenset()

    def test_remove_unknown_object_is_noop(self) -> None:
        cmap = build_map([("graph", 5)])
        assert cmap.remove_object(99) == set()
        assert cmap.owners("graph") == frozenset({5})

    def test_bucket_cleaned_up(self) -> None:
        cmap = build_map([("graph", 5)])
        cmap.remove_object(5)
        assert cmap.first_word_count == 0
        assert len(cmap) == 0


class TestChainLengthIndex:
    def test_by_length_is_distinct_and_descending(self) -> None:
        cmap = build_map(
            [("graph", 5), ("graph theory", 5), ("graph minor theorem", 7),
             ("graph coloring", 8)]
        )
        chain = cmap.chain_for("graph")
        assert chain.by_length == [3, 2, 1]  # distinct lengths, longest first
        assert chain.lengths_descending() == chain.by_length
        assert chain.longest() == 3

    def test_by_length_shrinks_on_removal(self) -> None:
        cmap = build_map(
            [("graph", 5), ("graph theory", 5), ("graph minor theorem", 7)]
        )
        cmap.remove_object(7)
        chain = cmap.chain_for("graph")
        assert chain.by_length == [2, 1]
        assert chain.longest() == 2

    def test_shared_length_survives_one_owner_leaving(self) -> None:
        # Two distinct 2-word labels: dropping one keeps length 2 listed.
        cmap = build_map([("graph theory", 5), ("graph minor", 7), ("graph", 5)])
        cmap.remove_object(7)
        assert cmap.chain_for("graph").by_length == [2, 1]

    def test_empty_chain_reports_zero(self) -> None:
        assert ConceptChain().longest() == 0
        assert ConceptChain().by_length == []

    def test_removing_unknown_length_raises(self) -> None:
        # Underflow used to be silently ignored, letting the length
        # index drift out of sync with ``labels``; it is now an error.
        chain = ConceptChain()
        with pytest.raises(ValueError, match="no label of length 3"):
            chain._note_label_removed(3)
        chain._note_label_added(2)
        chain._note_label_removed(2)
        with pytest.raises(ValueError, match="no label of length 2"):
            chain._note_label_removed(2)
        assert chain.by_length == []
        assert chain._length_counts == {}


class TestProbeLongest:
    def test_accept_none_falls_through_to_shorter(self) -> None:
        cmap = build_map([("graph theory", 5), ("graph", 6)])
        words = ("graph", "theory")
        hits: list[tuple[str, ...]] = []

        def accept(label_words, owners):
            hits.append(label_words)
            return None  # reject everything; probe must keep descending

        assert cmap.probe_longest(words, 0, accept) is None
        assert hits == [("graph", "theory"), ("graph",)]

    def test_first_non_none_result_wins(self) -> None:
        cmap = build_map([("graph theory", 5), ("graph", 6)])
        result = cmap.probe_longest(
            ("graph", "theory"), 0, lambda label_words, owners: len(label_words)
        )
        assert result == 2

    def test_labels_longer_than_remaining_text_skipped(self) -> None:
        cmap = build_map([("graph minor theorem", 5), ("graph", 6)])
        result = cmap.longest_match(("a", "graph", "minor"), 1)
        assert result == (("graph",), frozenset({6}))

    def test_unindexed_first_word_is_none(self) -> None:
        cmap = build_map([("graph", 5)])
        assert cmap.probe_longest(("tree",), 0, lambda *a: a) is None

    def test_head_positions_are_where_probes_can_hit(self) -> None:
        cmap = build_map([("planar graph", 5), ("graph", 6)])
        words = ("a", "planar", "tree", "graph", "graph")
        # "tree" heads no chain; a non-head position never probes a hit.
        assert cmap.head_positions(words) == [1, 3, 4]
        assert [
            position
            for position in range(len(words))
            if cmap.probe_longest(words, position, lambda *hit: hit) is not None
        ] == [3, 4]


class TestStats:
    def test_stats_shape(self) -> None:
        cmap = build_map([("graph", 5), ("graph theory", 5), ("tree", 7)])
        stats = cmap.stats()
        assert stats["labels"] == 3
        assert stats["buckets"] == 2
        assert stats["objects"] == 2
        assert stats["max_chain"] == 2


phrases = st.lists(
    st.tuples(
        st.text(alphabet="abcdefg ", min_size=1, max_size=12).filter(str.strip),
        st.integers(min_value=1, max_value=50),
    ),
    max_size=30,
)


@given(phrases)
def test_every_added_phrase_is_findable(entries: list[tuple[str, int]]) -> None:
    cmap = ConceptMap()
    indexed = []
    for phrase, object_id in entries:
        words = cmap.add_phrase(phrase, object_id)
        if words is not None:
            indexed.append((phrase, object_id))
    for phrase, object_id in indexed:
        assert object_id in cmap.owners(phrase)


@given(phrases)
def test_remove_object_removes_all_its_labels(entries: list[tuple[str, int]]) -> None:
    cmap = ConceptMap()
    for phrase, object_id in entries:
        cmap.add_phrase(phrase, object_id)
    object_ids = {object_id for __, object_id in entries}
    for object_id in object_ids:
        cmap.remove_object(object_id)
    assert len(cmap) == 0
    assert cmap.object_count == 0


churn_ops = st.lists(
    st.tuples(
        st.booleans(),  # True = add the entry, False = remove its object
        st.text(alphabet="abcdefg ", min_size=1, max_size=12).filter(str.strip),
        st.integers(min_value=1, max_value=8),
    ),
    max_size=40,
)


@given(churn_ops)
def test_churn_keeps_length_index_consistent(ops) -> None:
    """Random add/remove interleaving: the incrementally maintained
    ``by_length`` of every chain must equal a from-scratch rebuild of
    the surviving labels (the invariant the underflow fix protects).
    """
    cmap = ConceptMap()
    for is_add, phrase, object_id in ops:
        if is_add:
            cmap.add_phrase(phrase, object_id)
        else:
            cmap.remove_object(object_id)
    rebuilt = ConceptMap()
    for label in cmap.concept_labels():
        rebuilt.add_canonical(label.words, label.object_id)
    assert {
        first_word: chain.by_length for first_word, chain in cmap._chains.items()
    } == {
        first_word: chain.by_length for first_word, chain in rebuilt._chains.items()
    }
    for chain in cmap._chains.values():
        lengths = sorted({len(words) for words in chain.labels}, reverse=True)
        assert chain.by_length == lengths
        assert chain._length_counts == {
            length: sum(1 for words in chain.labels if len(words) == length)
            for length in lengths
        }
