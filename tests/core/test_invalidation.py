"""Tests for the invalidation index (Section 2.5, Fig. 6).

The live index answers exactly: the entries whose canonical word array
contains a label.  The paper's adaptive phrase index, which answers
with a superset, is checked through its offline model
(:class:`repro.eval.experiments.AdaptivePhraseIndexModel`).
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import invalidation
from repro.core.invalidation import InvalidationIndex
from repro.core.tokenizer import Tokenizer
from repro.corpus.generator import GeneratorParams, generate_corpus
from repro.eval.experiments import (
    MAX_GRAM_LENGTH,
    AdaptivePhraseIndexModel,
    corpus_labels,
)

FIG6_TEXTS = {
    # Objects 123 and 456 mention 'conjugacy' in other contexts; object
    # 789 contains the full phrase.  The phrase bigram/trigram appears
    # twice (789 uses it twice) so it clears the model's threshold.
    123: "the conjugacy relation holds here",
    456: "a conjugacy argument shows the result",
    789: "the conjugacy class formula states much; this conjugacy "
    "class formula is central",
}


def _words(text: str) -> list[str]:
    """The canonical words the linker indexes for ``text``."""
    return Tokenizer().tokenize(text).canonical_words()


def _index(texts: dict[int, str]) -> InvalidationIndex:
    index = InvalidationIndex()
    for object_id, text in texts.items():
        index.index_object(object_id, _words(text))
    return index


def _model(texts: dict[int, str], threshold: int = 2) -> AdaptivePhraseIndexModel:
    return AdaptivePhraseIndexModel(texts.items(), threshold)


class TestFig6Example:
    """The paper's worked example: 'conjugacy class formula'."""

    def test_phrase_lookup_hits_only_true_container(self) -> None:
        assert _index(FIG6_TEXTS).invalidate("conjugacy class formula") == {789}
        model = _model(FIG6_TEXTS, threshold=2)
        assert model.superset("conjugacy class formula") == {789}

    def test_word_lookup_would_overinvalidate(self) -> None:
        assert _index(FIG6_TEXTS).invalidate("conjugacy") == {123, 456, 789}
        model = _model(FIG6_TEXTS)
        assert model.word_superset("conjugacy class formula") == {123, 456, 789}

    def test_unknown_phrase_falls_back_to_prefix(self) -> None:
        # The paper's index never saw the 4-gram and falls back to the
        # indexed 3-gram; the exact index knows no entry contains it.
        model = _model(FIG6_TEXTS, threshold=2)
        assert model.indexed_prefix("conjugacy class formula theorem") == (
            "conjugacy", "class", "formula",
        )
        assert model.superset("conjugacy class formula theorem") == {789}
        assert _index(FIG6_TEXTS).invalidate("conjugacy class formula theorem") == set()


class TestAdaptiveRule:
    """The paper's frequency rule, on the offline model."""

    def test_rare_phrase_not_promoted(self) -> None:
        texts = {1: "rare phrase here", 2: "rare stuff elsewhere"}
        # Bigram count 1 < 3: lookup falls back to the single word.
        assert _model(texts, threshold=3).superset("rare phrase") == {1, 2}
        assert _index(texts).invalidate("rare phrase") == {1}

    def test_frequent_phrase_promoted(self) -> None:
        texts = {1: "magic lattice magic lattice", 2: "magic elsewhere"}
        assert _model(texts, threshold=2).superset("magic lattice") == {1}

    def test_single_words_always_indexed(self) -> None:
        model = _model({1: "unique token"}, threshold=100)
        assert model.superset("unique") == {1}

    def test_max_phrase_length_caps_probe(self) -> None:
        words = ("alpha", "beta", "gamma", "delta", "epsilon")
        assert len(words) == MAX_GRAM_LENGTH + 1
        model = _model({1: " ".join(words)}, threshold=1)
        assert model.indexed_prefix(words) == words[:MAX_GRAM_LENGTH]
        assert model.superset(words) == {1}

    def test_invalid_parameters(self) -> None:
        with pytest.raises(ValueError):
            AdaptivePhraseIndexModel([], threshold=0)


class TestExactSemantics:
    def test_words_must_be_adjacent(self) -> None:
        index = _index({1: "class of formula", 2: "the class formula"})
        assert index.invalidate("class formula") == {2}

    def test_word_boundaries_respected(self) -> None:
        index = _index({1: "ab c", 2: "a bc", 3: "xa b"})
        assert index.invalidate("a b") == set()
        assert index.invalidate("ab c") == {1}

    def test_repeated_word_phrase(self) -> None:
        index = _index({1: "very very large", 2: "very large"})
        assert index.invalidate("very very") == {1}
        assert index.invalidate("very large") == {1, 2}

    def test_escaped_region_joins_neighbours(self) -> None:
        # The matcher scans the canonical array with the math removed,
        # so 'conjugacy class' is a match there and must be invalidated.
        index = _index({1: "conjugacy $x$ class"})
        assert index.invalidate("conjugacy class") == {1}

    def test_unknown_word_is_empty(self) -> None:
        index = _index({1: "alpha beta"})
        assert index.invalidate("alpha zeta") == set()
        assert index.invalidate("") == set()

    def test_word_sequence_probe(self) -> None:
        index = _index({1: "planar graph theory"})
        assert index.invalidate(("planar", "graph")) == {1}


class TestMaintenance:
    def test_reindex_replaces_old_text(self) -> None:
        index = InvalidationIndex()
        index.index_object(1, _words("old words here"))
        index.index_object(1, _words("completely different now"))
        assert index.invalidate("old") == set()
        assert index.invalidate("different") == {1}

    def test_remove_object(self) -> None:
        index = InvalidationIndex()
        index.index_object(1, _words("shared words"))
        index.index_object(2, _words("shared other"))
        index.remove_object(1)
        assert index.invalidate("shared") == {2}
        assert index.object_count == 1

    def test_remove_unknown_is_noop(self) -> None:
        index = InvalidationIndex()
        index.remove_object(99)
        assert index.object_count == 0

    def test_invalidate_many_unions(self) -> None:
        index = InvalidationIndex()
        index.index_object(1, _words("alpha things"))
        index.index_object(2, _words("beta things"))
        assert index.invalidate_many(["alpha", "beta"]) == {1, 2}

    def test_morphology_applied_to_text_and_query(self) -> None:
        index = InvalidationIndex()
        index.index_object(1, _words("planar graphs are nice"))
        assert index.invalidate("Planar Graph") == {1}

    def test_escaped_math_not_indexed(self) -> None:
        index = InvalidationIndex()
        index.index_object(1, _words("see $hidden token$ outside"))
        assert index.invalidate("hidden") == set()
        assert index.invalidate("outside") == {1}

    def test_reindex_touches_only_the_word_difference(self) -> None:
        index = _index({1: "alpha beta gamma", 2: "beta delta"})
        postings = _RecordingPostings(index._postings)
        index._postings = postings
        index.index_object(1, _words("beta gamma epsilon gamma"))
        assert postings.touched == {"alpha", "epsilon"}
        assert index.postings() == {
            "beta": {1, 2}, "gamma": {1}, "delta": {2}, "epsilon": {1},
        }
        assert index.invalidate("alpha") == set()
        assert index.invalidate("epsilon") == {1}
        assert index.invalidate("beta gamma") == {1}

    def test_reindex_of_the_same_sequence_does_nothing(self) -> None:
        index = _index({1: "alpha beta alpha"})
        before = index.estimated_bytes
        postings = _RecordingPostings(index._postings)
        index._postings = postings
        index.index_object(1, _words("alpha beta alpha"))
        assert postings.touched == set()
        assert index.postings() == {"alpha": {1}, "beta": {1}}
        assert index.estimated_bytes == before

    def test_estimate_returns_to_zero(self) -> None:
        index = _index({1: "alpha beta", 2: "beta gamma"})
        assert index.estimated_bytes > 0
        index.index_object(1, _words("delta"))
        index.remove_object(1)
        index.remove_object(2)
        assert index.estimated_bytes == 0
        assert index.slot_count == 0

    def test_sparse_and_dense_bitmaps_decode_alike(self) -> None:
        texts = {
            oid * 10**9: ["every", f"mod{oid % 3}"] + (["rare"] if oid in (7, 150) else [])
            for oid in range(-100, 200)
        }
        index = InvalidationIndex()
        for object_id, tokens in texts.items():
            index.index_object(object_id, tokens)
        for word in ("every", "mod1", "rare"):
            expected = {oid for oid, tokens in texts.items() if word in tokens}
            assert index.invalidate((word,)) == expected
        # "rare" takes the bit-by-bit walk, the others the one-pass decode.
        dense = {
            word: bits.bit_count() * invalidation._DENSE_WIDTH_PER_BIT > bits.bit_length()
            for word, bits in index._postings.items()
        }
        assert dense == {"every": True, "mod0": True, "mod1": True, "mod2": True, "rare": False}

    def test_estimate_follows_a_bitmap_across_digits(self) -> None:
        # An int holds 30 bits per digit: slot 41 makes "alpha" two
        # digits wide, and clearing it again makes it one.
        index = _index({1: "alpha"})
        for filler in range(40):
            index.index_object(100 + filler, ["zeta"])
        index.index_object(2, ["alpha", "beta"])
        wide = index.estimated_bytes
        assert wide == recounted_bytes(index)
        index.index_object(2, ["beta"])
        assert index.estimated_bytes == recounted_bytes(index) < wide
        index.index_object(2, ["alpha", "beta"])
        assert index.estimated_bytes == wide
        index.remove_object(2)
        assert index.estimated_bytes == recounted_bytes(index)

    def test_removed_slot_is_reused(self) -> None:
        index = _index({10**12: "alpha beta", -5: "beta gamma", 7: "gamma"})
        index.remove_object(-5)
        index.index_object(3, _words("beta delta"))
        assert index.slot_count == 3
        assert index.postings() == {
            "alpha": {10**12}, "beta": {10**12, 3}, "gamma": {7}, "delta": {3},
        }
        assert index.estimated_bytes == recounted_bytes(index)


class TestStats:
    """The paper's size claim, on the offline model."""

    def test_size_ratio_bounded(self) -> None:
        texts = {
            0: "planar graph theory is fun",
            1: "planar graph coloring is fun",
            2: "planar graph theory again",
        }
        stats = _model(texts, threshold=2).stats()
        assert stats.word_keys > 0
        assert stats.total_keys >= stats.word_keys
        # The Zipf fall-off claim: phrase keys stay within a small factor.
        assert stats.size_ratio_vs_word_index < 4.0

    def test_empty_index_stats(self) -> None:
        stats = AdaptivePhraseIndexModel([]).stats()
        assert stats.total_keys == 0
        assert stats.size_ratio_vs_word_index == 0.0


def recounted_bytes(index: InvalidationIndex) -> int:
    """The index's byte estimate recomputed from its live state: the
    incrementally kept ``estimated_bytes`` must always equal it."""
    return (
        sum(invalidation._word_key_cost(word) + invalidation._bitmap_cost(bits)
            for word, bits in index._postings.items())
        + sum(invalidation._sequence_cost(seq) for seq in index._sequences.values())
        + len(index._slot_of) * invalidation._SLOT_OF_BYTES
        + index.slot_count * invalidation._SLOT_BYTES
        + len(index._free) * invalidation._FREE_BYTES
    )


class _RecordingPostings(dict):
    """A postings table that records every word key it is asked for."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.touched: set[str] = set()

    def __getitem__(self, word):
        self.touched.add(word)
        return super().__getitem__(word)

    def get(self, word, default=None):
        self.touched.add(word)
        return super().get(word, default)

    def __setitem__(self, word, value) -> None:
        self.touched.add(word)
        super().__setitem__(word, value)

    def __delitem__(self, word) -> None:
        self.touched.add(word)
        super().__delitem__(word)


VOCABULARY = "alpha beta gamma delta epsilon".split()
words = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=30)
phrases = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4)


def _contains(tokens: list[str], gram: list[str]) -> bool:
    return any(
        tokens[start : start + len(gram)] == gram
        for start in range(len(tokens) - len(gram) + 1)
    )


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(0, 8), words, min_size=1, max_size=8))
def test_prefix_closure_never_misses(texts: dict[int, list[str]]) -> None:
    """No entry containing a phrase is ever missed.

    For any n-gram actually present in some object's text, the live
    index and the paper's prefix superset must both return the object.
    """
    joined = {object_id: " ".join(tokens) for object_id, tokens in texts.items()}
    index = _index(joined)
    model = _model(joined, threshold=2)
    for object_id, tokens in texts.items():
        for start in range(len(tokens)):
            for length in (1, 2, 3, 4):
                if start + length > len(tokens):
                    continue
                gram = " ".join(tokens[start : start + length])
                assert object_id in index.invalidate(gram)
                assert object_id in model.superset(gram)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(st.integers(0, 8), words, min_size=1, max_size=8),
    st.lists(phrases, min_size=1, max_size=10),
)
def test_invalidate_is_exact(
    texts: dict[int, list[str]], probes: list[list[str]]
) -> None:
    """Live result == brute-force containment, and within the paper's superset."""
    joined = {object_id: " ".join(tokens) for object_id, tokens in texts.items()}
    index = _index(joined)
    model = _model(joined)
    for probe in probes:
        expected = {oid for oid, tokens in texts.items() if _contains(tokens, probe)}
        result = index.invalidate(" ".join(probe))
        assert result == expected
        assert result <= model.superset(probe)


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.integers(0, 5), words, min_size=2, max_size=6))
def test_remove_then_lookup_excludes_object(texts: dict[int, list[str]]) -> None:
    index = InvalidationIndex()
    for object_id, tokens in texts.items():
        index.index_object(object_id, _words(" ".join(tokens)))
    victim = next(iter(texts))
    index.remove_object(victim)
    for tokens in texts.values():
        for token in tokens:
            assert victim not in index.invalidate(token)


def test_generated_corpus_labels_between_scan_and_paper_superset() -> None:
    """Every label of a 1,500-entry corpus: scan ⊆ live ⊆ paper superset."""
    corpus = generate_corpus(GeneratorParams(n_entries=1500, seed=20090612))
    texts = [(obj.object_id, obj.text) for obj in corpus.objects]
    model = AdaptivePhraseIndexModel(texts)
    live = InvalidationIndex()
    labels = corpus_labels(corpus)
    # Brute force: slide every label length over every entry's words.
    lengths = {len(label) for label in labels}
    scanned: dict[tuple[str, ...], set[int]] = {label: set() for label in labels}
    for object_id, text in texts:
        words = _words(text)
        live.index_object(object_id, words)
        for length in lengths:
            for start in range(len(words) - length + 1):
                window = tuple(words[start : start + length])
                if window in scanned:
                    scanned[window].add(object_id)
    assert any(len(label) >= 2 and owners for label, owners in scanned.items())
    for label, expected in scanned.items():
        result = live.invalidate(label)
        assert expected <= result, label
        assert result <= model.superset(label), label


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.integers(0, 5), words, min_size=1, max_size=6), words)
def test_reindex_equals_a_fresh_index(texts: dict[int, list[str]], new: list[str]) -> None:
    """Re-indexing by the word difference leaves the index, and its byte
    estimate, as indexing the new words from scratch would."""
    target = min(texts)
    index = _index({oid: " ".join(tokens) for oid, tokens in texts.items()})
    index.index_object(target, _words(" ".join(new)))
    fresh = _index({**{oid: " ".join(t) for oid, t in texts.items()}, target: " ".join(new)})
    assert index.postings() == fresh.postings()
    assert index._sequences == fresh._sequences
    assert index.estimated_bytes == fresh.estimated_bytes


#: The large-budget CI step sets ``NNEXUS_MODEL_PROFILE=ci``.
CHURN_EXAMPLES = 2_000 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 60
#: Ids whose values must not matter to the slot layout.
CHURN_IDS = (0, 1, 2, 3, -5, 10**12, 2**40 + 1)
churn_ops = st.lists(
    st.one_of(
        st.tuples(st.just("index"), st.sampled_from(CHURN_IDS), words),
        st.tuples(st.just("remove"), st.sampled_from(CHURN_IDS), st.just([])),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=CHURN_EXAMPLES, deadline=None)
@given(
    churn_ops,
    st.lists(phrases, min_size=1, max_size=6),
    st.integers(0, 80),
    st.integers(0, 8),
)
def test_churn_matches_a_brute_force_search(
    ops: list[tuple[str, int, list[str]]],
    probes: list[list[str]],
    fillers: int,
    filler_at: int,
) -> None:
    """Adds, updates and removes (removed ids re-added, huge and negative
    ids among them): every lookup equals a contiguous search over the live
    entries' words, the slot table never outgrows the peak number of live
    entries, and the byte estimate never drifts from the live state.

    Before op ``filler_at``, ``fillers`` entries of another word take the
    next slots, so the churned words' bitmaps get wide and sparse as well
    as narrow and dense, and lose whole digits when their top bit goes."""
    index = InvalidationIndex()
    live: dict[int, list[str]] = {}
    peak = 0
    for step, (op, object_id, tokens) in enumerate(ops):
        if step == filler_at:
            for filler in range(fillers):
                index.index_object(100 + filler, ["zeta"])
                live[100 + filler] = ["zeta"]
            peak = max(peak, len(live))
        if op == "index":
            index.index_object(object_id, tokens)
            live[object_id] = tokens
        else:
            index.remove_object(object_id)
            live.pop(object_id, None)
        peak = max(peak, len(live))
        assert index.slot_count <= peak
        assert index.object_count == len(live)
        assert index.estimated_bytes == recounted_bytes(index)
        for probe in probes:
            expected = {oid for oid, t in live.items() if _contains(t, probe)}
            assert index.invalidate(tuple(probe)) == expected
        if not live:
            peak = 0
    assert index.postings() == {
        word: {oid for oid, t in live.items() if word in t}
        for word in {word for t in live.values() for word in t}
    }
