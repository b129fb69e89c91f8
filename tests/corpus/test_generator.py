"""Tests for the synthetic corpus generator and its guarantees."""

import pytest

from repro.core.linker import NNexus
from repro.core.morphology import canonicalize_phrase
from repro.corpus.generator import (
    COMMON_WORD_SECTIONS,
    GeneratorParams,
    corpus_statistics,
    generate_corpus,
    load_or_generate,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GeneratorParams(n_entries=300, seed=99))


class TestShape:
    def test_entry_count(self, corpus) -> None:
        assert len(corpus.objects) == 300

    def test_unique_object_ids(self, corpus) -> None:
        ids = [obj.object_id for obj in corpus.objects]
        assert len(set(ids)) == len(ids)

    def test_every_entry_classified(self, corpus) -> None:
        for obj in corpus.objects:
            assert obj.classes
            for code in obj.classes:
                assert code in corpus.scheme

    def test_common_word_entries_present(self, corpus) -> None:
        assert set(corpus.common_word_objects) == set(COMMON_WORD_SECTIONS)
        for word, object_id in corpus.common_word_objects.items():
            obj = corpus.object_by_id()[object_id]
            assert word in obj.defines

    def test_concept_label_ratio_realistic(self, corpus) -> None:
        stats = corpus_statistics(corpus)
        # PlanetMath: 12,171 concepts over 7,145 entries ~ 1.7 per entry.
        ratio = stats["concept_labels"] / stats["entries"]
        assert 1.2 < ratio < 2.5

    def test_homonyms_exist(self, corpus) -> None:
        stats = corpus_statistics(corpus)
        assert stats["homonym_invocations"] > 0
        assert stats["common_english_uses"] > 0


class TestDeterminism:
    def test_same_seed_same_corpus(self) -> None:
        params = GeneratorParams(n_entries=50, seed=7)
        first = generate_corpus(params)
        second = generate_corpus(params)
        assert [o.text for o in first.objects] == [o.text for o in second.objects]
        assert first.ground_truth == second.ground_truth

    def test_different_seed_different_corpus(self) -> None:
        a = generate_corpus(GeneratorParams(n_entries=50, seed=1))
        b = generate_corpus(GeneratorParams(n_entries=50, seed=2))
        assert [o.text for o in a.objects] != [o.text for o in b.objects]

    def test_memo_tells_params_beyond_size_and_seed_apart(self) -> None:
        default = load_or_generate(GeneratorParams(n_entries=200, seed=1))
        flatter = GeneratorParams(n_entries=200, seed=1, zipf_exponent=0.5)
        memoized = load_or_generate(flatter)
        assert memoized is not default
        assert memoized.ground_truth == generate_corpus(flatter).ground_truth
        assert memoized.ground_truth != default.ground_truth
        assert load_or_generate(flatter) is memoized


class TestGroundTruthAlignment:
    """The generator's core contract with the metrics."""

    def test_planted_phrases_appear_in_text(self, corpus) -> None:
        for obj in corpus.objects:
            for invocation in corpus.ground_truth[obj.object_id]:
                assert invocation.phrase in obj.text

    def test_at_most_one_invocation_per_canonical(self, corpus) -> None:
        for invocations in corpus.ground_truth.values():
            canonicals = [inv.canonical for inv in invocations]
            assert len(set(canonicals)) == len(canonicals)

    def test_targets_exist(self, corpus) -> None:
        ids = set(corpus.object_by_id())
        for invocations in corpus.ground_truth.values():
            for invocation in invocations:
                if invocation.target_id is not None:
                    assert invocation.target_id in ids

    def test_linker_achieves_perfect_recall(self, corpus) -> None:
        """Every defined invocation is found: the paper's recall claim."""
        linker = NNexus(scheme=corpus.scheme)
        linker.add_objects(corpus.objects)
        for obj in corpus.objects[:60]:
            document = linker.link_object(obj.object_id)
            produced = {canonicalize_phrase(l.source_phrase) for l in document.links}
            for invocation in corpus.ground_truth[obj.object_id]:
                if invocation.target_id is not None:
                    assert invocation.canonical in produced, (
                        obj.object_id,
                        invocation,
                    )

    def test_linked_phrases_are_all_planted(self, corpus) -> None:
        """No spurious links: the text plants every linkable phrase."""
        linker = NNexus(scheme=corpus.scheme)
        linker.add_objects(corpus.objects)
        for obj in corpus.objects[:60]:
            expected = {
                inv.canonical for inv in corpus.ground_truth[obj.object_id]
            }
            document = linker.link_object(obj.object_id)
            for link in document.links:
                assert canonicalize_phrase(link.source_phrase) in expected

    def test_common_math_uses_come_from_compatible_area(self, corpus) -> None:
        """Policy application must never cause underlinking (Section 2.4)."""
        by_id = corpus.object_by_id()
        for object_id, invocations in corpus.ground_truth.items():
            source_area = by_id[object_id].classes[0][:2]
            for invocation in invocations:
                if invocation.kind == "common-math":
                    word = invocation.phrase
                    assert COMMON_WORD_SECTIONS[word][:2] == source_area


class TestSubset:
    def test_subset_size(self, corpus) -> None:
        subset = corpus.subset(100, seed=1)
        assert len(subset.objects) == 100
        assert set(subset.ground_truth) == {o.object_id for o in subset.objects}

    def test_subset_of_everything_is_corpus(self, corpus) -> None:
        assert corpus.subset(10_000) is corpus

    def test_recommended_policies_coverage(self, corpus) -> None:
        full = corpus.recommended_policies(coverage=1.0)
        half = corpus.recommended_policies(coverage=0.5)
        none = corpus.recommended_policies(coverage=0.0)
        assert len(full) == len(COMMON_WORD_SECTIONS)
        assert len(half) == round(0.5 * len(COMMON_WORD_SECTIONS))
        assert none == {}
        assert set(half) <= set(full)
