"""Micro-benchmarks for the individual substrates.

Not a paper table — these pin the per-operation costs that Table 3's
macro behaviour is built from, so a regression in any component is
visible in isolation.
"""

from repro.core.concept_map import ConceptMap
from repro.core.classification import ClassificationGraph
from repro.core.invalidation import InvalidationIndex
from repro.core.morphology import canonicalize_phrase
from repro.core.tokenizer import Tokenizer


def test_bench_tokenize_entry(small_corpus, benchmark):
    tokenizer = Tokenizer()
    text = small_corpus.objects[0].text
    result = benchmark(lambda: tokenizer.tokenize(text))
    assert len(result) > 0


def test_bench_morphology(benchmark):
    phrases = ["Planar Graphs", "Möbius's strips", "connected components",
               "EIGENVALUES", "abelian groups"]

    def canonicalize_all():
        return [canonicalize_phrase(p) for p in phrases]

    assert benchmark(canonicalize_all)


def test_bench_concept_map_lookup(small_corpus, benchmark):
    concept_map = ConceptMap()
    for obj in small_corpus.objects:
        for phrase in obj.concept_phrases():
            concept_map.add_phrase(phrase, obj.object_id)
    words = ["the", "perfect", "lattice", "holds", "graph", "even"]

    def probe():
        found = 0
        for index in range(len(words)):
            if concept_map.longest_match(words, index):
                found += 1
        return found

    benchmark(probe)


def test_bench_concept_map_build(small_corpus, benchmark):
    pairs = [
        (phrase, obj.object_id)
        for obj in small_corpus.objects
        for phrase in obj.concept_phrases()
    ]

    def build():
        concept_map = ConceptMap()
        concept_map.bulk_load(pairs)
        return len(concept_map)

    assert benchmark(build) > 0


def test_bench_steering_distance(small_corpus, benchmark):
    graph = ClassificationGraph.from_scheme(small_corpus.scheme)
    codes = small_corpus.scheme.leaves()[:20]

    def distances():
        total = 0.0
        for a in codes:
            for b in codes:
                d = graph.distance(a, b)
                if d != float("inf"):
                    total += d
        return total

    assert benchmark(distances) > 0


def test_bench_johnson_all_pairs_small(benchmark):
    from repro.ontology.msc import build_small_msc

    def run():
        graph = ClassificationGraph.from_scheme(build_small_msc())
        return len(graph.johnson_all_pairs())

    assert benchmark(run) > 100


def test_bench_invalidation_index_build(small_corpus, benchmark):
    # The linker hands the index each entry's scanned words; scanning is
    # the tokenizer's cost (test_bench_tokenize_entry), not the index's.
    tokenizer = Tokenizer()
    scans = [
        (obj.object_id, tokenizer.tokenize(obj.text).canonical_words())
        for obj in small_corpus.objects[:100]
    ]

    def build():
        index = InvalidationIndex()
        for object_id, words in scans:
            index.index_object(object_id, words)
        return index.object_count

    assert benchmark(build) == 100
