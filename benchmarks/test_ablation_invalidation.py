"""Ablation — the invalidation index vs. its alternatives (Section 2.5).

Fig. 6's argument: on a concept-label update, a word-based inverted
index would invalidate every entry sharing the first word (123, 456 and
789 in the example); the adaptive phrase index invalidates only the true
candidates (789), at ~2x the key count of a word index; a system with no
index at all must re-examine all n entries (the O(n^2) maintenance trap
of Section 1.2).  The live linker goes one step further and answers
exactly; the paper's structure is reproduced by an offline model.

Expected shape: exact <= phrase-superset << word-superset << corpus
size, with the paper's index within a small factor of a word-only index.
"""

from conftest import emit

from repro.eval.experiments import (
    AdaptivePhraseIndexModel,
    build_linker,
    multiword_probes,
    run_ablation_invalidation,
)


def test_invalidation_superset_sizes(bench_corpus, benchmark):
    result = benchmark.pedantic(
        run_ablation_invalidation,
        args=(bench_corpus,),
        kwargs={"probes": 60},
        rounds=1,
        iterations=1,
    )
    emit("Ablation: invalidation index (paper: ~2x word index, no misses)",
         result.format())

    assert result.mean_exact <= result.mean_phrase_superset
    assert result.mean_exact_all_labels <= result.mean_phrase_all_labels
    assert result.mean_phrase_superset <= result.mean_word_superset
    assert result.mean_word_superset < result.corpus_size
    # The economy that motivates the structure: phrase lookups touch a
    # tiny fraction of what a full rescan would.
    assert result.mean_phrase_superset < 0.25 * result.corpus_size
    # Size claim: the phrase index is a constant factor over a word-only
    # index.  The paper observes ~2x on English text, whose phrase
    # occurrence counts fall off as a Zipf law; our synthetic filler has
    # far lower entropy (a 66-word vocabulary), so many more n-grams
    # clear the frequency threshold and the factor is larger.  The
    # functional claims above (superset sizes) are entropy-independent.
    assert result.index_size_ratio >= 1.0


def test_adaptive_threshold_sweep(bench_corpus, benchmark):
    """Sweep the adaptive frequency threshold (the 'adaptive' in §2.5).

    Higher thresholds promote fewer phrases: the paper's index shrinks,
    and invalidation supersets grow toward word-index size.  The sweep
    runs on the offline model and asserts the trade-off's monotone
    direction.
    """
    from repro.eval.report import format_table

    texts = [(obj.object_id, obj.text) for obj in bench_corpus.objects[:1500]]
    probes = multiword_probes(bench_corpus, 60)

    def sweep():
        rows = []
        for threshold in (1, 2, 5, 20, 10_000):
            model = AdaptivePhraseIndexModel(texts, threshold=threshold)
            mean_superset = sum(
                len(model.superset(probe)) for probe in probes
            ) / len(probes)
            rows.append((threshold, model.stats().total_keys, mean_superset))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "Ablation: adaptive phrase-frequency threshold",
        format_table(
            "Threshold sweep",
            ("threshold", "exposed index keys", "mean invalidated"),
            [(t, k, f"{m:.1f}") for t, k, m in rows],
        ),
    )
    keys = [k for __, k, ___ in rows]
    supersets = [m for __, ___, m in rows]
    assert keys == sorted(keys, reverse=True)  # fewer keys as threshold rises
    assert supersets[0] <= supersets[-1]  # supersets grow toward word-index
    # At an absurd threshold the index degenerates to word-only behaviour.
    assert supersets[-1] > 5 * supersets[0]


def test_invalidation_lookup_throughput(bench_corpus, benchmark):
    """Micro: the per-update exact invalidation probe is sub-millisecond-scale."""
    linker = build_linker(bench_corpus)
    index = linker.invalidation_index
    phrases = [
        inv.canonical
        for invocations in bench_corpus.ground_truth.values()
        for inv in invocations
    ][:200]

    def probe_all() -> int:
        touched = 0
        for phrase in phrases:
            touched += len(index.invalidate(phrase))
        return touched

    touched = benchmark(probe_all)
    assert touched > 0
