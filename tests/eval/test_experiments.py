"""Tests for the experiment drivers on a small synthetic corpus.

These assert the *shape* invariants the paper reports, at a corpus size
small enough for unit testing (the full-size runs live in benchmarks/).
"""

import pytest

from repro.corpus.generator import GeneratorParams, generate_corpus
from repro.eval import experiments


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(GeneratorParams(n_entries=400, seed=12))


class TestTable1(object):
    def test_policies_reduce_overlinking(self, corpus) -> None:
        result = experiments.run_table1(corpus, sample_size=20, fix_count=5)
        assert result.before.entries == 20
        assert result.after.entries == 20
        assert result.after.overlink_rate <= result.before.overlink_rate
        assert result.after.mislink_rate <= result.before.mislink_rate
        assert "Table 1" in result.format()

    def test_policies_added_to_offenders_only(self, corpus) -> None:
        result = experiments.run_table1(corpus, sample_size=20, fix_count=5)
        recommended = set(corpus.recommended_policies())
        assert set(result.policies_added_to) <= recommended


class TestTable2:
    def test_precision_ordering(self, corpus) -> None:
        result = experiments.run_table2(corpus)
        lexical, steered, full = result.rows
        assert lexical.full.precision <= steered.full.precision
        assert steered.full.precision < full.full.precision

    def test_recall_perfect_throughout(self, corpus) -> None:
        result = experiments.run_table2(corpus)
        for row in result.rows:
            assert row.full.recall == 1.0

    def test_policy_row_drops_links_not_recall(self, corpus) -> None:
        result = experiments.run_table2(corpus)
        lexical, __, full = result.rows
        assert full.full.links_created < lexical.full.links_created

    def test_format_contains_rows(self, corpus) -> None:
        formatted = experiments.run_table2(corpus).format()
        assert "lexical matching only" in formatted
        assert "+ steering + linking policies" in formatted


class TestTable3:
    def test_sweep_rows(self, corpus) -> None:
        result = experiments.run_table3(corpus, sizes=(50, 150, 400))
        assert [row.corpus_size for row in result.rows] == [50, 150, 400]
        for row in result.rows:
            assert row.total_seconds > 0
            assert row.links > 0
            assert row.seconds_per_link > 0

    def test_sizes_capped_at_corpus(self, corpus) -> None:
        result = experiments.run_table3(corpus, sizes=(100, 10_000))
        assert result.rows[-1].corpus_size == 400

    def test_fig8_series_matches_rows(self, corpus) -> None:
        result = experiments.run_table3(corpus, sizes=(50, 150))
        series = result.fig8_series()
        assert series == [
            (row.corpus_size, row.seconds_per_link) for row in result.rows
        ]
        assert "Fig. 8" in result.format_fig8()


class TestMislinkStudy:
    def test_overlinks_majority_of_mislinks(self, corpus) -> None:
        result = experiments.run_mislink_study(corpus)
        report = result.report
        assert report.mislinks >= report.overlinks > 0
        # The paper's headline structure: most mislinks are overlinks.
        assert report.overlink_share_of_mislinks > 0.5
        assert "Mislink/overlink study" in result.format()


class TestBaselineComparison:
    def test_nnexus_beats_floor_baselines(self, corpus) -> None:
        result = experiments.run_baseline_comparison(corpus, sample_size=80)
        by_name = {row.name: row for row in result.rows}
        nnexus = by_name["NNexus (steering+policies)"]
        random_row = by_name["random candidate"]
        assert nnexus.precision > random_row.precision
        lexical = by_name["lexical only"]
        assert nnexus.precision > lexical.precision

    def test_semiauto_recall_below_automatic(self, corpus) -> None:
        result = experiments.run_baseline_comparison(
            corpus, sample_size=80, author_effort=0.8
        )
        by_name = {row.name.split(" (")[0]: row for row in result.rows}
        assert by_name["semiautomatic"].recall < by_name["NNexus"].recall

    def test_format(self, corpus) -> None:
        assert "Baseline comparison" in experiments.run_baseline_comparison(
            corpus, sample_size=20
        ).format()


class TestAblations:
    def test_weighting_rows(self, corpus) -> None:
        result = experiments.run_ablation_weighting(
            corpus, bases=(1.0, 10.0), sample_size=80
        )
        assert len(result.rows) == 2
        for __, report in result.rows:
            assert 0.0 <= report.precision <= 1.0
        assert "non-weighted" in result.format()

    def test_invalidation_superset_smaller_than_rescan(self, corpus) -> None:
        result = experiments.run_ablation_invalidation(corpus, probes=20)
        assert result.mean_exact <= result.mean_phrase_superset
        assert result.mean_exact_all_labels <= result.mean_phrase_all_labels
        assert result.mean_phrase_superset <= result.mean_word_superset
        assert result.mean_word_superset <= result.corpus_size
        # The headline economy: phrase lookups touch far fewer entries
        # than a full rescan.
        assert result.mean_phrase_superset < result.corpus_size / 2
        assert result.index_size_ratio >= 1.0

    def test_concept_map_faster_than_naive(self, corpus) -> None:
        result = experiments.run_ablation_concept_map(corpus, sample_size=15)
        assert result.concept_map_seconds < result.naive_seconds
        assert result.speedup > 1.0
