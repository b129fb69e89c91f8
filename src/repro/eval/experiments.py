"""Experiment drivers: one function per table/figure of the paper.

Each ``run_*`` function takes a :class:`~repro.corpus.generator.SyntheticCorpus`
(so benchmark and CLI runs can share a memoized corpus), performs the
experiment exactly as Section 3 describes it, and returns a result object
that knows how to format itself as a paper-style table.

Index (see DESIGN.md for the full mapping):

* :func:`run_table1` — overlinking before/after linking policies on a
  20-entry sample, fixing the overlink culprits of 5 random entries.
* :func:`run_table2` — full-corpus precision for lexical vs. +steering
  vs. +steering+policies, with the paper's 50-entry sample estimator.
* :func:`run_table3` — link-the-whole-corpus timing for growing random
  subsets; its result also renders the Fig. 8 time-per-link series.
* :func:`run_mislink_study` — the Section 3.2 prose numbers (~12%
  mislinks, ~7.9% overlinks, >60% of mislinks being overlinks).
* :func:`run_baseline_comparison` — NNexus vs. TF-IDF / random /
  semiautomatic baselines (Section 1.2 discussion, quantified).
* :func:`run_ablation_weighting` — weighted vs. non-weighted steering.
* :func:`run_ablation_invalidation` — the live exact invalidation set
  vs. the paper's adaptive phrase index (modelled offline by
  :class:`AdaptivePhraseIndexModel`), a word-only inverted index and a
  full rescan.
* :func:`run_ablation_concept_map` — concept-map scan vs. naive
  per-label scanning.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field
from collections import Counter
from typing import Iterable, Sequence

from repro.baselines.random_pick import RandomPickLinker
from repro.baselines.semiauto import SemiAutoLinker
from repro.baselines.tfidf import TfIdfLinker
from repro.core.invalidation import InvalidationIndex, canonical_words
from repro.core.linker import NNexus
from repro.core.morphology import canonicalize_phrase
from repro.core.tokenizer import Tokenizer
from repro.corpus.generator import SyntheticCorpus
from repro.eval.metrics import QualityReport, score_corpus
from repro.eval.report import format_percent, format_seconds, format_table

__all__ = [
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "MislinkStudyResult",
    "BaselineComparisonResult",
    "WeightingAblationResult",
    "InvalidationAblationResult",
    "IndexStats",
    "AdaptivePhraseIndexModel",
    "multiword_probes",
    "corpus_labels",
    "ConceptMapAblationResult",
    "build_linker",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_mislink_study",
    "run_baseline_comparison",
    "run_ablation_weighting",
    "run_ablation_invalidation",
    "run_ablation_concept_map",
    "AutoPolicyStudyResult",
    "run_auto_policy_study",
    "ConnectivityStudyResult",
    "run_connectivity_study",
    "GrowthStudyResult",
    "run_growth_study",
    "ErrorBreakdownResult",
    "run_error_breakdown",
]


def build_linker(
    corpus: SyntheticCorpus,
    enable_steering: bool = True,
    enable_policies: bool = True,
    with_policies: bool = False,
) -> NNexus:
    """Index a synthetic corpus into a fresh linker.

    ``with_policies`` additionally installs the generator's recommended
    linking policies on the common-word entries.
    """
    linker = NNexus(
        scheme=corpus.scheme,
        enable_steering=enable_steering,
        enable_policies=enable_policies,
    )
    linker.add_objects(corpus.objects)
    if with_policies:
        for object_id, policy in corpus.recommended_policies().items():
            if linker.has_object(object_id):
                linker.set_linking_policy(object_id, policy)
    return linker


# ---------------------------------------------------------------------------
# Table 1 — overlinking before/after linking policies on a 20-entry sample
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    before: QualityReport
    after: QualityReport
    sample_ids: list[int]
    fixed_entry_ids: list[int]
    policies_added_to: list[int]

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            (
                "before policies",
                self.before.links_created,
                format_percent(self.before.mislink_rate),
                format_percent(self.before.overlink_rate),
                format_percent(self.before.overlink_share_of_mislinks),
            ),
            (
                "after policies",
                self.after.links_created,
                format_percent(self.after.mislink_rate),
                format_percent(self.after.overlink_rate),
                format_percent(self.after.overlink_share_of_mislinks),
            ),
        ]
        note = (
            f"(fixed overlinks of {len(self.fixed_entry_ids)} random entries by adding "
            f"policies to {len(self.policies_added_to)} offending target objects)"
        )
        return format_table(
            "Table 1: overlinking on a 20-entry sample, before/after linking policies",
            ("configuration", "links", "mislinks", "overlinks", "overlinks/mislinks"),
            rows,
            note,
        )


def run_table1(
    corpus: SyntheticCorpus,
    sample_size: int = 20,
    fix_count: int = 5,
    seed: int = 2006,
) -> Table1Result:
    """Replicate the paper's small policy study (Section 3.2, Table 1)."""
    rng = random.Random(seed)
    linker = build_linker(corpus, enable_steering=True, enable_policies=True)
    all_ids = [obj.object_id for obj in corpus.objects]
    sample_ids = sorted(rng.sample(all_ids, min(sample_size, len(all_ids))))
    before = score_corpus(linker, corpus.objects, corpus.ground_truth, sample_ids)

    # Fix the overlinks of `fix_count` random entries from the sample by
    # installing policies on the offending *target* objects.
    fixed_entry_ids = sorted(rng.sample(sample_ids, min(fix_count, len(sample_ids))))
    recommended = corpus.recommended_policies()
    offenders: set[int] = set()
    for entry in before.per_entry:
        if entry.object_id not in fixed_entry_ids:
            continue
        for __, target_id in entry.overlink_details:
            offenders.add(target_id)
    for target_id in sorted(offenders):
        policy = recommended.get(target_id)
        if policy is not None:
            linker.set_linking_policy(target_id, policy)
    after = score_corpus(linker, corpus.objects, corpus.ground_truth, sample_ids)
    return Table1Result(
        before=before,
        after=after,
        sample_ids=sample_ids,
        fixed_entry_ids=fixed_entry_ids,
        policies_added_to=sorted(offenders & set(recommended)),
    )


# ---------------------------------------------------------------------------
# Table 2 — precision across the three linker configurations
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    name: str
    full: QualityReport
    sample: QualityReport


@dataclass
class Table2Result:
    rows: list[Table2Row]
    sample_size: int
    policies_supplied: int

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        table_rows = []
        for row in self.rows:
            table_rows.append(
                (
                    row.name,
                    row.full.links_created,
                    format_percent(row.full.precision),
                    format_percent(row.full.recall),
                    format_percent(row.sample.precision),
                )
            )
        note = (
            f"(exact = every entry scored against ground truth; sample = the paper's "
            f"{self.sample_size}-random-entry estimator; "
            f"{self.policies_supplied} linking policies supplied)"
        )
        return format_table(
            "Table 2: automatic linking statistics for the entire corpus",
            ("configuration", "links", "precision", "recall", f"precision@{self.sample_size}"),
            table_rows,
            note,
        )


def run_table2(
    corpus: SyntheticCorpus,
    sample_size: int = 50,
    seed: int = 50,
    policy_coverage: float = 0.6,
) -> Table2Result:
    """The paper's headline quality table.

    One index build; steering and policies are toggled between passes —
    they are pure decision-stage switches, so the shared concept map and
    scanner guarantee the comparison isolates exactly those mechanisms.
    """
    rng = random.Random(seed)
    all_ids = [obj.object_id for obj in corpus.objects]
    sample_ids = sorted(rng.sample(all_ids, min(sample_size, len(all_ids))))
    linker = build_linker(corpus, enable_steering=False, enable_policies=False)

    def measure(name: str) -> Table2Row:
        full = score_corpus(linker, corpus.objects, corpus.ground_truth)
        sample = score_corpus(linker, corpus.objects, corpus.ground_truth, sample_ids)
        return Table2Row(name=name, full=full, sample=sample)

    rows = [measure("lexical matching only")]
    linker.enable_steering = True
    rows.append(measure("+ classification steering"))
    linker.enable_policies = True
    policies = corpus.recommended_policies(coverage=policy_coverage)
    for object_id, policy in policies.items():
        if linker.has_object(object_id):
            linker.set_linking_policy(object_id, policy)
    rows.append(measure("+ steering + linking policies"))
    return Table2Result(rows=rows, sample_size=len(sample_ids), policies_supplied=len(policies))


# ---------------------------------------------------------------------------
# Table 3 / Fig. 8 — scalability sweep
# ---------------------------------------------------------------------------


@dataclass
class Table3Row:
    corpus_size: int
    total_seconds: float
    links: int
    seconds_per_link: float
    seconds_per_entry: float


@dataclass
class Table3Result:
    rows: list[Table3Row]

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        table_rows = [
            (
                row.corpus_size,
                format_seconds(row.total_seconds, 2),
                row.links,
                f"{row.seconds_per_link * 1000:.3f}ms",
                f"{row.seconds_per_entry * 1000:.3f}ms",
            )
            for row in self.rows
        ]
        return format_table(
            "Table 3: linking every object in random subsets of increasing size",
            ("corpus size", "total time", "links", "time/link", "time/entry"),
            table_rows,
        )

    def fig8_series(self) -> list[tuple[int, float]]:
        """(corpus size, seconds per link) — the Fig. 8 curve."""
        return [(row.corpus_size, row.seconds_per_link) for row in self.rows]

    def format_fig8(self) -> str:
        """ASCII rendition of Fig. 8 (time-per-link vs. corpus size)."""
        series = self.fig8_series()
        peak = max(spl for __, spl in series) or 1.0
        lines = ["Fig. 8: time-per-link for progressively larger corpora"]
        for size, spl in series:
            bar = "#" * max(1, int(40 * spl / peak))
            lines.append(f"{size:>7} | {bar} {spl * 1000:.3f}ms")
        lines.append(
            "(a falling-then-flat curve indicates sublinear total link time)"
        )
        return "\n".join(lines)


def run_table3(
    corpus: SyntheticCorpus,
    sizes: Sequence[int] = (200, 500, 1000, 2000, 3000, 5000, 7132),
    seed: int = 3,
) -> Table3Result:
    """Time linking every object for random subsets of increasing size."""
    rows: list[Table3Row] = []
    for size in sizes:
        subset = corpus.subset(min(size, len(corpus.objects)), seed=seed)
        linker = build_linker(corpus=subset, with_policies=True)
        start = time.perf_counter()
        links = 0
        for obj in subset.objects:
            links += linker.link_object(obj.object_id).link_count
        elapsed = time.perf_counter() - start
        rows.append(
            Table3Row(
                corpus_size=len(subset.objects),
                total_seconds=elapsed,
                links=links,
                seconds_per_link=elapsed / links if links else 0.0,
                seconds_per_entry=elapsed / len(subset.objects),
            )
        )
        if len(subset.objects) >= len(corpus.objects):
            break
    return Table3Result(rows=rows)


# ---------------------------------------------------------------------------
# Section 3.2 prose — the corpus-wide mislink/overlink study
# ---------------------------------------------------------------------------


@dataclass
class MislinkStudyResult:
    report: QualityReport

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            ("links created", self.report.links_created),
            ("mislinks", f"{self.report.mislinks} ({format_percent(self.report.mislink_rate)})"),
            ("overlinks", f"{self.report.overlinks} ({format_percent(self.report.overlink_rate)})"),
            (
                "overlink share of mislinks",
                format_percent(self.report.overlink_share_of_mislinks),
            ),
            ("recall", format_percent(self.report.recall)),
        ]
        return format_table(
            "Mislink/overlink study (lexical matching + steering, no policies)",
            ("quantity", "value"),
            rows,
            "(paper: ~12-15% mislinks, 7.9% overlinks, ~61% of mislinks were overlinks)",
        )


def run_mislink_study(corpus: SyntheticCorpus) -> MislinkStudyResult:
    """The §3.2 corpus-wide study: steering on, policies off."""
    linker = build_linker(corpus, enable_steering=True, enable_policies=False)
    report = score_corpus(linker, corpus.objects, corpus.ground_truth)
    return MislinkStudyResult(report=report)


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------


@dataclass
class BaselineRow:
    name: str
    precision: float
    recall: float
    links: int
    note: str = ""


@dataclass
class BaselineComparisonResult:
    rows: list[BaselineRow]

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        table_rows = [
            (
                row.name,
                format_percent(row.precision),
                format_percent(row.recall),
                row.links,
                row.note,
            )
            for row in self.rows
        ]
        return format_table(
            "Baseline comparison (Section 1.2 alternatives, quantified)",
            ("linker", "precision", "recall", "links", "note"),
            table_rows,
        )


def run_baseline_comparison(
    corpus: SyntheticCorpus,
    sample_size: int = 200,
    seed: int = 11,
    author_effort: float = 0.8,
) -> BaselineComparisonResult:
    """Score NNexus and every §1.2 alternative on one shared sample."""
    rng = random.Random(seed)
    all_ids = [obj.object_id for obj in corpus.objects]
    sample_ids = sorted(rng.sample(all_ids, min(sample_size, len(all_ids))))
    rows: list[BaselineRow] = []

    nnexus = build_linker(corpus, with_policies=True)
    report = score_corpus(nnexus, corpus.objects, corpus.ground_truth, sample_ids)
    rows.append(
        BaselineRow("NNexus (steering+policies)", report.precision, report.recall,
                    report.links_created)
    )

    lexical = build_linker(corpus, enable_steering=False, enable_policies=False)
    report = score_corpus(lexical, corpus.objects, corpus.ground_truth, sample_ids)
    rows.append(BaselineRow("lexical only", report.precision, report.recall,
                            report.links_created))

    tfidf = TfIdfLinker(corpus.objects)
    report = score_corpus(tfidf, corpus.objects, corpus.ground_truth, sample_ids)
    rows.append(BaselineRow("TF-IDF target ranking", report.precision, report.recall,
                            report.links_created))

    randomized = RandomPickLinker(corpus.objects, seed=seed)
    report = score_corpus(randomized, corpus.objects, corpus.ground_truth, sample_ids)
    rows.append(BaselineRow("random candidate", report.precision, report.recall,
                            report.links_created))

    semiauto = SemiAutoLinker(corpus.objects, author_effort=author_effort, seed=seed)
    correct = created = defined = disambiguation = 0
    for object_id in sample_ids:
        truth = corpus.ground_truth.get(object_id, [])
        invocations = [inv for inv in truth if inv.target_id is not None]
        defined += len(invocations)
        outcome = semiauto.link_entry([inv.phrase for inv in invocations], exclude=object_id)
        created += outcome.link_count
        disambiguation += len(outcome.disambiguation)
        expected = {inv.canonical: inv.target_id for inv in invocations}
        for canonical, target in outcome.resolved.items():
            if expected.get(canonical) == target:
                correct += 1
    precision = correct / created if created else 1.0
    recall = created / defined if defined else 1.0
    rows.append(
        BaselineRow(
            f"semiautomatic (effort={author_effort:.0%})",
            precision,
            recall,
            created,
            f"{disambiguation} disambiguation links",
        )
    )
    return BaselineComparisonResult(rows=rows)


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


@dataclass
class WeightingAblationResult:
    rows: list[tuple[float, QualityReport]]

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        table_rows = [
            (
                "non-weighted (hop count)" if base == 1 else f"weighted, base {base:g}",
                format_percent(report.precision),
                format_percent(report.mislink_rate),
            )
            for base, report in self.rows
        ]
        return format_table(
            "Ablation: steering weight base (Section 2.3 weight formula)",
            ("distance", "precision", "mislinks"),
            table_rows,
        )


def run_ablation_weighting(
    corpus: SyntheticCorpus,
    bases: Sequence[float] = (1.0, 2.0, 10.0, 100.0),
    sample_size: int = 300,
    seed: int = 23,
) -> WeightingAblationResult:
    """Sweep the steering weight base (1 = plain hop count)."""
    rng = random.Random(seed)
    all_ids = [obj.object_id for obj in corpus.objects]
    sample_ids = sorted(rng.sample(all_ids, min(sample_size, len(all_ids))))
    linker = build_linker(corpus, enable_policies=False)
    rows: list[tuple[float, QualityReport]] = []
    for base in bases:
        linker.set_base_weight(base)
        report = score_corpus(linker, corpus.objects, corpus.ground_truth, sample_ids)
        rows.append((base, report))
    return WeightingAblationResult(rows=rows)


#: Longest n-gram the paper's adaptive index keys.
MAX_GRAM_LENGTH = 4


@dataclass(frozen=True)
class IndexStats:
    """Key counts of the paper's adaptive index, for the Fig. 6 size claim."""

    word_keys: int
    phrase_keys: int

    @property
    def total_keys(self) -> int:
        return self.word_keys + self.phrase_keys

    @property
    def size_ratio_vs_word_index(self) -> float:
        """Total keys relative to a word-only inverted index."""
        if self.word_keys == 0:
            return 0.0
        return self.total_keys / self.word_keys


class AdaptivePhraseIndexModel:
    """Offline model of the paper's adaptive phrase index (§2.5, Fig. 6).

    The paper keys single words and every n-gram (n >= 2, up to
    :data:`MAX_GRAM_LENGTH`) that occurs at least ``threshold`` times
    in the corpus, and answers a label with the postings of its longest
    indexed prefix.  Every n-gram occurrence also counts toward its
    prefixes (the prefix-closure property), so that answer is a superset
    of the entries containing the label.

    The live linker answers exactly instead
    (:class:`~repro.core.invalidation.InvalidationIndex`); this model is
    built from the corpus only when the ablation runs.  It stores the
    n-gram occurrence counts the adaptive rule needs.  An n-gram's
    postings list is by definition the exact set of entries containing
    it, so the model reads it from an exact index rather than storing it.
    """

    def __init__(self, texts: Iterable[tuple[int, str]], threshold: int = 2) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        tokenizer = Tokenizer()
        self.exact_index = InvalidationIndex()
        self._gram_counts: Counter[tuple[str, ...]] = Counter()
        for object_id, text in texts:
            words = tokenizer.tokenize(text).canonical_words()
            self.exact_index.index_object(object_id, words)
            for start in range(len(words)):
                stop = min(start + MAX_GRAM_LENGTH, len(words))
                for end in range(start + 1, stop + 1):
                    self._gram_counts[tuple(words[start:end])] += 1

    def _is_indexed(self, gram: tuple[str, ...]) -> bool:
        """Adaptive rule: words always; phrases once frequent enough."""
        count = self._gram_counts.get(gram, 0)
        return count >= (1 if len(gram) == 1 else self.threshold)

    def indexed_prefix(self, phrase: str | Sequence[str]) -> tuple[str, ...]:
        """Longest prefix of ``phrase`` the paper's index holds a key for."""
        words = canonical_words(phrase)[:MAX_GRAM_LENGTH]
        for length in range(len(words), 0, -1):
            if self._is_indexed(words[:length]):
                return words[:length]
        return ()

    def superset(self, phrase: str | Sequence[str]) -> set[int]:
        """The paper's answer: postings of the longest indexed prefix."""
        prefix = self.indexed_prefix(phrase)
        return self.exact_index.invalidate(prefix) if prefix else set()

    def word_superset(self, phrase: str | Sequence[str]) -> set[int]:
        """A word-only inverted index's answer: the first word's postings."""
        return self.exact_index.invalidate(canonical_words(phrase)[:1])

    def stats(self) -> IndexStats:
        """Key counts of the index the paper would store."""
        word_keys = 0
        phrase_keys = 0
        for gram in self._gram_counts:
            if len(gram) == 1:
                word_keys += 1
            elif self._is_indexed(gram):
                phrase_keys += 1
        return IndexStats(word_keys=word_keys, phrase_keys=phrase_keys)


@dataclass
class InvalidationAblationResult:
    corpus_size: int
    probes: int
    mean_exact: float
    mean_phrase_superset: float
    mean_word_superset: float
    index_size_ratio: float
    #: Every concept label of the corpus, not only planted multi-word
    #: invocations: rare labels are where the paper's superset and the
    #: exact set part.
    labels: int
    mean_exact_all_labels: float
    mean_phrase_all_labels: float

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            ("corpus entries (full rescan cost)", self.corpus_size),
            (f"{self.probes} planted multi-word probes:", ""),
            ("mean invalidated, exact word index (live)", f"{self.mean_exact:.1f}"),
            ("mean invalidated, paper's phrase index", f"{self.mean_phrase_superset:.1f}"),
            ("mean invalidated, word-only index", f"{self.mean_word_superset:.1f}"),
            (f"all {self.labels} concept labels:", ""),
            ("mean invalidated, exact word index (live)", f"{self.mean_exact_all_labels:.1f}"),
            ("mean invalidated, paper's phrase index", f"{self.mean_phrase_all_labels:.1f}"),
            (
                "phrase-index keys / word-index keys",
                f"{self.index_size_ratio:.2f}x",
            ),
        ]
        return format_table(
            "Ablation: invalidation index vs. word index vs. full rescan (Fig. 6)",
            ("quantity", "value"),
            rows,
            "(paper: adaptive phrase index is ~2x a word index and avoids false invalidations)",
        )


def multiword_probes(
    corpus: SyntheticCorpus, probes: int, seed: int = 41
) -> list[tuple[str, ...]]:
    """A seeded sample of the corpus's planted multi-word invocations."""
    multiword = [
        invocation.canonical
        for invocations in corpus.ground_truth.values()
        for invocation in invocations
        if len(invocation.canonical) >= 2
    ]
    random.Random(seed).shuffle(multiword)
    return multiword[:probes]


def corpus_labels(corpus: SyntheticCorpus) -> set[tuple[str, ...]]:
    """Every concept label of the corpus, as canonical words."""
    labels = {
        canonicalize_phrase(phrase)
        for obj in corpus.objects
        for phrase in obj.concept_phrases()
    }
    labels.discard(())
    return labels


def run_ablation_invalidation(
    corpus: SyntheticCorpus, probes: int = 50, seed: int = 41
) -> InvalidationAblationResult:
    """Measure the exact set vs. the paper's superset, a word index and a rescan."""
    model = AdaptivePhraseIndexModel(
        (obj.object_id, obj.text) for obj in corpus.objects
    )
    chosen = multiword_probes(corpus, probes, seed)
    exact_sizes: list[int] = []
    phrase_sizes: list[int] = []
    word_sizes: list[int] = []
    for canonical in chosen:
        exact_sizes.append(len(model.exact_index.invalidate(canonical)))
        phrase_sizes.append(len(model.superset(canonical)))
        word_sizes.append(len(model.word_superset(canonical)))
    labels = corpus_labels(corpus)
    return InvalidationAblationResult(
        corpus_size=len(corpus.objects),
        probes=len(chosen),
        mean_exact=_mean(exact_sizes),
        mean_phrase_superset=_mean(phrase_sizes),
        mean_word_superset=_mean(word_sizes),
        index_size_ratio=model.stats().size_ratio_vs_word_index,
        labels=len(labels),
        mean_exact_all_labels=_mean(
            [len(model.exact_index.invalidate(label)) for label in labels]
        ),
        mean_phrase_all_labels=_mean([len(model.superset(label)) for label in labels]),
    )


def _mean(values: Sequence[int]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class ErrorBreakdownResult:
    """Which invocation kinds produce which errors, per configuration.

    Diagnoses *where* residual imprecision lives: plain concepts should
    be near-perfect, in-area homonyms fixed by steering, cross-area
    homonyms irreducible, common-English words fixed by policies.
    """

    rows: list[tuple[str, dict[str, tuple[int, int]]]] = field(default_factory=list)
    # (config name, kind -> (errors, total))

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        kinds = ("concept", "homonym", "homonym-cross", "common-math",
                 "common-english")
        table_rows = []
        for name, by_kind in self.rows:
            cells = [name]
            for kind in kinds:
                errors, total = by_kind.get(kind, (0, 0))
                cells.append(f"{errors}/{total}" if total else "—")
            table_rows.append(tuple(cells))
        return format_table(
            "Error breakdown by invocation kind (errors/total)",
            ("configuration", *kinds),
            table_rows,
            "(common-english 'errors' are overlinks; others are wrong targets)",
        )


def run_error_breakdown(corpus: SyntheticCorpus) -> ErrorBreakdownResult:
    """Per-kind error rates for the three Table 2 configurations."""
    from repro.core.morphology import canonicalize_phrase

    linker = build_linker(corpus, enable_steering=False, enable_policies=False)

    def measure(name: str) -> tuple[str, dict[str, tuple[int, int]]]:
        errors: dict[str, int] = {}
        totals: dict[str, int] = {}
        for obj in corpus.objects:
            document = linker.link_object(obj.object_id)
            produced = {
                canonicalize_phrase(link.source_phrase): link.target_id
                for link in document.links
            }
            for invocation in corpus.ground_truth.get(obj.object_id, []):
                totals[invocation.kind] = totals.get(invocation.kind, 0) + 1
                target = produced.get(invocation.canonical)
                if invocation.target_id is None:
                    wrong = target is not None  # overlink
                else:
                    wrong = target is not None and target != invocation.target_id
                if wrong:
                    errors[invocation.kind] = errors.get(invocation.kind, 0) + 1
        return name, {
            kind: (errors.get(kind, 0), total) for kind, total in totals.items()
        }

    rows = [measure("lexical only")]
    linker.enable_steering = True
    rows.append(measure("+ steering"))
    linker.enable_policies = True
    for object_id, policy in corpus.recommended_policies().items():
        if linker.has_object(object_id):
            linker.set_linking_policy(object_id, policy)
    rows.append(measure("+ steering + policies"))
    return ErrorBreakdownResult(rows=rows)


@dataclass
class GrowthStudyResult:
    """Maintenance cost of a growing corpus (§1.2's O(n²) argument).

    As entries are added one by one, a system without an invalidation
    index must re-inspect every existing entry per addition (quadratic
    total work); the invalidation index re-links only the entries that
    contain one of the new concept labels.
    """

    checkpoints: list[tuple[int, int, int]] = field(default_factory=list)
    # (corpus size, cumulative relinks with index, cumulative naive relinks)

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            (
                size,
                with_index,
                naive,
                f"{naive / with_index:.1f}x" if with_index else "—",
            )
            for size, with_index, naive in self.checkpoints
        ]
        return format_table(
            "Growth study: cumulative re-link work while the corpus grows (§1.2)",
            ("corpus size", "relinks (invalidation index)", "relinks (naive rescan)",
             "savings"),
            rows,
            "(naive = every existing entry re-inspected on each addition: O(n^2) total)",
        )

    @property
    def final_savings(self) -> float:
        if not self.checkpoints:
            return 1.0
        __, with_index, naive = self.checkpoints[-1]
        return naive / with_index if with_index else float("inf")


def run_growth_study(
    corpus: SyntheticCorpus,
    final_size: int = 1000,
    checkpoints: int = 5,
    seed: int = 13,
) -> GrowthStudyResult:
    """Grow a corpus entry by entry, counting re-link work both ways."""
    subset = corpus.subset(min(final_size, len(corpus.objects)), seed=seed)
    linker = NNexus(scheme=corpus.scheme)
    result = GrowthStudyResult()
    cumulative_invalidated = 0
    cumulative_naive = 0
    total = len(subset.objects)
    step = max(1, total // checkpoints)
    for index, obj in enumerate(subset.objects, start=1):
        existing = index - 1
        invalidated = linker.add_object(obj)
        cumulative_invalidated += len(invalidated)
        cumulative_naive += existing
        if index % step == 0 or index == total:
            result.checkpoints.append(
                (index, cumulative_invalidated, cumulative_naive)
            )
    return result


@dataclass
class ConnectivityStudyResult:
    """Network connectivity achieved by different linking paradigms.

    Section 1.3: the end product should be "a fully connected network of
    articles".  Rows compare the automatic linker against semiautomatic
    linking at several author-effort levels (links the author forgot to
    mark never exist; homonyms land on disambiguation nodes and connect
    nothing).
    """

    rows: list[tuple[str, "object"]] = field(default_factory=list)  # (name, report)

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        from repro.eval.report import format_percent, format_table

        table_rows = []
        for name, report in self.rows:
            table_rows.append(
                (
                    name,
                    report.edges,
                    format_percent(report.largest_component_fraction),
                    report.orphan_count,
                    f"{report.mean_out_degree:.1f}",
                    format_percent(report.mean_reachability),
                )
            )
        return format_table(
            "Connectivity study: the 'fully connected conceptual network' (§1.3)",
            ("linking paradigm", "links", "largest WCC", "orphans",
             "out-degree", "reachability"),
            table_rows,
        )


def run_connectivity_study(
    corpus: SyntheticCorpus,
    efforts: Sequence[float] = (0.4, 0.8),
    seed: int = 5,
) -> ConnectivityStudyResult:
    """Compare the link networks of automatic vs. semiautomatic linking."""
    from repro.analysis.graph import build_link_graph, connectivity_report
    from repro.baselines.semiauto import SemiAutoLinker

    all_ids = [obj.object_id for obj in corpus.objects]
    rows: list[tuple[str, object]] = []

    linker = build_linker(corpus, with_policies=True)
    automatic_targets = {
        obj.object_id: linker.link_object(obj.object_id).targets()
        for obj in corpus.objects
    }
    graph = build_link_graph(automatic_targets, all_nodes=all_ids)
    rows.append(("NNexus (automatic)", connectivity_report(graph)))

    for effort in efforts:
        semiauto = SemiAutoLinker(corpus.objects, author_effort=effort, seed=seed)
        targets: dict[int, list[int]] = {}
        for obj in corpus.objects:
            invocations = [
                inv.phrase
                for inv in corpus.ground_truth.get(obj.object_id, [])
                if inv.target_id is not None
            ]
            outcome = semiauto.link_entry(invocations, exclude=obj.object_id)
            targets[obj.object_id] = list(outcome.resolved.values())
        graph = build_link_graph(targets, all_nodes=all_ids)
        rows.append(
            (f"semiautomatic (effort={effort:.0%})", connectivity_report(graph))
        )
    return ConnectivityStudyResult(rows=rows)


@dataclass
class AutoPolicyStudyResult:
    """Automatic policy suggestion vs. hand-written policies (Section 2.4)."""

    baseline: QualityReport
    user_policies: QualityReport
    auto_policies: QualityReport
    suggested: int
    true_culprits: int
    correctly_flagged: int

    @property
    def detector_precision(self) -> float:
        return self.correctly_flagged / self.suggested if self.suggested else 1.0

    @property
    def detector_recall(self) -> float:
        return self.correctly_flagged / self.true_culprits if self.true_culprits else 1.0

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            ("no policies", format_percent(self.baseline.precision),
             format_percent(self.baseline.recall)),
            ("user policies (all culprits)", format_percent(self.user_policies.precision),
             format_percent(self.user_policies.recall)),
            ("auto-suggested policies", format_percent(self.auto_policies.precision),
             format_percent(self.auto_policies.recall)),
        ]
        note = (
            f"(detector flagged {self.suggested} labels, "
            f"{self.correctly_flagged}/{self.true_culprits} true culprits found, "
            f"precision {format_percent(self.detector_precision)})"
        )
        return format_table(
            "Automatic policy suggestion (Section 2.4 future work)",
            ("configuration", "precision", "recall"),
            rows,
            note,
        )


def run_auto_policy_study(
    corpus: SyntheticCorpus,
    min_usages: int = 8,
    max_home_share: float = 0.5,
) -> AutoPolicyStudyResult:
    """Compare hand-written against automatically suggested policies."""
    from repro.core.suggest import PolicySuggester

    linker = build_linker(corpus, enable_steering=True, enable_policies=True)
    baseline = score_corpus(linker, corpus.objects, corpus.ground_truth)

    for object_id, policy in corpus.recommended_policies(coverage=1.0).items():
        if linker.has_object(object_id):
            linker.set_linking_policy(object_id, policy)
    user_policies = score_corpus(linker, corpus.objects, corpus.ground_truth)

    # Fresh linker: the detector must work without user help.
    auto_linker = build_linker(corpus, enable_steering=True, enable_policies=True)
    suggester = PolicySuggester(min_usages=min_usages, max_home_share=max_home_share)
    suggestions = suggester.suggest(corpus.objects)
    suggester.apply(auto_linker, suggestions)
    auto_policies = score_corpus(auto_linker, corpus.objects, corpus.ground_truth)

    culprits = set(corpus.common_word_objects.values())
    flagged = {suggestion.object_id for suggestion in suggestions}
    return AutoPolicyStudyResult(
        baseline=baseline,
        user_policies=user_policies,
        auto_policies=auto_policies,
        suggested=len(flagged),
        true_culprits=len(culprits),
        correctly_flagged=len(flagged & culprits),
    )


@dataclass
class ConceptMapAblationResult:
    entries_scanned: int
    concept_map_seconds: float
    naive_seconds: float

    @property
    def speedup(self) -> float:
        if self.concept_map_seconds == 0:
            return float("inf")
        return self.naive_seconds / self.concept_map_seconds

    def format(self) -> str:
        """Render the paper-style ASCII table."""
        rows = [
            ("entries scanned", self.entries_scanned),
            ("concept-map scan", format_seconds(self.concept_map_seconds)),
            ("naive per-label scan", format_seconds(self.naive_seconds)),
            ("speedup", f"{self.speedup:.1f}x"),
        ]
        return format_table(
            "Ablation: chained-hash concept map vs. naive per-label scanning (Fig. 3)",
            ("quantity", "value"),
            rows,
        )


def run_ablation_concept_map(
    corpus: SyntheticCorpus, sample_size: int = 50, seed: int = 17
) -> ConceptMapAblationResult:
    """Time the concept-map scan against naive per-label searching."""
    rng = random.Random(seed)
    sample = rng.sample(corpus.objects, min(sample_size, len(corpus.objects)))
    linker = build_linker(corpus)

    start = time.perf_counter()
    for obj in sample:
        linker.link_object(obj.object_id)
    concept_map_seconds = time.perf_counter() - start

    # Naive strategy: search every corpus label in the entry text.
    labels = sorted({label.text for label in linker.concept_map.concept_labels()})
    patterns = [re.compile(r"\b" + re.escape(label) + r"\b") for label in labels]
    start = time.perf_counter()
    for obj in sample:
        text = obj.text.lower()
        for pattern in patterns:
            pattern.search(text)
    naive_seconds = time.perf_counter() - start
    return ConceptMapAblationResult(
        entries_scanned=len(sample),
        concept_map_seconds=concept_map_seconds,
        naive_seconds=naive_seconds,
    )
