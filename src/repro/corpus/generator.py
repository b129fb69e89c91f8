"""Synthetic PlanetMath-like corpus with ground truth by construction.

The paper's evaluation runs on the 2006 PlanetMath collection (7,145
entries defining 12,171 concepts) with linking quality judged by manual
survey.  That corpus is not redistributable and this environment has no
network, so we substitute a generator that reproduces the *statistical
structure* the experiments depend on, while knowing the correct link for
every invocation it plants:

* entries live in an MSC-style hierarchy, concentrated by a Zipf
  distribution over sections;
* each entry defines one or two unique concept labels (plus occasional
  synonyms), built from a mathematical word stock disjoint from the
  filler vocabulary;
* a configurable fraction of labels are *homonyms* — re-defined by a
  second entry in a different top-level area (the "graph" situation of
  Fig. 1);
* a fixed set of *common English words* ("even", "prime", "order", ...)
  are defined as concepts by dedicated entries **and** appear in running
  text in their everyday sense — the paper's overlinking culprits;
* entry text invokes concepts mostly from the entry's own section,
  sometimes from its top-level area, occasionally from anywhere — so
  classification steering has signal, and occasionally gets fooled, just
  like on PlanetMath.

Every planted invocation is recorded as a
:class:`GroundTruthInvocation`, so precision/recall/mislink/overlink
rates are measured exactly instead of by survey.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.models import CorpusObject
from repro.core.morphology import canonicalize_phrase
from repro.ontology.msc import MSC_SECTIONS, build_msc
from repro.ontology.scheme import ClassificationScheme

__all__ = [
    "GeneratorParams",
    "GroundTruthInvocation",
    "SyntheticCorpus",
    "generate_corpus",
    "COMMON_WORD_SECTIONS",
]

# ---------------------------------------------------------------------------
# Word stocks.  The three stocks are mutually disjoint, and none of them
# contains a common-word concept: that keeps longest-match interactions
# between planted phrases and filler text impossible, so the recorded
# ground truth is exactly what a correct linker should produce.
# ---------------------------------------------------------------------------

_ADJECTIVES = (
    "abelian", "affine", "algebraic", "analytic", "bounded", "canonical",
    "closed", "compact", "complete", "convex", "countable", "cyclic",
    "dense", "diagonal", "elliptic", "ergodic", "euclidean", "finite",
    "harmonic", "holomorphic", "homogeneous", "hyperbolic", "infinite",
    "integral", "irreducible", "isotropic", "maximal", "measurable",
    "meromorphic", "minimal", "monotone", "nilpotent", "orthogonal",
    "parabolic", "perfect", "projective", "rational", "reflexive",
    "regular", "separable", "simple", "singular", "solvable",
    "stochastic", "symmetric", "transcendental", "transitive", "uniform",
    "unitary", "archimedean",
)

_NOUNS = (
    "lattice", "module", "functor", "ideal", "kernel", "manifold",
    "polytope", "ordinal", "cardinal", "sheaf", "fibration",
    "homomorphism", "isomorphism", "automorphism", "polynomial",
    "operator", "topology", "metric", "norm", "measure", "tensor",
    "category", "morphism", "variety", "bundle", "cohomology",
    "homotopy", "filtration", "valuation", "congruence", "partition",
    "permutation", "determinant", "quadric", "conic", "semigroup",
    "monoid", "quiver", "algebra", "covering", "pairing", "resolution",
    "stratification", "foliation", "groupoid", "crystal", "matroid",
    "hypergraph", "complex", "spectrum",
)

_QUALIFIERS = (
    "theorem", "lemma", "property", "criterion", "inequality",
    "conjecture", "problem", "method", "decomposition", "extension",
    "closure", "completion", "product", "quotient", "embedding",
    "invariant", "construction",
)

_FILLER = (
    "we", "show", "that", "consider", "it", "follows", "suppose",
    "define", "denote", "proof", "result", "since", "thus", "hence",
    "now", "note", "recall", "observe", "clearly", "obtain", "implies",
    "argument", "statement", "section", "example", "remark", "useful",
    "important", "standard", "classical", "known", "holds", "gives",
    "yields", "applying", "using", "above", "below", "next", "first",
    "second", "finally", "moreover", "furthermore", "therefore",
    "because", "whose", "these", "such", "each", "both", "many",
    "several", "certain", "particular", "immediately", "directly",
    "together", "with", "the", "and", "then", "this", "one", "case",
)

#: Common-English concept words -> the MSC section of their defining
#: entry.  These are the overlinking culprits of Section 2.4.
COMMON_WORD_SECTIONS: dict[str, str] = {
    "even": "11A",
    "odd": "11B",
    "prime": "11N",
    "power": "26A",
    "order": "20B",
    "degree": "05C",
    "field": "12E",
    "ring": "13A",
    "group": "20A",
    "root": "12D",
    "base": "54A",
    "limit": "40A",
    "normal": "20E",
    "identity": "20K",
    "factor": "13B",
    "image": "03E",
}

_MATH_SPANS = ("$x$", "$f(x)$", "$n+1$", "$A \\subseteq B$", "$\\pi$", "$x^2$")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs of the synthetic corpus.

    Defaults are calibrated so the full-size corpus reproduces the
    paper's headline quality numbers: ~12% mislinks of which roughly
    two-thirds are overlinks under lexical-only linking, dropping past
    92% precision with steering + policies (see EXPERIMENTS.md).
    """

    n_entries: int = 7132
    seed: int = 20090612
    leaves_per_section: int = 20
    zipf_exponent: float = 1.0
    homonym_rate: float = 0.09
    extra_label_rate: float = 0.45
    synonym_rate: float = 0.25
    min_sentences: int = 6
    max_sentences: int = 13
    min_invocations: int = 4
    max_invocations: int = 9
    same_section_bias: float = 0.70
    same_area_bias: float = 0.20
    common_math_rate: float = 0.25
    common_english_rate: float = 0.55
    common_english_same_area_bias: float = 0.25
    cross_homonym_rate: float = 0.30
    shallow_class_rate: float = 0.05
    depth_homonym_rate: float = 0.08
    math_span_rate: float = 0.15
    second_class_rate: float = 0.10


@dataclass(frozen=True)
class GroundTruthInvocation:
    """One planted phrase occurrence and its correct resolution.

    ``target_id`` is ``None`` for common-English uses — linking them at
    all is an overlink.  ``kind`` is one of ``concept``, ``homonym``,
    ``common-math``, ``common-english``.
    """

    phrase: str
    canonical: tuple[str, ...]
    target_id: int | None
    kind: str


@dataclass
class SyntheticCorpus:
    """Generated corpus + exact ground truth."""

    objects: list[CorpusObject]
    ground_truth: dict[int, list[GroundTruthInvocation]]
    scheme: ClassificationScheme
    common_word_objects: dict[str, int]
    params: GeneratorParams
    label_count: int = 0

    def object_by_id(self) -> dict[int, CorpusObject]:
        """Index the corpus objects by id."""
        return {obj.object_id: obj for obj in self.objects}

    def recommended_policies(self, coverage: float = 1.0) -> dict[int, str]:
        """Policy text for common-word entries (Section 2.4 style).

        ``forbid <word>`` everywhere, ``permit <word> <area>`` for the
        defining entry's own top-level area — exactly the "even number"
        example of the paper.

        ``coverage`` models the paper's real-world deployment, where the
        67 policies were "supplied by real-world users with no prompting,
        and no effort was made to tackle the remaining problematic cases
        of overlinking": only the first ``coverage`` fraction of
        culprits (in word order) receive a policy.
        """
        words = sorted(self.common_word_objects)
        covered = words[: max(0, round(coverage * len(words)))]
        policies: dict[int, str] = {}
        for word in covered:
            object_id = self.common_word_objects[word]
            section = COMMON_WORD_SECTIONS[word]
            area = section[:2]
            policies[object_id] = f"forbid {word}\npermit {word} {area}\n"
        return policies

    def subset(self, size: int, seed: int = 0) -> "SyntheticCorpus":
        """A random sub-corpus (used by the Table 3 scalability sweep)."""
        if size >= len(self.objects):
            return self
        rng = random.Random(seed)
        chosen = rng.sample(self.objects, size)
        chosen_ids = {obj.object_id for obj in chosen}
        return SyntheticCorpus(
            objects=sorted(chosen, key=lambda o: o.object_id),
            ground_truth={
                oid: invocations
                for oid, invocations in self.ground_truth.items()
                if oid in chosen_ids
            },
            scheme=self.scheme,
            common_word_objects={
                word: oid
                for word, oid in self.common_word_objects.items()
                if oid in chosen_ids
            },
            params=self.params,
            label_count=self.label_count,
        )

    def total_invocations(self) -> int:
        """Number of planted invocations across all entries."""
        return sum(len(items) for items in self.ground_truth.values())


class _LabelFactory:
    """Deterministic stream of unique concept labels."""

    def __init__(self, rng: random.Random) -> None:
        pairs = [f"{adj} {noun}" for adj in _ADJECTIVES for noun in _NOUNS]
        triples = [
            f"{adj} {noun} {qual}"
            for adj in _ADJECTIVES
            for noun in _NOUNS
            for qual in _QUALIFIERS[:6]
        ]
        rng.shuffle(pairs)
        rng.shuffle(triples)
        # Interleave so early entries get a mix of 2- and 3-word labels.
        self._labels: list[str] = []
        while pairs or triples:
            if pairs:
                self._labels.append(pairs.pop())
            if triples:
                self._labels.append(triples.pop())
        self._labels.reverse()  # pop() from the end, preserving order

    def next_label(self) -> str:
        if not self._labels:
            raise RuntimeError("label stock exhausted; enlarge the word stocks")
        return self._labels.pop()


@dataclass
class _EntryPlan:
    object_id: int
    section: str
    classes: list[str]
    labels: list[str]
    synonyms: list[str] = field(default_factory=list)
    is_common_word: bool = False


def generate_corpus(params: GeneratorParams | None = None) -> SyntheticCorpus:
    """Generate the full synthetic corpus (two-phase: plans, then text)."""
    params = params or GeneratorParams()
    rng = random.Random(params.seed)
    scheme = build_msc(leaves_per_section=params.leaves_per_section)

    sections = [code for __, code, ___ in MSC_SECTIONS]
    leaves_by_section = {code: list(scheme.children_of(code)) for code in sections}
    section_weights = _zipf_weights(len(sections), params.zipf_exponent, rng)

    factory = _LabelFactory(rng)
    plans: list[_EntryPlan] = []
    common_word_objects: dict[str, int] = {}
    # Singly-owned labels of shallow-classified plans, per area: the
    # candidate pool for depth homonyms.
    shallow_labels_by_area: dict[str, list[str]] = {}
    next_id = 1

    # Phase 0: dedicated entries for the common-word concepts.
    for word, section in COMMON_WORD_SECTIONS.items():
        leaf = rng.choice(leaves_by_section[section])
        plans.append(
            _EntryPlan(
                object_id=next_id,
                section=section,
                classes=[leaf],
                labels=[word],
                is_common_word=True,
            )
        )
        common_word_objects[word] = next_id
        next_id += 1

    # Phase 1: metadata plans for the bulk of the corpus.
    label_owners: dict[str, list[int]] = {}
    plan_by_id: dict[int, _EntryPlan] = {plan.object_id: plan for plan in plans}
    area_of = {code: code[:2] for code in sections}
    while len(plans) < params.n_entries:
        section = rng.choices(sections, weights=section_weights, k=1)[0]
        if rng.random() < params.shallow_class_rate:
            # Some authors classify coarsely, at the top-level area only
            # (real PlanetMath metadata has such entries).  These become
            # the shallow competitors that motivate the depth-decaying
            # weights of Section 2.3.
            classes = [area_of[section]]
        else:
            classes = [rng.choice(leaves_by_section[section])]
        if rng.random() < params.second_class_rate:
            sibling_sections = [s for s in sections if area_of[s] == area_of[section]]
            classes.append(rng.choice(leaves_by_section[rng.choice(sibling_sections)]))
        labels = [factory.next_label()]
        if rng.random() < params.extra_label_rate:
            labels.append(factory.next_label())
        synonyms = []
        if rng.random() < params.synonym_rate:
            synonyms.append(factory.next_label())
        plan = _EntryPlan(
            object_id=next_id,
            section=section,
            classes=classes,
            labels=labels,
            synonyms=synonyms,
        )
        # Homonym: also define a label owned by an entry in another area.
        if rng.random() < params.homonym_rate and label_owners:
            foreign = _pick_foreign_label(rng, label_owners, plan_by_id, area_of, section)
            if foreign is not None:
                plan.labels.append(foreign)
        # Depth homonym: this (leaf-classified) entry re-defines a label
        # owned by an earlier *shallow*-classified entry in the same
        # area.  Invoking that label from this entry's own section then
        # produces a hop-count tie (leaf->section->leaf vs.
        # leaf->section->top, both 2 hops) that only the depth-decaying
        # weights of Section 2.3 resolve in favour of the deeper, more
        # specific definition — the weighting ablation's signal.
        elif rng.random() < params.depth_homonym_rate and len(classes[0]) > 2:
            pool = [
                label
                for label in shallow_labels_by_area.get(area_of[section], [])
                if len(label_owners.get(label, ())) == 1
                and plan_by_id[label_owners[label][0]].section != section
            ]
            if pool:
                plan.labels.append(rng.choice(pool))
        plans.append(plan)
        plan_by_id[plan.object_id] = plan
        for label in plan.labels:
            label_owners.setdefault(label, []).append(plan.object_id)
        if all(len(code) <= 2 for code in plan.classes):
            shallow_labels_by_area.setdefault(area_of[section], []).extend(
                label for label in plan.labels if len(label_owners[label]) == 1
            )
        next_id += 1

    plan_index = plan_by_id
    homonym_labels = {label for label, owners in label_owners.items() if len(owners) > 1}
    # For the steering-resistant invocations: per top-level area, homonym
    # labels with one owner *in* the area — invoking them with the
    # *other* owner as ground truth defeats classification proximity,
    # modelling the residual mislinks the paper observes after steering.
    cross_homonyms: dict[str, list[tuple[str, int]]] = {}
    for label in sorted(homonym_labels):
        owners = label_owners[label]
        if len(owners) != 2:
            continue
        areas = [area_of[plan_by_id[oid].section] for oid in owners]
        if areas[0] == areas[1]:
            continue
        cross_homonyms.setdefault(areas[0], []).append((label, owners[1]))
        cross_homonyms.setdefault(areas[1], []).append((label, owners[0]))
    all_plan_ids = [plan.object_id for plan in plans if not plan.is_common_word]
    ids_by_section: dict[str, list[int]] = {code: [] for code in sections}
    ids_by_area: dict[str, list[int]] = {}
    for plan in plans:
        if plan.is_common_word:
            continue
        ids_by_section[plan.section].append(plan.object_id)
        ids_by_area.setdefault(area_of[plan.section], []).append(plan.object_id)

    # Phase 2: text + ground truth.
    objects: list[CorpusObject] = []
    ground_truth: dict[int, list[GroundTruthInvocation]] = {}
    for plan in plans:
        text, invocations = _generate_text(plan, params, rng, plan_index,
                                           ids_by_section, ids_by_area,
                                           all_plan_ids, area_of,
                                           common_word_objects, homonym_labels,
                                           cross_homonyms)
        objects.append(
            CorpusObject(
                object_id=plan.object_id,
                title=plan.labels[0],
                defines=list(plan.labels),
                synonyms=list(plan.synonyms),
                classes=list(plan.classes),
                text=text,
            )
        )
        ground_truth[plan.object_id] = invocations

    label_count = len(label_owners) + len(common_word_objects)
    return SyntheticCorpus(
        objects=objects,
        ground_truth=ground_truth,
        scheme=scheme,
        common_word_objects=common_word_objects,
        params=params,
        label_count=label_count,
    )


def _zipf_weights(count: int, exponent: float, rng: random.Random) -> list[float]:
    weights = [1.0 / ((rank + 1) ** exponent) for rank in range(count)]
    rng.shuffle(weights)
    return weights


def _pick_foreign_label(
    rng: random.Random,
    label_owners: dict[str, list[int]],
    plan_by_id: dict[int, _EntryPlan],
    area_of: dict[str, str],
    section: str,
) -> str | None:
    """A label owned only by entries outside this entry's top-level area."""
    labels = list(label_owners)
    for __ in range(8):
        label = rng.choice(labels)
        owners = label_owners[label]
        if len(owners) > 1:
            continue  # keep homonym groups small (pairs), like real data
        owner_plan = plan_by_id.get(owners[0])
        if owner_plan is None or owner_plan.is_common_word:
            continue
        if area_of[owner_plan.section] != area_of[section]:
            return label
    return None


def _generate_text(
    plan: _EntryPlan,
    params: GeneratorParams,
    rng: random.Random,
    plan_index: dict[int, _EntryPlan],
    ids_by_section: dict[str, list[int]],
    ids_by_area: dict[str, list[int]],
    all_ids: list[int],
    area_of: dict[str, str],
    common_word_objects: dict[str, int],
    homonym_labels: set[str],
    cross_homonyms: dict[str, list[tuple[str, int]]],
) -> tuple[str, list[GroundTruthInvocation]]:
    """Assemble sentences: filler + planted invocations, one per sentence."""
    invocations: list[GroundTruthInvocation] = []
    used_canonicals: set[tuple[str, ...]] = {
        canonicalize_phrase(label) for label in plan.labels
    }
    sentences: list[str] = []

    n_invocations = rng.randint(params.min_invocations, params.max_invocations)
    planted = 0
    attempts = 0
    while planted < n_invocations and attempts < n_invocations * 4:
        attempts += 1
        target_id = _pick_invocation_target(plan, params, rng, ids_by_section,
                                            ids_by_area, all_ids, area_of)
        if target_id is None or target_id == plan.object_id:
            continue
        target_plan = plan_index[target_id]
        phrase = rng.choice(target_plan.labels)
        canonical = canonicalize_phrase(phrase)
        if canonical in used_canonicals:
            continue
        used_canonicals.add(canonical)
        kind = "homonym" if phrase in homonym_labels else "concept"
        invocations.append(
            GroundTruthInvocation(
                phrase=phrase, canonical=canonical, target_id=target_id, kind=kind
            )
        )
        sentences.append(_sentence_with(phrase, rng, params))
        planted += 1

    # Steering-resistant homonym use: this entry invokes the homonym
    # whose correct target sits in *another* area (the entry's own area
    # hosts the competing definition), so classification proximity picks
    # the wrong one.  This is the irreducible mislink residue of §3.2.
    if rng.random() < params.cross_homonym_rate:
        pool = cross_homonyms.get(area_of[plan.section], [])
        if pool:
            label, gt_owner = rng.choice(pool)
            canonical = canonicalize_phrase(label)
            if canonical not in used_canonicals and gt_owner != plan.object_id:
                used_canonicals.add(canonical)
                invocations.append(
                    GroundTruthInvocation(
                        phrase=label,
                        canonical=canonical,
                        target_id=gt_owner,
                        kind="homonym-cross",
                    )
                )
                sentences.append(_sentence_with(label, rng, params))

    # Mathematical use of a common-word concept — only from within the
    # owner's top-level area, so linking policies never cause underlinks.
    if rng.random() < params.common_math_rate:
        compatible = [
            word
            for word, section in COMMON_WORD_SECTIONS.items()
            if section[:2] == area_of[plan.section]
        ]
        if compatible:
            word = rng.choice(compatible)
            canonical = canonicalize_phrase(word)
            if canonical not in used_canonicals:
                used_canonicals.add(canonical)
                invocations.append(
                    GroundTruthInvocation(
                        phrase=word,
                        canonical=canonical,
                        target_id=common_word_objects[word],
                        kind="common-math",
                    )
                )
                sentences.append(_sentence_with(word, rng, params))

    # Everyday-English use of common words: linking these is an overlink.
    english_uses = 0
    if rng.random() < params.common_english_rate:
        english_uses = 1
        if rng.random() < 0.3:
            english_uses = 2
    for __ in range(english_uses):
        if rng.random() < params.common_english_same_area_bias:
            pool = [
                word
                for word, section in COMMON_WORD_SECTIONS.items()
                if section[:2] == area_of[plan.section]
            ] or list(COMMON_WORD_SECTIONS)
        else:
            pool = [
                word
                for word, section in COMMON_WORD_SECTIONS.items()
                if section[:2] != area_of[plan.section]
            ] or list(COMMON_WORD_SECTIONS)
        word = rng.choice(pool)
        canonical = canonicalize_phrase(word)
        if canonical in used_canonicals:
            continue
        used_canonicals.add(canonical)
        invocations.append(
            GroundTruthInvocation(
                phrase=word, canonical=canonical, target_id=None, kind="common-english"
            )
        )
        sentences.append(_sentence_with(word, rng, params))

    # Pure filler sentences to reach the target length.
    n_sentences = rng.randint(params.min_sentences, params.max_sentences)
    while len(sentences) < n_sentences:
        sentences.append(_sentence_with(None, rng, params))
    rng.shuffle(sentences)
    return " ".join(sentences), invocations


def _pick_invocation_target(
    plan: _EntryPlan,
    params: GeneratorParams,
    rng: random.Random,
    ids_by_section: dict[str, list[int]],
    ids_by_area: dict[str, list[int]],
    all_ids: list[int],
    area_of: dict[str, str],
) -> int | None:
    roll = rng.random()
    if roll < params.same_section_bias:
        pool = ids_by_section.get(plan.section, [])
    elif roll < params.same_section_bias + params.same_area_bias:
        pool = ids_by_area.get(area_of[plan.section], [])
    else:
        pool = all_ids
    if not pool:
        pool = all_ids
    if not pool:
        return None
    return rng.choice(pool)


def _sentence_with(
    phrase: str | None, rng: random.Random, params: GeneratorParams
) -> str:
    words = [rng.choice(_FILLER) for __ in range(rng.randint(4, 9))]
    if phrase is not None:
        position = rng.randint(1, len(words))
        words.insert(position, phrase)
    if rng.random() < params.math_span_rate:
        words.insert(rng.randint(0, len(words)), rng.choice(_MATH_SPANS))
    sentence = " ".join(words)
    return sentence[0].upper() + sentence[1:] + "."


def corpus_statistics(corpus: SyntheticCorpus) -> dict[str, float]:
    """Headline statistics of a generated corpus (for reports/tests)."""
    invocation_total = corpus.total_invocations()
    homonym = sum(
        1
        for items in corpus.ground_truth.values()
        for item in items
        if item.kind == "homonym"
    )
    english = sum(
        1
        for items in corpus.ground_truth.values()
        for item in items
        if item.kind == "common-english"
    )
    return {
        "entries": len(corpus.objects),
        "concept_labels": corpus.label_count,
        "invocations": invocation_total,
        "homonym_invocations": homonym,
        "common_english_uses": english,
        "mean_invocations_per_entry": (
            invocation_total / len(corpus.objects) if corpus.objects else 0.0
        ),
    }


def load_or_generate(params: GeneratorParams | None = None) -> SyntheticCorpus:
    """Memoized generation keyed by the whole params — experiments share it."""
    params = params or GeneratorParams()
    if params not in _CORPUS_CACHE:
        _CORPUS_CACHE[params] = generate_corpus(params)
    return _CORPUS_CACHE[params]


_CORPUS_CACHE: dict[GeneratorParams, SyntheticCorpus] = {}
