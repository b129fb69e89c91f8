"""Differential check of the per-match decision path against a full oracle.

``link_object`` resolves each match with only the stages that can change
it: the concept map is probed only where a word heads a chain, a label
with one owner becomes its candidate tuple without a sort, the link loop
takes a lone candidate that carries no policy without calling the
resolver, the policy filter passes candidates that carry no policy
untouched, Algorithm 1 runs only over two or more survivors, and each
target's URL comes from a per-target memo.  The oracle below does none
of that.  For every match it scans every word position, evaluates every
candidate's policy, runs :meth:`ClassificationSteering.steer` even over
one candidate, applies the collection-priority tie-break and formats the
URL afresh.  Every match and every link of every stored entry must equal
the oracle's, and every link target the choice ``explain_text``
reports, before and after a domain is replaced.

Corpora mix homonym labels with one to three owners, class-scoped
``forbid``/``permit`` policies on some targets, and three domains with
different priorities and ``{title}`` URL templates.  The example budget
is small by default; ``NNEXUS_MODEL_PROFILE=ci`` runs the large one.
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.classification import ClassificationGraph, ClassificationSteering
from repro.core.config import DomainConfig, NNexusConfig
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.core.morphology import canonicalize_phrase
from repro.core.policies import LinkingPolicy
from repro.core.tokenizer import Tokenizer
from repro.ontology.msc import build_small_msc

EXAMPLES = 3_000 if os.environ.get("NNEXUS_MODEL_PROFILE") == "ci" else 150

SCHEME = build_small_msc()
LABEL_WORDS = ("graph", "tree", "planar", "group", "even", "prime")
TEXT_WORDS = LABEL_WORDS + ("graphs", "trees", "the", "of", "$x$")
# "99Z99" is unknown to the scheme: infinitely far from every class.
CLASSES = ("05C05", "05C10", "05C40", "11A41", "11A51", "03E20", "99Z99")
# Titles never occur in the texts; they only feed the {title} slugs.
TITLES = ("Zeta", "zeta (set theory)", "Zeta–Eta & co", "ζ function", "")
DOMAINS = ("alpha", "beta", "default")

labels = st.lists(st.sampled_from(LABEL_WORDS), min_size=1, max_size=2).map(" ".join)
texts = st.lists(st.sampled_from(TEXT_WORDS), max_size=16).map(" ".join)
classes = st.lists(st.sampled_from(CLASSES), max_size=2, unique=True)
priorities = st.integers(1, 3)


def directives(label_pool: list[str]) -> st.SearchStrategy[str]:
    label = st.sampled_from(label_pool)
    return st.one_of(
        label.map(lambda text: f"forbid {text}"),
        label.map(lambda text: f"permit {text} 11"),
        label.map(lambda text: f"forbid {text} 05C"),
        st.sampled_from(["forbid *", "forbid * 05C", "permit * 11", "permit *"]),
    )


@st.composite
def corpora(draw: st.DrawFn) -> tuple[NNexusConfig, list[CorpusObject]]:
    count = draw(st.integers(2, 7))
    ids = list(range(1, count + 1))
    label_pool = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    defines: dict[int, list[str]] = {object_id: [] for object_id in ids}
    for label in label_pool:
        # A homonym label: one to three owners.
        owners = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3, unique=True))
        for object_id in owners:
            defines[object_id].append(label)
    objects = []
    for object_id in ids:
        policy = "\n".join(draw(st.lists(directives(label_pool), max_size=3)))
        objects.append(
            CorpusObject(
                object_id,
                title=draw(st.sampled_from(TITLES)),
                defines=defines[object_id],
                classes=draw(classes),
                text=draw(texts),
                domain=draw(st.sampled_from(DOMAINS)),
                linking_policy=policy,
            )
        )
    config = NNexusConfig(link_first_occurrence_only=draw(st.booleans()))
    config.add_domain(
        DomainConfig("alpha", "https://a.example/{title}", priority=draw(priorities))
    )
    config.add_domain(
        DomainConfig("beta", "/b/{object_id}-{title}", priority=draw(priorities))
    )
    return config, objects


OracleMatch = tuple[tuple[str, ...], str, int, int, tuple[int, ...]]
OracleLink = tuple[int, int, int, str]


def oracle(
    linker: NNexus, source: CorpusObject
) -> tuple[list[OracleMatch], list[OracleLink]]:
    """The entry's match array and links, every position and stage run.

    A match is ``(label words, surface, token start, token end, sorted
    candidates)``; a link is ``(char_start, char_end, target, url)``.
    """
    config = linker.config
    objects = {object_id: linker.get_object(object_id) for object_id in linker.object_ids()}
    owners: dict[tuple[str, ...], set[int]] = {}
    for obj in objects.values():
        for phrase in obj.concept_phrases():
            words = canonicalize_phrase(phrase)
            if words:
                owners.setdefault(words, set()).add(obj.object_id)
    lengths = sorted({len(words) for words in owners}, reverse=True)
    steering = ClassificationSteering(
        ClassificationGraph.from_scheme(SCHEME, base_weight=config.base_weight)
    )

    def priority(object_id: int) -> tuple[int, int]:
        domain = config.domains.get(objects[object_id].domain)
        return (domain.priority if domain else 1_000_000, object_id)

    scan = Tokenizer().tokenize(source.text)
    words = scan.words
    seen: set[tuple[str, ...]] = set()
    matches: list[OracleMatch] = []
    links: list[OracleLink] = []
    position = 0
    while position < len(words):
        found = None
        for length in lengths:
            label = tuple(words[position : position + length])
            if len(label) < length or label not in owners:
                continue
            if config.link_first_occurrence_only and label in seen:
                continue
            candidates = sorted(owners[label] - {source.object_id})
            if candidates:
                found = label, candidates
                break
        if found is None:
            position += 1
            continue
        label, candidates = found
        seen.add(label)
        end = position + len(label)
        surface = source.text[scan.starts[position] : scan.ends[end - 1]]
        matches.append((label, surface, position, end, tuple(candidates)))
        permitted = [
            object_id
            for object_id in candidates
            if LinkingPolicy.from_text(objects[object_id].linking_policy).allows(
                label, source.classes, SCHEME
            )
        ]
        winners = steering.steer(
            source.classes,
            {object_id: objects[object_id].classes for object_id in permitted},
        ).winners
        if winners:
            target = min(winners, key=priority)
            domain = config.domains.get(objects[target].domain)
            url = domain.url_for(target, objects[target].title) if domain else ""
            links.append((scan.starts[position], scan.ends[end - 1], target, url))
        position = end
    return matches, links


def check_every_entry(linker: NNexus) -> None:
    for object_id in linker.object_ids():
        source = linker.get_object(object_id)
        document = linker.link_object(object_id)
        matches = [
            (match.label.words, match.surface, match.start, match.end, match.candidates)
            for match in document.matches
        ]
        links = [
            (link.char_start, link.char_end, link.target_id, link.url)
            for link in document.links
        ]
        assert (matches, links) == oracle(linker, source), object_id
        check_explained(linker, object_id)


def check_explained(linker: NNexus, object_id: int) -> None:
    """The targets ``explain_text`` chooses are the entry's link targets."""
    source = linker.get_object(object_id)
    chosen = [
        explanation.chosen
        for explanation in linker.explain_text(
            source.text,
            source.classes,
            exclude_objects=(object_id,),
        )
        if explanation.chosen is not None
    ]
    targets = [link.target_id for link in linker.link_object(object_id).links]
    assert targets == chosen, object_id


@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(corpus=corpora(), swapped_priority=priorities)
def test_links_equal_full_path_oracle(
    corpus: tuple[NNexusConfig, list[CorpusObject]], swapped_priority: int
) -> None:
    config, objects = corpus
    linker = NNexus(scheme=SCHEME, config=config)
    linker.add_objects(objects)
    check_every_entry(linker)
    # Replace a domain after its URLs were built: both the URLs and the
    # priority tie-break must follow the new configuration.
    config.add_domain(
        DomainConfig(
            "alpha", "https://a2.example/{object_id}/{title}", priority=swapped_priority
        )
    )
    check_every_entry(linker)
