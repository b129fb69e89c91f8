"""Core data model for the NNexus linker.

The vocabulary follows Section 1.1 of the paper:

* an *entry* (or *object*) is an article contributed to a collaborative
  corpus, identified by an integer object id;
* a *concept label* is a tuple of words that commonly names a concept;
* an *invocation link* is a hyperlink from a concept label occurring in an
  entry (the *link source*) to the entry defining that concept (the
  *link target*).

All structures here are plain dataclasses: the behaviour lives in the
sibling modules (concept map, classification steering, policies, ...).
The per-link result records — :class:`ConceptLabel`, :class:`Match` and
:class:`Link` — are slotted and mutable, hence unhashable: the linker
builds about 22 of them per entry, and a slotted dataclass constructs
about five times faster than a frozen one.  They are built fresh on
every link call and never shared with linker state, so nothing depends
on their immutability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence


@dataclass(slots=True)
class ConceptLabel:
    """A canonicalized concept label together with its defining object.

    ``words`` holds the canonical (singular, non-possessive, case-folded)
    word tuple; ``raw`` preserves the author-supplied spelling for display.
    """

    words: tuple[str, ...]
    raw: str
    object_id: int

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a concept label needs at least one word")

    @property
    def first_word(self) -> str:
        """First canonical word — the chained-hash key in the concept map."""
        return self.words[0]

    @property
    def length(self) -> int:
        """Number of words in the label (used for longest-match ordering)."""
        return len(self.words)

    @property
    def text(self) -> str:
        """Canonical label as a space-joined phrase."""
        return " ".join(self.words)


@dataclass
class CorpusObject:
    """An entry in a collaborative corpus plus its author-supplied metadata.

    Mirrors the metadata table of Fig. 1 in the paper: each object carries
    the concepts it defines, synonyms for them, a title, and zero or more
    subject classifications (e.g. MSC codes such as ``"05C40"``).
    """

    object_id: int
    title: str
    defines: list[str] = field(default_factory=list)
    synonyms: list[str] = field(default_factory=list)
    classes: list[str] = field(default_factory=list)
    text: str = ""
    domain: str = "default"
    linking_policy: str = ""

    def concept_phrases(self) -> list[str]:
        """All raw phrases under which this object can be linked to.

        The paper treats the title, the ``defines`` list and the synonym
        list uniformly as concept labels (Section 2.2).
        """
        phrases: list[str] = []
        seen: set[str] = set()
        for phrase in [self.title, *self.defines, *self.synonyms]:
            cleaned = phrase.strip()
            key = cleaned.lower()
            if cleaned and key not in seen:
                seen.add(key)
                phrases.append(cleaned)
        return phrases


def object_to_payload(obj: CorpusObject) -> dict[str, Any]:
    """JSON-safe dict for one entry: a corpus file item, a journal row."""
    return {
        "object_id": obj.object_id,
        "title": obj.title,
        "defines": list(obj.defines),
        "synonyms": list(obj.synonyms),
        "classes": list(obj.classes),
        "text": obj.text,
        "domain": obj.domain,
        "linking_policy": obj.linking_policy,
    }


def object_from_payload(payload: Mapping[str, Any]) -> CorpusObject:
    """Inverse of :func:`object_to_payload`; absent fields take defaults."""
    return CorpusObject(
        object_id=int(payload["object_id"]),
        title=str(payload.get("title", "")),
        defines=[str(x) for x in payload.get("defines", [])],
        synonyms=[str(x) for x in payload.get("synonyms", [])],
        classes=[str(x) for x in payload.get("classes", [])],
        text=str(payload.get("text", "")),
        domain=str(payload.get("domain", "default")),
        linking_policy=str(payload.get("linking_policy", "")),
    )


@dataclass(slots=True)
class Match:
    """An occurrence of a concept label in the tokenized source text.

    ``start`` and ``end`` are token indices (``end`` exclusive) into the
    token array produced by the tokenizer; ``candidates`` holds the ids of
    every object defining the matched label, before disambiguation.
    """

    label: ConceptLabel
    start: int
    end: int
    surface: str
    candidates: tuple[int, ...]


@dataclass(frozen=True)
class Candidate:
    """A candidate link target with its classification-steering distance."""

    object_id: int
    distance: float
    priority: int = 0


@dataclass(slots=True)
class Link:
    """A resolved invocation link ready for rendering.

    ``char_start``/``char_end`` delimit the surface phrase in the original
    entry text, so renderers can substitute without re-tokenizing.
    """

    source_phrase: str
    target_id: int
    target_domain: str
    char_start: int
    char_end: int
    url: str = ""

    @property
    def span(self) -> tuple[int, int]:
        return (self.char_start, self.char_end)


@dataclass
class LinkedDocument:
    """The outcome of linking one entry: links plus diagnostic detail."""

    source_text: str
    links: list[Link] = field(default_factory=list)
    matches: list[Match] = field(default_factory=list)
    escaped_regions: list[tuple[int, int]] = field(default_factory=list)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def targets(self) -> list[int]:
        """Target object ids in source-text order."""
        return [link.target_id for link in self.links]


def spans_overlap(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when two ``(start, end)`` half-open spans intersect."""
    return a[0] < b[1] and b[0] < a[1]
