"""Link-source identification: scanning entry text for concept labels.

Section 2.2: the tokenized text is iterated over and probed against the
concept map.  If a word heads any indexed concept label, the following
words are checked against the *longest* label first ("longer phrases
semantically subsume their shorter atoms"), and the match — with every
object defining that label as a candidate — is appended to the match
array.  Only the first occurrence of each label is kept when the linker
is configured that way ("NNexus only links the first occurrence of a term
or phrase to reduce visual clutter").

The scan probes only where a label can start: one pass finds the
positions whose word heads a concept-map chain
(:meth:`repro.core.concept_map.ConceptMap.head_positions`), and the
longest-first probe runs at each of those not already consumed by an
earlier match.  The probe itself lives in
:meth:`repro.core.concept_map.ConceptMap.probe_longest` (shared with
``ConceptMap.longest_match``); this module supplies the usability
filters — the first-occurrence rule and candidate exclusion — as the
probe's accept callback.  A label with one owner becomes the candidate
tuple ``(owner,)`` directly; only homonyms pay for the set difference
and the sort.  Each match is one slotted :class:`~repro.core.models.Match`
around one slotted :class:`~repro.core.models.ConceptLabel`.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.concept_map import ConceptMap
from repro.core.models import ConceptLabel, Match
from repro.core.tokenizer import TokenizedText

__all__ = ["find_matches"]


def find_matches(
    tokenized: TokenizedText,
    concept_map: ConceptMap,
    first_occurrence_only: bool = True,
    exclude_objects: Iterable[int] = (),
) -> list[Match]:
    """Build the match array for one entry.

    Parameters
    ----------
    tokenized:
        The entry's token array (already escaped + canonicalized).
    concept_map:
        The corpus concept map.
    first_occurrence_only:
        Keep only the first occurrence of each canonical label.
    exclude_objects:
        Candidate ids to drop (the entry being linked must not link to
        itself).  A match whose only candidates are excluded is dropped
        entirely, releasing the tokens for shorter or later matches.
    """
    excluded = frozenset(exclude_objects)
    words = tokenized.canonical_words()
    matches: list[Match] = []
    seen_labels: set[tuple[str, ...]] = set()

    def accept(
        label_words: tuple[str, ...], owners: set[int]
    ) -> tuple[tuple[str, ...], tuple[int, ...]] | None:
        """"Usable" labels only: not already linked, not fully excluded.

        Returning ``None`` makes the probe fall through to the
        next-longest label, mirroring the paper's longest-first probing.
        """
        if first_occurrence_only and label_words in seen_labels:
            return None
        if len(owners) == 1:
            # Most labels have one owner: no set difference or sort.
            (owner,) = owners
            if owner in excluded:
                return None
            return label_words, (owner,)
        candidates = tuple(sorted(owners - excluded))
        if not candidates:
            return None
        return label_words, candidates

    probe = concept_map.probe_longest
    consumed_to = 0
    for position in concept_map.head_positions(words):
        if position < consumed_to:
            continue
        found = probe(words, position, accept)
        if found is None:
            continue
        label_words, candidates = found
        token_end = position + len(label_words)
        surface = tokenized.surface_between(position, token_end)
        matches.append(
            Match(
                ConceptLabel(label_words, surface, candidates[0]),
                position,
                token_end,
                surface,
                candidates,
            )
        )
        if first_occurrence_only:
            seen_labels.add(label_words)
        # Consume the matched tokens: a token participates in one link.
        consumed_to = token_end
    return matches
