"""The invalidation index (Section 2.5, Fig. 6).

When a new concept is defined (or a concept label changes), every entry
that *might* invoke it must be re-linked.  Rescanning the whole corpus on
each update is the O(n²) trap the paper warns about; instead NNexus keeps
an inverted index over entry text and re-links only the entries it names.

The paper's index is *adaptive*: it keys single words and, once they are
frequent enough, phrases, and answers a label with the postings of its
longest indexed prefix — a superset of the entries containing the label.
This module keeps two smaller structures and answers exactly:

* ``word -> set of object ids`` postings;
* each entry's canonical word sequence, stored once as one string.

:meth:`InvalidationIndex.invalidate` intersects the label words'
postings, rarest first, then keeps the candidates whose sequence holds
the label contiguously.  The result is exactly the set of entries
containing the label: never larger than the paper's superset, and never
missing an entry whose rendering can change, because the sequence is the
same canonical word array the matcher scans.  The index does not scan
text itself: the linker tokenizes each entry version once and hands the
index that scan's words.  Each linker mutation removes or (re-)indexes
an entry at most once (an update re-indexes by the entry's word
difference) and then calls :meth:`~InvalidationIndex.invalidate_many`
once: an add over the entry's labels, a remove over the labels it
defined, and an update over the labels it changed.  An update that keeps
the entry's target fields (title, classes, domain, linking policy: the
fields other entries' link decisions read) passes the symmetric
difference of its old and new labels, so a text-only edit invalidates
no other entry; one that changes a target field passes their union.
The index keeps no observers, since the linker drops its own per-entry
state itself.
The paper's structure survives as an offline model for the Fig. 6
ablation (:class:`repro.eval.experiments.AdaptivePhraseIndexModel`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.morphology import canonicalize_phrase
from repro.obs.memory import (
    estimate_dict_entry,
    estimate_int,
    estimate_set_entry,
    estimate_str,
)

__all__ = ["InvalidationIndex", "canonical_words"]

#: Joins an entry's canonical words into its stored sequence.  Tokens
#: never contain whitespace (neither the scanner's word pattern nor the
#: morphology fold can produce it), so a label occurs contiguously in an
#: entry exactly when its space-framed form is a substring of the
#: space-framed sequence.
_SEPARATOR = " "

#: Shell of an empty postings set, charged with each new word key.
_EMPTY_SET_BYTES = 216


def _word_key_cost(word: str) -> int:
    """A word key: its ``_postings`` slot, the key string, a set shell."""
    return estimate_dict_entry(estimate_str(word) + _EMPTY_SET_BYTES)


def _sequence_cost(sequence: str) -> int:
    """An entry: its ``_sequences`` slot, the sequence string, its id."""
    return estimate_dict_entry(estimate_str(sequence) + estimate_int())


class InvalidationIndex:
    """Exact word index over the canonical words of entry text."""

    def __init__(self) -> None:
        # postings: canonical word -> object ids containing it.
        self._postings: dict[str, set[int]] = {}
        # object id -> " w1 w2 ... wn " (its canonical words, space-framed).
        self._sequences: dict[int, str] = {}
        # Incremental byte estimate, updated only in index_object /
        # remove_object (symmetric add/subtract, so it cannot drift);
        # reconciled against a deep sample by the memory accountant.
        self.estimated_bytes = 0

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def index_object(self, object_id: int, words: Sequence[str]) -> None:
        """(Re-)index ``object_id`` under its text's canonical words.

        ``words`` is the entry's scanned word array
        (:meth:`~repro.core.tokenizer.TokenizedText.canonical_words`).
        Re-indexing an indexed entry touches only the postings of the
        words it lost or gained, and nothing when its sequence is
        unchanged.
        """
        sequence = _frame(words)
        old = self._sequences.get(object_id)
        if old == sequence:
            return
        self._sequences[object_id] = sequence
        distinct = set(words)
        delta = _sequence_cost(sequence)
        if old is None:
            gained = distinct
        else:
            kept = set(old.split())
            gained = distinct - kept
            delta -= _sequence_cost(old) + self._unpost(object_id, kept - distinct)
        delta += len(gained) * estimate_set_entry()
        for word in gained:
            posting = self._postings.get(word)
            if posting is None:
                posting = self._postings[word] = set()
                delta += _word_key_cost(word)
            posting.add(object_id)
        self.estimated_bytes += delta

    def remove_object(self, object_id: int) -> None:
        """Drop ``object_id`` from every postings list it appears in."""
        sequence = self._sequences.pop(object_id, None)
        if sequence is None:
            return
        self.estimated_bytes -= _sequence_cost(sequence) + self._unpost(
            object_id, set(sequence.split())
        )

    def _unpost(self, object_id: int, words: set[str]) -> int:
        """Drop ``object_id`` from the postings of ``words``; returns the
        bytes that frees."""
        freed = len(words) * estimate_set_entry()
        for word in words:
            posting = self._postings[word]
            posting.discard(object_id)
            if not posting:
                del self._postings[word]
                freed += _word_key_cost(word)
        return freed

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def invalidate(self, phrase: str | Sequence[str]) -> set[int]:
        """Objects whose text contains ``phrase`` — the exact set.

        Intersects the phrase words' postings starting from the rarest
        word, then keeps the candidates whose stored word sequence holds
        the phrase contiguously.
        """
        words = canonical_words(phrase)
        if not words:
            return set()
        postings: list[set[int]] = []
        for word in set(words):
            posting = self._postings.get(word)
            if posting is None:
                return set()
            postings.append(posting)
        postings.sort(key=len)
        candidates = postings[0].intersection(*postings[1:])
        if len(words) == 1:
            return candidates
        needle = _frame(words)
        sequences = self._sequences
        return {oid for oid in candidates if needle in sequences[oid]}

    def invalidate_many(self, phrases: Iterable[str | Sequence[str]]) -> set[int]:
        """Union of :meth:`invalidate` over several new/changed labels."""
        invalidated: set[int] = set()
        for phrase in phrases:
            invalidated |= self.invalidate(phrase)
        return invalidated

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def object_count(self) -> int:
        return len(self._sequences)

    def memory_roots(self) -> tuple[object, ...]:
        """Live structures for the memory accountant's deep sampler."""
        return (self._postings, self._sequences)


def canonical_words(phrase: str | Sequence[str]) -> tuple[str, ...]:
    """A label as canonical words; a word sequence is taken as given."""
    if isinstance(phrase, str):
        return canonicalize_phrase(phrase)
    return tuple(phrase)


def _frame(words: Sequence[str]) -> str:
    """``words`` joined and framed by the separator: `` w1 w2 ``."""
    return _SEPARATOR + _SEPARATOR.join(words) + _SEPARATOR
