"""The invalidation index (Section 2.5, Fig. 6).

When a new concept is defined (or a concept label changes), every entry
that *might* invoke it must be re-linked.  Rescanning the whole corpus on
each update is the O(n²) trap the paper warns about; instead NNexus keeps
an inverted index over entry text and re-links only the entries it names.

The paper's index is *adaptive*: it keys single words and, once they are
frequent enough, phrases, and answers a label with the postings of its
longest indexed prefix — a superset of the entries containing the label.
This module keeps two smaller structures and answers exactly:

* ``word -> bitmap`` postings: one Python ``int`` per word whose bit *s*
  is set when the entry in slot *s* contains the word;
* each entry's canonical word sequence, stored once as one string.

Bits are dense **slots**, not object ids.  Indexing a new entry gives it
a slot (a freed one if any, else the next one) and records
``object id -> slot`` and ``slot -> object id``; removing it frees the
slot.  A bitmap is therefore only as wide as the peak number of live
entries, whatever the id values are (an id of ``10**12`` costs what an
id of 3 does).  A re-index XORs the entry's bit into the postings of the
words its old and new sequences do not share, so it touches only the
word difference, and nothing when the sequence is unchanged; a posting
that reaches 0 is deleted.

:meth:`InvalidationIndex.invalidate` ANDs the label words' bitmaps,
walks the set bits to ids, then keeps the candidates whose sequence holds
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

from itertools import compress
from typing import Iterable, Sequence

from repro.core.morphology import canonicalize_phrase
from repro.obs.memory import (
    estimate_container,
    estimate_dict_entry,
    estimate_int,
    estimate_str,
)

__all__ = ["InvalidationIndex", "canonical_words"]

#: Joins an entry's canonical words into its stored sequence.  Tokens
#: never contain whitespace (neither the scanner's word pattern nor the
#: morphology fold can produce it), so a label occurs contiguously in an
#: entry exactly when its space-framed form is a substring of the
#: space-framed sequence.
_SEPARATOR = " "

#: A bitmap with more than one set bit per this many bits of width is
#: decoded in one C pass over its binary digits; a sparser one bit by
#: bit, each step costing time in proportion to the width.
_DENSE_WIDTH_PER_BIT = 40
#: Maps a bitmap's binary digits to the selector bytes of ``compress``.
_DIGIT_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")

#: A positive int is a 24-byte header plus one 4-byte digit per 30 bits
#: (64-bit CPython 3.10-3.12, what ``sys.getsizeof`` reports).
_INT_HEADER = 24
_DIGIT_BYTES = 4
_DIGIT_BITS = 30

#: A slot: its ``_ids`` reference and its boxed slot number.
_SLOT_BYTES = estimate_container(1, base=0) + estimate_int()
#: A live entry's ``_slot_of`` item (the id is charged with its sequence).
_SLOT_OF_BYTES = estimate_dict_entry()
#: A freed slot's ``_free`` reference.
_FREE_BYTES = estimate_container(1, base=0)


def _digits(bits: int) -> int:
    """The 30-bit digits a positive int is stored in."""
    return (bits.bit_length() + _DIGIT_BITS - 1) // _DIGIT_BITS


def _bitmap_cost(bits: int) -> int:
    """``sys.getsizeof`` of a positive bitmap, from its width alone."""
    return _INT_HEADER + _DIGIT_BYTES * _digits(bits)


def _word_key_cost(word: str) -> int:
    """A word key: its ``_postings`` slot and the key string."""
    return estimate_dict_entry(estimate_str(word))


def _sequence_cost(sequence: str) -> int:
    """An entry: its ``_sequences`` slot, the sequence string, its id."""
    return estimate_dict_entry(estimate_str(sequence) + estimate_int())


class InvalidationIndex:
    """Exact word index over the canonical words of entry text."""

    def __init__(self) -> None:
        # postings: canonical word -> bitmap over the slots containing it.
        self._postings: dict[str, int] = {}
        # object id -> " w1 w2 ... wn " (its canonical words, space-framed).
        self._sequences: dict[int, str] = {}
        # object id -> slot, and slot -> object id (None while free).
        self._slot_of: dict[int, int] = {}
        self._ids: list[int | None] = []
        # Freed slots, reused before the slot table grows.
        self._free: list[int] = []
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
        delta = _sequence_cost(sequence)
        if old is None:
            slot, delta_slot = self._take_slot(object_id)
            delta += delta_slot
            changed = set(words)
        else:
            slot = self._slot_of[object_id]
            delta -= _sequence_cost(old)
            changed = set(words).symmetric_difference(old.split())
        self.estimated_bytes += delta + self._toggle(changed, 1 << slot)

    def remove_object(self, object_id: int) -> None:
        """Drop ``object_id`` from every postings list it appears in."""
        sequence = self._sequences.pop(object_id, None)
        if sequence is None:
            return
        slot = self._slot_of.pop(object_id)
        delta = self._toggle(set(sequence.split()), 1 << slot)
        delta -= _sequence_cost(sequence) + _SLOT_OF_BYTES
        if self._sequences:
            self._ids[slot] = None
            self._free.append(slot)
            delta += _FREE_BYTES
        else:
            # The last entry left: every slot is free, so start over.
            delta -= len(self._ids) * _SLOT_BYTES + len(self._free) * _FREE_BYTES
            self._ids.clear()
            self._free.clear()
        self.estimated_bytes += delta

    def _take_slot(self, object_id: int) -> tuple[int, int]:
        """A slot for a new entry, and the bytes it adds."""
        delta = _SLOT_OF_BYTES
        if self._free:
            slot = self._free.pop()
            self._ids[slot] = object_id
            delta -= _FREE_BYTES
        else:
            slot = len(self._ids)
            self._ids.append(object_id)
            delta += _SLOT_BYTES
        self._slot_of[object_id] = slot
        return slot, delta

    def _toggle(self, words: Iterable[str], bit: int) -> int:
        """XOR ``bit`` into the postings of ``words``, deleting a posting
        that reaches 0; returns the bytes that adds (negative if freed).

        A bitmap changes size only when it crosses ``floor``, the least
        int as many digits wide as ``bit``, so only then is its width
        read.
        """
        postings = self._postings
        delta = 0
        top = _digits(bit)
        floor = 1 << (_DIGIT_BITS * (top - 1))
        grown = 0  # digits gained by the bitmaps that crossed ``floor``
        for word in words:
            old = postings.get(word)
            if old is None:
                postings[word] = bit
                delta += _word_key_cost(word) + _bitmap_cost(bit)
            elif old < bit:
                postings[word] = old | bit
                if old < floor:
                    grown += top - _digits(old)
            else:
                new = old ^ bit
                if not new:
                    del postings[word]
                    delta -= _word_key_cost(word) + _bitmap_cost(old)
                    continue
                postings[word] = new
                if new < floor:
                    grown -= top - _digits(new)
        return delta + _DIGIT_BYTES * grown

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def invalidate(self, phrase: str | Sequence[str]) -> set[int]:
        """Objects whose text contains ``phrase`` — the exact set.

        ANDs the phrase words' bitmaps, then keeps the candidates whose
        stored word sequence holds the phrase contiguously.
        """
        words = canonical_words(phrase)
        if not words:
            return set()
        postings = self._postings
        bits = -1
        for word in set(words):
            posting = postings.get(word)
            if posting is None:
                return set()
            bits &= posting
        candidates = self._decode(bits)
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

    def _decode(self, bits: int) -> set[int]:
        """The object ids of the slots set in ``bits``."""
        ids = self._ids
        if bits.bit_count() * _DENSE_WIDTH_PER_BIT > bits.bit_length():
            digits = format(bits, "b")[::-1].encode().translate(_DIGIT_SELECTORS)
            return set(compress(ids, digits))
        found: set[int] = set()
        while bits:
            low = bits & -bits
            found.add(ids[low.bit_length() - 1])
            bits ^= low
        return found

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def object_count(self) -> int:
        return len(self._sequences)

    @property
    def slot_count(self) -> int:
        """Width of the slot table: the peak number of live entries since
        the index was last empty."""
        return len(self._ids)

    def postings(self) -> dict[str, set[int]]:
        """Every word's postings decoded to object ids (for checks; it
        walks every bitmap)."""
        return {word: self._decode(bits) for word, bits in self._postings.items()}

    def memory_roots(self) -> tuple[object, ...]:
        """Live structures for the memory accountant's deep sampler."""
        return (self._postings, self._sequences, self._slot_of, self._ids, self._free)


def canonical_words(phrase: str | Sequence[str]) -> tuple[str, ...]:
    """A label as canonical words; a word sequence is taken as given."""
    if isinstance(phrase, str):
        return canonicalize_phrase(phrase)
    return tuple(phrase)


def _frame(words: Sequence[str]) -> str:
    """``words`` joined and framed by the separator: `` w1 w2 ``."""
    return _SEPARATOR + _SEPARATOR.join(words) + _SEPARATOR
