"""The concept map: NNexus's chained-hash concept-label index.

Fig. 3 of the paper: a fast-access chained-hash structure filled with all
the concept labels of all included corpora.  Keys are the *first word* of
each (canonicalized) concept label; each key chains to the full labels
starting with that word, so scanning an entry is a single pass over its
token array with O(1) first-word probes.

For each label the map records every object that defines it — homonymous
labels therefore chain multiple candidate targets, which classification
steering later disambiguates.

The map is memory-resident, as in the paper.  It is rebuilt from the
stored objects' ``defines`` on every cold start, so no backend persists
it separately.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.core.models import ConceptLabel
from repro.core.morphology import canonicalize_phrase
from repro.obs.memory import (
    estimate_container,
    estimate_dict_entry,
    estimate_object,
    estimate_set_entry,
    estimate_str,
    estimate_strs,
)

__all__ = ["ConceptChain", "ConceptMap"]

_T = TypeVar("_T")

# -- incremental byte-accounting costs (memory accountant) -------------
#
# Word strings are shared between labels (and with the tuples that hold
# them), so charging them per label modestly overstates versus the
# deduplicating deep sampler — acceptable for a capacity signal, and
# bounded because per-label container overhead dominates.

# A ConceptChain shell (instance + labels dict + by_length list +
# _length_counts dict) plus its slot in the owning chain dict.
_CHAIN_COST = estimate_object(3) + 64 + 56 + 64 + estimate_dict_entry()

# An empty owners set is surprisingly heavy in CPython (~216 bytes).
_OWNERS_SET_SHELL = 216


def _label_cost(words: tuple[str, ...]) -> int:
    """A new label key: tuple + word payloads + owners set + dict slots."""
    return (
        estimate_container(len(words))
        + estimate_strs(words)
        + _OWNERS_SET_SHELL
        + estimate_dict_entry()  # chain.labels slot
        + estimate_dict_entry()  # by_length/_length_counts amortized
    )


@dataclass
class ConceptChain:
    """All concept labels sharing a first word, longest first.

    ``labels`` maps the canonical word tuple to the set of defining object
    ids; ``by_length`` caches the distinct label lengths in descending
    order so the matcher can try the longest phrase first (Section 2.2:
    "NNexus always performs the longest phrase match").  The list is
    maintained incrementally as labels are checked in and out — the
    matcher never rebuilds it per probe.
    """

    labels: dict[tuple[str, ...], set[int]] = field(default_factory=dict)
    by_length: list[int] = field(default_factory=list)
    # How many distinct labels currently have each length; drives the
    # incremental maintenance of ``by_length``.
    _length_counts: dict[int, int] = field(default_factory=dict, repr=False)

    def lengths_descending(self) -> list[int]:
        return self.by_length

    def longest(self) -> int:
        """Length of the longest label in this chain (0 when empty)."""
        return self.by_length[0] if self.by_length else 0

    # ------------------------------------------------------------------
    # Incremental maintenance (called by ConceptMap only)
    # ------------------------------------------------------------------
    def _note_label_added(self, length: int) -> None:
        count = self._length_counts.get(length, 0)
        self._length_counts[length] = count + 1
        if count == 0:
            bisect.insort(self.by_length, length, key=lambda value: -value)

    def _note_label_removed(self, length: int) -> None:
        count = self._length_counts.get(length)
        if count is None:
            # Silently ignoring an underflow used to leave
            # ``_length_counts``/``by_length`` free to drift out of sync
            # with ``labels``; the invariant is now explicit.
            raise ValueError(
                f"no label of length {length} is checked into this chain"
            )
        if count > 1:
            self._length_counts[length] = count - 1
        else:
            del self._length_counts[length]
            self.by_length.remove(length)


class ConceptMap:
    """Chained-hash index of concept labels -> defining objects.

    The map stores canonical labels only; callers canonicalize through
    :func:`repro.core.morphology.canonicalize_phrase` (done automatically
    by :meth:`add_phrase`).
    """

    def __init__(self) -> None:
        self._chains: dict[str, ConceptChain] = {}
        # Reverse index: object id -> canonical labels it was checked in
        # under, so objects can be removed/updated in O(own labels).
        self._object_labels: dict[int, set[tuple[str, ...]]] = defaultdict(set)
        # Incremental byte estimate of the chains, maintained on
        # mutation only.
        self._est_bytes = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_phrase(self, phrase: str, object_id: int) -> tuple[str, ...] | None:
        """Check a raw concept label into the map for ``object_id``.

        Returns the canonical word tuple actually indexed, or ``None``
        when the phrase canonicalizes to nothing (e.g. pure punctuation).
        """
        words = canonicalize_phrase(phrase)
        if not words:
            return None
        self.add_canonical(words, object_id)
        return words

    def add_canonical(self, words: tuple[str, ...], object_id: int) -> None:
        """Index an already-canonical label for ``object_id``."""
        chain = self._chains.get(words[0])
        if chain is None:
            chain = self._chains[words[0]] = ConceptChain()
            self._est_bytes += _CHAIN_COST + estimate_str(words[0])
        owners = chain.labels.get(words)
        if owners is None:
            chain.labels[words] = {object_id}
            chain._note_label_added(len(words))
            self._est_bytes += _label_cost(words) + estimate_set_entry()
        elif object_id not in owners:
            owners.add(object_id)
            self._est_bytes += estimate_set_entry()
        reverse = self._object_labels[object_id]
        if words not in reverse:
            reverse.add(words)
            self._est_bytes += estimate_set_entry()

    def remove_object(self, object_id: int) -> set[tuple[str, ...]]:
        """Drop every label registered by ``object_id``.

        Returns the canonical labels that no longer have *any* defining
        object (the set of concepts that vanished from the corpus).
        Note that cache invalidation must consider *every* label the
        object defined, not just the vanished ones — a homonymous label
        kept alive by another owner still changes link targets; see
        ``NNexus.remove_object``.
        """
        removed_entirely: set[tuple[str, ...]] = set()
        for words in self._object_labels.pop(object_id, set()):
            self._est_bytes -= estimate_set_entry()  # the reverse-index slot
            chain = self._chains.get(words[0])
            if chain is None:
                continue
            owners = chain.labels.get(words)
            if owners is None:
                continue
            if object_id in owners:
                owners.discard(object_id)
                self._est_bytes -= estimate_set_entry()
            if not owners:
                del chain.labels[words]
                chain._note_label_removed(len(words))
                removed_entirely.add(words)
                self._est_bytes -= _label_cost(words)
            if not chain.labels:
                del self._chains[words[0]]
                self._est_bytes -= _CHAIN_COST + estimate_str(words[0])
        return removed_entirely

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def chain_for(self, first_word: str) -> ConceptChain | None:
        """The chain of labels starting with ``first_word``, if any."""
        return self._chains.get(first_word)

    def head_positions(self, words: Sequence[str]) -> list[int]:
        """Positions in ``words`` whose word heads a chain, ascending.

        These are the only positions where :meth:`probe_longest` can
        find a label: one first-word hash probe per word, in one pass.
        """
        chains = self._chains
        return [position for position, word in enumerate(words) if word in chains]

    def probe_longest(
        self,
        words: Sequence[str],
        position: int,
        accept: Callable[[tuple[str, ...], set[int]], _T | None],
    ) -> _T | None:
        """Longest-first probe at ``position`` — the one scan-step loop.

        Implements the scan step of Section 2.2 once for every caller:
        probe the chained hash with the word at ``position``; if it
        heads any indexed label, try labels longest-first (over the
        chain's precomputed descending length list) and hand each
        ``(label_words, owners)`` hit to ``accept``.  The first
        non-``None`` result wins; returning ``None`` from ``accept``
        moves on to the next-shorter label (how the matcher skips
        already-linked or fully-excluded labels).
        """
        chain = self._chains.get(words[position])
        if chain is None:
            return None
        remaining = len(words) - position
        labels = chain.labels
        for length in chain.by_length:
            if length > remaining:
                continue
            label_words = tuple(words[position : position + length])
            owners = labels.get(label_words)
            if not owners:
                continue
            result = accept(label_words, owners)
            if result is not None:
                return result
        return None

    def longest_match(
        self, words: Sequence[str], position: int
    ) -> tuple[tuple[str, ...], frozenset[int]] | None:
        """Longest concept label matching ``words`` at ``position``."""
        return self.probe_longest(
            words,
            position,
            lambda label_words, owners: (label_words, frozenset(owners)),
        )

    def owners(self, phrase: str) -> frozenset[int]:
        """Objects defining ``phrase`` (canonicalized before lookup)."""
        words = canonicalize_phrase(phrase)
        if not words:
            return frozenset()
        chain = self._chains.get(words[0])
        if chain is None:
            return frozenset()
        return frozenset(chain.labels.get(words, set()))

    def labels_for_object(self, object_id: int) -> frozenset[tuple[str, ...]]:
        """Canonical labels currently registered by ``object_id``."""
        return frozenset(self._object_labels.get(object_id, set()))

    def concept_labels(self) -> Iterator[ConceptLabel]:
        """Iterate every (label, object) pair in the map."""
        for chain in self._chains.values():
            for words, owners in chain.labels.items():
                for object_id in owners:
                    yield ConceptLabel(words=words, raw=" ".join(words), object_id=object_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, phrase: str) -> bool:
        return bool(self.owners(phrase))

    def __len__(self) -> int:
        """Number of distinct canonical labels indexed."""
        return sum(len(chain.labels) for chain in self._chains.values())

    @property
    def first_word_count(self) -> int:
        """Number of hash buckets (distinct first words)."""
        return len(self._chains)

    @property
    def object_count(self) -> int:
        return len(self._object_labels)

    def estimated_bytes(self) -> int:
        """Incremental byte estimate of the resident label structures."""
        return self._est_bytes

    def memory_roots(self) -> tuple[object, ...]:
        """Live structures for the memory accountant's deep sampler."""
        return (self._chains, self._object_labels)

    def stats(self) -> dict[str, int | float]:
        """Index-shape statistics (useful in scalability experiments)."""
        chain_sizes = [len(chain.labels) for chain in self._chains.values()]
        label_count = sum(chain_sizes)
        return {
            "labels": label_count,
            "buckets": len(chain_sizes),
            "objects": len(self._object_labels),
            "max_chain": max(chain_sizes, default=0),
            "mean_chain": (label_count / len(chain_sizes)) if chain_sizes else 0.0,
            "max_label_len": max(
                (chain.longest() for chain in self._chains.values()), default=0
            ),
        }

    def bulk_load(self, phrases: Iterable[tuple[str, int]]) -> None:
        """Index many ``(phrase, object_id)`` pairs."""
        for phrase, object_id in phrases:
            self.add_phrase(phrase, object_id)
