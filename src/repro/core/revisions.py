"""Entry revision history for collaborative editing.

A collaborative corpus sees "rapid and continual updates" (§1): entries
are edited, rolled back, and vandalized.  This module wraps a linker
with Noosphere-style revision bookkeeping:

* every save creates an immutable :class:`Revision` (author, comment,
  timestamp counter, full object snapshot);
* a save that changes the entry goes through the linker's one write
  path (``add_object`` / ``update_object``), which invalidates and
  journals it; a save equal to the stored entry is a no-op.  The title
  is a concept label, so even a title typo fix re-links the entries
  that contain the old or the new title;
* any revision can be restored, which is itself recorded as a revision;
* a word-level diff between revisions supports review.

The history is in-memory by analogy with the cache table; no
revision is written to durable storage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from difflib import SequenceMatcher
from typing import Iterable

from repro.core.errors import NNexusError, UnknownObjectError
from repro.core.linker import NNexus
from repro.core.models import CorpusObject

__all__ = ["Revision", "RevisionError", "RevisionedCorpus", "diff_words"]


class RevisionError(NNexusError):
    """Invalid revision operation (unknown revision, empty history...)."""


@dataclass(frozen=True)
class Revision:
    """One immutable snapshot of an entry."""

    number: int
    object_id: int
    author: str
    comment: str
    snapshot: CorpusObject
    relinked: bool
    invalidated: tuple[int, ...] = ()


def diff_words(before: str, after: str) -> list[tuple[str, str]]:
    """Word-level diff: ``[(op, words)]`` with op in {=, -, +}."""
    before_words = before.split()
    after_words = after.split()
    matcher = SequenceMatcher(a=before_words, b=after_words, autojunk=False)
    output: list[tuple[str, str]] = []
    for op, a_start, a_end, b_start, b_end in matcher.get_opcodes():
        if op == "equal":
            output.append(("=", " ".join(before_words[a_start:a_end])))
        elif op == "delete":
            output.append(("-", " ".join(before_words[a_start:a_end])))
        elif op == "insert":
            output.append(("+", " ".join(after_words[b_start:b_end])))
        else:  # replace
            output.append(("-", " ".join(before_words[a_start:a_end])))
            output.append(("+", " ".join(after_words[b_start:b_end])))
    return output


class RevisionedCorpus:
    """A linker plus full edit history per entry."""

    def __init__(self, linker: NNexus) -> None:
        self._linker = linker
        self._history: dict[int, list[Revision]] = {}
        self._next_revision = 1

    @property
    def linker(self) -> NNexus:
        return self._linker

    # ------------------------------------------------------------------
    # Editing
    # ------------------------------------------------------------------
    def save(
        self, obj: CorpusObject, author: str = "anonymous", comment: str = ""
    ) -> Revision:
        """Create or update an entry, recording a revision.

        A save equal to the stored entry changes nothing and is recorded
        with ``relinked=False``; any other save is an ``add_object`` or
        ``update_object``.
        """
        snapshot = replace(
            obj,
            defines=list(obj.defines),
            synonyms=list(obj.synonyms),
            classes=list(obj.classes),
        )
        invalidated: tuple[int, ...] = ()
        relinked = True
        if not self._linker.has_object(obj.object_id):
            invalidated = tuple(sorted(self._linker.add_object(obj)))
        elif self._linker.get_object(obj.object_id) != snapshot:
            invalidated = tuple(sorted(self._linker.update_object(obj)))
        else:
            relinked = False
        revision = Revision(
            number=self._next_revision,
            object_id=obj.object_id,
            author=author,
            comment=comment,
            snapshot=snapshot,
            relinked=relinked,
            invalidated=invalidated,
        )
        self._next_revision += 1
        self._history.setdefault(obj.object_id, []).append(revision)
        return revision

    def restore(
        self, object_id: int, revision_number: int, author: str = "anonymous"
    ) -> Revision:
        """Roll an entry back to an earlier revision (recorded as new)."""
        target = self.revision(object_id, revision_number)
        return self.save(
            replace(
                target.snapshot,
                defines=list(target.snapshot.defines),
                synonyms=list(target.snapshot.synonyms),
                classes=list(target.snapshot.classes),
            ),
            author=author,
            comment=f"restore revision {revision_number}",
        )

    # ------------------------------------------------------------------
    # History
    # ------------------------------------------------------------------
    def history(self, object_id: int) -> list[Revision]:
        """All revisions of an entry, oldest first."""
        revisions = self._history.get(object_id)
        if not revisions:
            raise UnknownObjectError(object_id)
        return list(revisions)

    def revision(self, object_id: int, revision_number: int) -> Revision:
        """A specific revision by number; raises RevisionError."""
        for revision in self.history(object_id):
            if revision.number == revision_number:
                return revision
        raise RevisionError(
            f"object {object_id} has no revision {revision_number}"
        )

    def latest(self, object_id: int) -> Revision:
        """The most recent revision of an entry."""
        return self.history(object_id)[-1]

    def diff(
        self, object_id: int, old_number: int, new_number: int
    ) -> list[tuple[str, str]]:
        """Word diff of the entry text between two revisions."""
        old = self.revision(object_id, old_number)
        new = self.revision(object_id, new_number)
        return diff_words(old.snapshot.text, new.snapshot.text)

    def authors(self, object_id: int) -> list[str]:
        """Distinct contributors in first-contribution order."""
        seen: list[str] = []
        for revision in self.history(object_id):
            if revision.author not in seen:
                seen.append(revision.author)
        return seen

    def relink_churn(self, object_ids: Iterable[int] | None = None) -> dict[str, int]:
        """How many saves changed the entry vs. were no-ops."""
        ids = list(object_ids) if object_ids is not None else list(self._history)
        relinked = free = 0
        for object_id in ids:
            for revision in self._history.get(object_id, []):
                if revision.relinked:
                    relinked += 1
                else:
                    free += 1
        return {"relinked": relinked, "free": free}
