"""Random-candidate disambiguation: the floor baseline.

Shares the NNexus scanner and concept map; when a label has several
defining entries the target is drawn uniformly at random.  Quantifies
how much of steering's precision is real signal versus what chance gets.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.core.concept_map import ConceptMap
from repro.core.matching import find_matches
from repro.core.models import CorpusObject, Link, LinkedDocument
from repro.core.tokenizer import Tokenizer

__all__ = ["RandomPickLinker"]


class RandomPickLinker:
    """Uniform-random target selection among candidates."""

    def __init__(self, objects: Iterable[CorpusObject], seed: int = 0) -> None:
        self._tokenizer = Tokenizer()
        self._concept_map = ConceptMap()
        self._objects: dict[int, CorpusObject] = {}
        self._rng = random.Random(seed)
        for obj in objects:
            self._objects[obj.object_id] = obj
            for phrase in obj.concept_phrases():
                self._concept_map.add_phrase(phrase, obj.object_id)

    def link_object(self, object_id: int) -> LinkedDocument:
        """Link a stored entry with random candidate choice."""
        obj = self._objects[object_id]
        return self.link_text(obj.text, exclude=object_id)

    def link_text(self, text: str, exclude: int | None = None) -> LinkedDocument:
        """Link arbitrary text with random candidate choice."""
        tokenized = self._tokenizer.tokenize(text)
        exclusions = (exclude,) if exclude is not None else ()
        matches = find_matches(tokenized, self._concept_map, exclude_objects=exclusions)
        document = LinkedDocument(source_text=text, matches=matches)
        for match in matches:
            target_id = self._rng.choice(list(match.candidates))
            document.links.append(
                Link(
                    source_phrase=match.surface,
                    target_id=target_id,
                    target_domain=self._objects[target_id].domain,
                    char_start=tokenized.starts[match.start],
                    char_end=tokenized.ends[match.end - 1],
                )
            )
        return document
