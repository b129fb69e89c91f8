"""A TF-IDF information-retrieval baseline for link-target selection.

Section 1.2 argues that classic IR ranking is not directly applicable to
invocation linking: "the entries that define a particular concept may not
contain the actual concept label", so term-frequency evidence for the
label is missing exactly where it matters.  This module implements the
straightforward IR adaptation anyway — rank candidate targets by cosine
similarity between the *source entry text* and each *candidate entry
text* under TF-IDF weighting — so the experiments can quantify the
paper's claim against ground truth.

The vector machinery (vocabulary, idf, sparse cosine) is implemented
here from scratch; only Python stdlib is used.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

from repro.core.concept_map import ConceptMap
from repro.core.matching import find_matches
from repro.core.models import CorpusObject, Link, LinkedDocument
from repro.core.tokenizer import Tokenizer

__all__ = ["TfIdfIndex", "TfIdfLinker"]


class TfIdfIndex:
    """TF-IDF document vectors with cosine similarity."""

    def __init__(self) -> None:
        self._tokenizer = Tokenizer()
        self._doc_vectors: dict[int, dict[str, float]] = {}
        self._doc_norms: dict[int, float] = {}
        self._document_frequency: Counter[str] = Counter()
        self._raw_terms: dict[int, Counter[str]] = {}
        self._dirty = True

    def add_document(self, doc_id: int, text: str) -> None:
        """Index (or replace) one document's term counts."""
        terms = Counter(self._tokenizer.tokenize(text).canonical_words())
        if doc_id in self._raw_terms:
            self.remove_document(doc_id)
        self._raw_terms[doc_id] = terms
        for term in terms:
            self._document_frequency[term] += 1
        self._dirty = True

    def remove_document(self, doc_id: int) -> None:
        """Drop a document from the index."""
        terms = self._raw_terms.pop(doc_id, None)
        if terms is None:
            return
        for term in terms:
            self._document_frequency[term] -= 1
            if self._document_frequency[term] <= 0:
                del self._document_frequency[term]
        self._dirty = True

    def _rebuild(self) -> None:
        total_docs = max(len(self._raw_terms), 1)
        self._doc_vectors = {}
        self._doc_norms = {}
        for doc_id, terms in self._raw_terms.items():
            vector: dict[str, float] = {}
            for term, frequency in terms.items():
                idf = math.log(total_docs / (1 + self._document_frequency[term])) + 1.0
                vector[term] = (1.0 + math.log(frequency)) * idf
            norm = math.sqrt(sum(weight * weight for weight in vector.values()))
            self._doc_vectors[doc_id] = vector
            self._doc_norms[doc_id] = norm or 1.0
        self._dirty = False

    def vector(self, doc_id: int) -> Mapping[str, float]:
        """The TF-IDF weight vector of a document."""
        if self._dirty:
            self._rebuild()
        return self._doc_vectors.get(doc_id, {})

    def similarity(self, doc_a: int, doc_b: int) -> float:
        """Cosine similarity of two indexed documents."""
        if self._dirty:
            self._rebuild()
        vector_a = self._doc_vectors.get(doc_a)
        vector_b = self._doc_vectors.get(doc_b)
        if not vector_a or not vector_b:
            return 0.0
        if len(vector_b) < len(vector_a):
            vector_a, vector_b = vector_b, vector_a
            doc_a, doc_b = doc_b, doc_a
        dot = sum(
            weight * vector_b.get(term, 0.0) for term, weight in vector_a.items()
        )
        return dot / (self._doc_norms[doc_a] * self._doc_norms[doc_b])

    def __len__(self) -> int:
        return len(self._raw_terms)


class TfIdfLinker:
    """Invocation linker that disambiguates candidates by TF-IDF cosine.

    Link-source identification is shared with NNexus (same concept map
    and scanner); only target selection differs: among the candidate
    definers of a matched label, pick the entry whose text is most
    similar to the source entry's text.
    """

    def __init__(self, objects: Iterable[CorpusObject]) -> None:
        self._tokenizer = Tokenizer()
        self._concept_map = ConceptMap()
        self._objects: dict[int, CorpusObject] = {}
        self.index = TfIdfIndex()
        for obj in objects:
            self._objects[obj.object_id] = obj
            for phrase in obj.concept_phrases():
                self._concept_map.add_phrase(phrase, obj.object_id)
            self.index.add_document(obj.object_id, obj.text)

    def link_object(self, object_id: int) -> LinkedDocument:
        """Link a stored entry (self excluded)."""
        obj = self._objects[object_id]
        return self.link_text(obj.text, source_id=object_id)

    def link_text(self, text: str, source_id: int | None = None) -> LinkedDocument:
        """Link arbitrary text; TF-IDF disambiguates candidates."""
        tokenized = self._tokenizer.tokenize(text)
        exclude = (source_id,) if source_id is not None else ()
        matches = find_matches(tokenized, self._concept_map, exclude_objects=exclude)
        document = LinkedDocument(source_text=text, matches=matches)
        for match in matches:
            target_id = self._best_candidate(match.candidates, source_id)
            if target_id is None:
                continue
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

    def _best_candidate(
        self, candidates: Sequence[int], source_id: int | None
    ) -> int | None:
        if not candidates:
            return None
        if source_id is None or len(candidates) == 1:
            return candidates[0]
        return max(
            candidates,
            key=lambda cid: (self.index.similarity(source_id, cid), -cid),
        )
