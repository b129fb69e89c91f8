"""Corpus serialization: JSON save/load for corpora and ground truth.

Lets experiments persist a generated corpus (so benchmark runs are
reproducible byte-for-byte) and lets users import their own corpora from
a simple JSON shape::

    {"objects": [{"object_id": 1, "title": "...", "defines": [...],
                  "synonyms": [...], "classes": [...], "text": "...",
                  "domain": "...", "linking_policy": "..."}, ...]}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.core.errors import CorpusFormatError
from repro.core.models import CorpusObject, object_from_payload, object_to_payload
from repro.corpus.generator import (
    GeneratorParams,
    GroundTruthInvocation,
    SyntheticCorpus,
)
from repro.ontology.scheme import ClassificationScheme

__all__ = [
    "save_corpus",
    "load_corpus",
    "save_synthetic_corpus",
    "load_synthetic_corpus",
]


#: What bad bytes, bad JSON or a bad entry shape raise while loading
#: (``UnicodeDecodeError`` and ``JSONDecodeError`` are ``ValueError``s).
_MALFORMED = (KeyError, OverflowError, RecursionError, TypeError, ValueError)


def save_corpus(objects: Iterable[CorpusObject], path: str | Path) -> None:
    """Write objects to a JSON corpus file."""
    payload = {"objects": [object_to_payload(obj) for obj in objects]}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_corpus(path: str | Path) -> list[CorpusObject]:
    """Read objects from a JSON corpus file.

    A file that cannot be read raises ``OSError``; one that is not UTF-8
    JSON of the shape above raises :class:`CorpusFormatError`, and no
    other error.
    """
    raw = Path(path).read_bytes()
    try:
        payload = json.loads(raw.decode("utf-8"))
        entries = payload.get("objects", []) if isinstance(payload, dict) else None
        if not isinstance(entries, list):
            raise CorpusFormatError(f'{path}: expected {{"objects": [...]}}')
        return [object_from_payload(entry) for entry in entries]
    except _MALFORMED as exc:
        raise CorpusFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def save_synthetic_corpus(corpus: SyntheticCorpus, path: str | Path) -> None:
    """Persist a generated corpus including ground truth and scheme."""
    payload = {
        "objects": [object_to_payload(obj) for obj in corpus.objects],
        "ground_truth": {
            str(object_id): [
                {
                    "phrase": inv.phrase,
                    "canonical": list(inv.canonical),
                    "target_id": inv.target_id,
                    "kind": inv.kind,
                }
                for inv in invocations
            ]
            for object_id, invocations in corpus.ground_truth.items()
        },
        "scheme": corpus.scheme.to_dict(),
        "common_word_objects": corpus.common_word_objects,
        "params": corpus.params.__dict__,
        "label_count": corpus.label_count,
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_synthetic_corpus(path: str | Path) -> SyntheticCorpus:
    """Read a generated corpus incl. ground truth and scheme."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    ground_truth = {
        int(object_id): [
            GroundTruthInvocation(
                phrase=str(inv["phrase"]),
                canonical=tuple(inv["canonical"]),
                target_id=inv["target_id"],
                kind=str(inv["kind"]),
            )
            for inv in invocations
        ]
        for object_id, invocations in payload["ground_truth"].items()
    }
    return SyntheticCorpus(
        objects=[object_from_payload(entry) for entry in payload["objects"]],
        ground_truth=ground_truth,
        scheme=ClassificationScheme.from_dict(payload["scheme"]),
        common_word_objects={
            str(word): int(oid) for word, oid in payload["common_word_objects"].items()
        },
        params=GeneratorParams(**payload["params"]),
        label_count=int(payload.get("label_count", 0)),
    )
