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
from repro.core.models import CorpusObject
from repro.corpus.generator import (
    GeneratorParams,
    GroundTruthInvocation,
    SyntheticCorpus,
)
from repro.ontology.scheme import ClassificationScheme

__all__ = [
    "objects_to_dicts",
    "objects_from_dicts",
    "save_corpus",
    "load_corpus",
    "save_synthetic_corpus",
    "load_synthetic_corpus",
]


#: What bad bytes, bad JSON or a bad entry shape raise while loading
#: (``UnicodeDecodeError`` and ``JSONDecodeError`` are ``ValueError``s).
_MALFORMED = (KeyError, OverflowError, RecursionError, TypeError, ValueError)


def objects_to_dicts(objects: Iterable[CorpusObject]) -> list[dict[str, object]]:
    return [
        {
            "object_id": obj.object_id,
            "title": obj.title,
            "defines": list(obj.defines),
            "synonyms": list(obj.synonyms),
            "classes": list(obj.classes),
            "text": obj.text,
            "domain": obj.domain,
            "linking_policy": obj.linking_policy,
        }
        for obj in objects
    ]


def objects_from_dicts(payload: Iterable[dict[str, object]]) -> list[CorpusObject]:
    objects = []
    for entry in payload:
        objects.append(
            CorpusObject(
                object_id=int(entry["object_id"]),  # type: ignore[arg-type]
                title=str(entry.get("title", "")),
                defines=[str(x) for x in entry.get("defines", [])],  # type: ignore[union-attr]
                synonyms=[str(x) for x in entry.get("synonyms", [])],  # type: ignore[union-attr]
                classes=[str(x) for x in entry.get("classes", [])],  # type: ignore[union-attr]
                text=str(entry.get("text", "")),
                domain=str(entry.get("domain", "default")),
                linking_policy=str(entry.get("linking_policy", "")),
            )
        )
    return objects


def save_corpus(objects: Iterable[CorpusObject], path: str | Path) -> None:
    """Write objects to a JSON corpus file."""
    payload = {"objects": objects_to_dicts(objects)}
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
        return objects_from_dicts(entries)
    except _MALFORMED as exc:
        raise CorpusFormatError(f"{path}: {type(exc).__name__}: {exc}") from exc


def save_synthetic_corpus(corpus: SyntheticCorpus, path: str | Path) -> None:
    """Persist a generated corpus including ground truth and scheme."""
    payload = {
        "objects": objects_to_dicts(corpus.objects),
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
        objects=objects_from_dicts(payload["objects"]),
        ground_truth=ground_truth,
        scheme=ClassificationScheme.from_dict(payload["scheme"]),
        common_word_objects={
            str(word): int(oid) for word, oid in payload["common_word_objects"].items()
        },
        params=GeneratorParams(**payload["params"]),
        label_count=int(payload.get("label_count", 0)),
    )
