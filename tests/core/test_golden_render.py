"""Golden-output test for the full linking pipeline.

The steering fast path (interned ids, LCA tree walks, the signature
cache) must be *behaviour-preserving*: every rendering of the sample
corpus stays byte-for-byte identical to the pre-optimization output.
The checked-in digest below was produced by the original per-pair
string/Dijkstra implementation; any linking or rendering change that
alters even one byte fails here and must update the digest knowingly.
"""

import hashlib

from repro.core.batch import BatchLinker
from repro.core.linker import NNexus
from repro.corpus.planetmath_sample import sample_corpus
from repro.ontology.msc import build_small_msc

#: SHA-256 over every (object, format) rendering of the sample corpus,
#: computed before the steering fast path landed.
GOLDEN_SHA256 = "dea25fd426bab8e66ba27d82d455045bf7bed944df4f67d180e787af2e60d231"

_FORMATS = ("html", "markdown", "annotations")


def build_linker() -> NNexus:
    linker = NNexus(scheme=build_small_msc())
    linker.add_objects(sample_corpus())
    return linker


def corpus_digest(renderings: dict[int, dict[str, str]]) -> str:
    digest = hashlib.sha256()
    for object_id in sorted(renderings):
        for fmt in _FORMATS:
            rendered = renderings[object_id][fmt]
            digest.update(f"{object_id}:{fmt}:".encode() + rendered.encode() + b"\x00")
    return digest.hexdigest()


def test_sample_corpus_renders_match_golden() -> None:
    linker = build_linker()
    renderings = {
        object_id: {fmt: linker.render_object(object_id, fmt=fmt) for fmt in _FORMATS}
        for object_id in linker.object_ids()
    }
    assert corpus_digest(renderings) == GOLDEN_SHA256


def test_process_mode_batch_matches_golden() -> None:
    linker = build_linker()
    renderings: dict[int, dict[str, str]] = {
        object_id: {} for object_id in linker.object_ids()
    }
    for fmt in _FORMATS:
        report = BatchLinker(linker, fmt=fmt, mode="process", workers=2).run()
        for object_id, rendered in report.rendered.items():
            renderings[object_id][fmt] = rendered
    assert corpus_digest(renderings) == GOLDEN_SHA256
