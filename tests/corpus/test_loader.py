"""Tests for corpus serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import CorpusFormatError
from repro.core.models import CorpusObject
from repro.corpus.generator import GeneratorParams, generate_corpus
from repro.corpus.loader import (
    load_corpus,
    load_synthetic_corpus,
    save_corpus,
    save_synthetic_corpus,
)
from repro.corpus.planetmath_sample import sample_corpus


class TestPlainCorpusRoundTrip:
    def test_round_trip(self, tmp_path) -> None:
        path = tmp_path / "corpus.json"
        original = sample_corpus()
        save_corpus(original, path)
        loaded = load_corpus(path)
        assert loaded == original

    def test_defaults_filled(self, tmp_path) -> None:
        path = tmp_path / "c.json"
        path.write_text('{"objects": [{"object_id": 1}]}')
        loaded = load_corpus(path)
        assert loaded[0].domain == "default"
        assert loaded[0].defines == []


FIELDS = (
    "object_id", "title", "defines", "synonyms", "classes", "text", "domain",
    "linking_policy",
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ENTRIES = st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=len(FIELDS))
CORPUS_SHAPED = (
    st.fixed_dictionaries({"objects": st.lists(ENTRIES | JSON_VALUES, max_size=4)})
    | JSON_VALUES
).map(lambda value: json.dumps(value).encode("utf-8"))


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "corpus.json"


class TestMalformedCorpus:
    @pytest.mark.parametrize(
        "payload",
        [b"[]", b'{"objects":[{"title":"x"}]}', b'{"objects":[{"object_id":"a"}]}',
         b'{"objects": 3}', b"\xff\xfe", b"{", b'{"objects":[{"object_id":1e400}]}',
         pytest.param(b"[" * 100_000, id="nested-too-deep")],
    )
    def test_reported_as_corpus_format_error(self, corpus_path, payload) -> None:
        corpus_path.write_bytes(payload)
        with pytest.raises(CorpusFormatError, match="corpus.json"):
            load_corpus(corpus_path)

    def test_missing_file_is_still_an_os_error(self, tmp_path) -> None:
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.json")

    @settings(max_examples=300, deadline=None)
    @given(payload=st.binary(max_size=64) | CORPUS_SHAPED)
    def test_only_corpus_format_error_escapes(self, corpus_path, payload) -> None:
        corpus_path.write_bytes(payload)
        try:
            objects = load_corpus(corpus_path)
        except CorpusFormatError:
            return
        assert all(isinstance(obj, CorpusObject) for obj in objects)


class TestSyntheticRoundTrip:
    def test_round_trip(self, tmp_path) -> None:
        corpus = generate_corpus(GeneratorParams(n_entries=40, seed=3))
        path = tmp_path / "syn.json"
        save_synthetic_corpus(corpus, path)
        loaded = load_synthetic_corpus(path)
        assert loaded.objects == corpus.objects
        assert loaded.ground_truth == corpus.ground_truth
        assert loaded.common_word_objects == corpus.common_word_objects
        assert loaded.params == corpus.params
        assert sorted(loaded.scheme.codes()) == sorted(corpus.scheme.codes())

    def test_loaded_corpus_usable_for_scoring(self, tmp_path) -> None:
        from repro.eval.experiments import build_linker
        from repro.eval.metrics import score_corpus

        corpus = generate_corpus(GeneratorParams(n_entries=40, seed=3))
        path = tmp_path / "syn.json"
        save_synthetic_corpus(corpus, path)
        loaded = load_synthetic_corpus(path)
        linker = build_linker(loaded)
        report = score_corpus(linker, loaded.objects, loaded.ground_truth)
        assert report.recall == 1.0
