"""Tests for entry revision history."""

import pytest

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.core.revisions import RevisionError, RevisionedCorpus, diff_words
from repro.core.errors import UnknownObjectError
from repro.ontology.msc import build_small_msc


@pytest.fixture()
def corpus() -> RevisionedCorpus:
    linker = NNexus(scheme=build_small_msc())
    return RevisionedCorpus(linker)


def graph_entry(text: str = "Vertices and edges.", title: str = "graph") -> CorpusObject:
    return CorpusObject(5, title, defines=["graph"], classes=["05C99"], text=text)


class TestSave:
    def test_first_save_creates_and_links(self, corpus) -> None:
        revision = corpus.save(graph_entry(), author="ada", comment="initial")
        assert revision.number == 1
        assert revision.relinked
        assert corpus.linker.has_object(5)

    def test_text_edit_relinks(self, corpus) -> None:
        corpus.save(graph_entry())
        revision = corpus.save(graph_entry(text="A different body."), author="bob")
        assert revision.relinked
        assert corpus.linker.get_object(5).text == "A different body."

    def test_title_typo_fix_is_free(self, corpus) -> None:
        corpus.save(graph_entry(title="garph"))
        # Same labels/classes/text; only the display title changes...
        # but the title IS a concept phrase, so change defines too to
        # really exercise the free path: keep concept_phrases identical.
        entry = graph_entry(title="garph")
        entry.synonyms = []
        first_phrases = tuple(entry.concept_phrases())
        fixed = CorpusObject(5, "garph", defines=["graph"], classes=["05C99"],
                             text="Vertices and edges.", domain="default")
        assert tuple(fixed.concept_phrases()) == first_phrases
        revision = corpus.save(fixed, author="bob", comment="noop edit")
        assert not revision.relinked
        assert revision.invalidated == ()

    def test_metadata_only_edit_updates_stored_object(self, corpus) -> None:
        corpus.save(graph_entry())
        same = graph_entry()
        revision = corpus.save(same, comment="touch")
        assert not revision.relinked
        assert corpus.latest(5).comment == "touch"

    def test_label_change_relinks(self, corpus) -> None:
        corpus.save(graph_entry())
        changed = CorpusObject(5, "graph", defines=["graph", "simple graph"],
                               classes=["05C99"], text="Vertices and edges.")
        assert corpus.save(changed).relinked

    def test_invalidated_ids_recorded(self, corpus) -> None:
        corpus.save(
            CorpusObject(1, "plane graph", defines=["plane graph"],
                         classes=["05C10"], text="Mentions graphs here.")
        )
        revision = corpus.save(graph_entry())
        assert 1 in revision.invalidated


class TestDurableSave:
    def test_padded_title_survives_reopen(self, tmp_path) -> None:
        # Only whitespace differs, so every concept label is unchanged;
        # the save must still reach the journal.
        from repro.persistence import SqliteBackend

        def open_linker() -> NNexus:
            storage = SqliteBackend(tmp_path / "data")
            return NNexus(scheme=build_small_msc(), storage=storage)

        def group(title: str) -> CorpusObject:
            return CorpusObject(7, title, classes=["20A05"], text="A set with an operation.")

        linker = open_linker()
        corpus = RevisionedCorpus(linker)
        corpus.save(group("Group"))
        revision = corpus.save(group(" Group"), comment="padded title")
        assert linker.get_object(7).title == " Group"
        linker.storage.close()
        reopened = open_linker()
        try:
            assert reopened.get_object(7).title == " Group"
        finally:
            reopened.storage.close()
        assert revision.relinked


class TestHistory:
    def test_history_order_and_latest(self, corpus) -> None:
        corpus.save(graph_entry(), author="ada")
        corpus.save(graph_entry(text="v2"), author="bob")
        history = corpus.history(5)
        assert [r.number for r in history] == [1, 2]
        assert corpus.latest(5).snapshot.text == "v2"

    def test_unknown_object_raises(self, corpus) -> None:
        with pytest.raises(UnknownObjectError):
            corpus.history(404)

    def test_unknown_revision_raises(self, corpus) -> None:
        corpus.save(graph_entry())
        with pytest.raises(RevisionError):
            corpus.revision(5, 99)

    def test_authors(self, corpus) -> None:
        corpus.save(graph_entry(), author="ada")
        corpus.save(graph_entry(text="v2"), author="bob")
        corpus.save(graph_entry(text="v3"), author="ada")
        assert corpus.authors(5) == ["ada", "bob"]

    def test_relink_churn(self, corpus) -> None:
        corpus.save(graph_entry())
        corpus.save(graph_entry())  # free
        corpus.save(graph_entry(text="v2"))  # relink
        churn = corpus.relink_churn()
        assert churn == {"relinked": 2, "free": 1}


class TestRestore:
    def test_restore_old_text(self, corpus) -> None:
        corpus.save(graph_entry(text="v1"))
        corpus.save(graph_entry(text="vandalized"))
        revision = corpus.restore(5, 1, author="moderator")
        assert corpus.linker.get_object(5).text == "v1"
        assert revision.comment == "restore revision 1"
        assert len(corpus.history(5)) == 3

    def test_restore_relinks_corpus(self, corpus) -> None:
        corpus.save(
            CorpusObject(1, "plane graph", defines=["plane graph"],
                         classes=["05C10"], text="A planar graph drawn flat.")
        )
        corpus.save(CorpusObject(2, "planar graph", defines=["planar graph"],
                                 classes=["05C10"], text="v1"))
        corpus.save(CorpusObject(2, "renamed concept", defines=["renamed concept"],
                                 classes=["05C10"], text="v1"))
        # After the rename, entry 1 cannot link 'planar graph'.
        doc = corpus.linker.link_object(1)
        assert all(l.source_phrase != "planar graph" for l in doc.links)
        corpus.restore(2, 2)
        doc = corpus.linker.link_object(1)
        assert any(l.source_phrase == "planar graph" for l in doc.links)


class TestDiff:
    def test_word_diff(self) -> None:
        diff = diff_words("a planar graph here", "a planar multigraph here now")
        assert ("-", "graph") in diff
        assert ("+", "multigraph") in diff
        assert ("+", "now") in diff or ("+", "here now") in diff

    def test_revision_diff(self, corpus) -> None:
        corpus.save(graph_entry(text="old words"))
        corpus.save(graph_entry(text="new words"))
        diff = corpus.diff(5, 1, 2)
        assert ("-", "old") in diff
        assert ("+", "new") in diff
