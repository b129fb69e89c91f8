"""A saved revision of an entry reaches the journal.

``update_object`` decides what a save changed.  A save that changes no
concept label, class or text still changes the stored entry, so it
must be journaled and survive a cold start.
"""

from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.ontology.msc import build_small_msc
from repro.persistence import SqliteBackend


class TestDurableSave:
    def test_padded_title_survives_reopen(self, tmp_path) -> None:
        # Only whitespace differs, so every concept label is unchanged;
        # the save must still reach the journal.
        def open_linker() -> NNexus:
            storage = SqliteBackend(tmp_path / "data")
            return NNexus(scheme=build_small_msc(), storage=storage)

        def group(title: str) -> CorpusObject:
            return CorpusObject(7, title, classes=["20A05"], text="A set with an operation.")

        linker = open_linker()
        linker.add_object(group("Group"))
        linker.update_object(group(" Group"))
        assert linker.get_object(7).title == " Group"
        linker.storage.close()
        reopened = open_linker()
        try:
            assert reopened.get_object(7).title == " Group"
        finally:
            reopened.storage.close()
