"""Model-based check of the §2.5 maintenance claim across restarts.

:class:`RestartLinkerModel` runs the incremental-vs-rebuild state
machine of ``tests/core/test_incremental_model.py`` on a linker that
journals to a sqlite data directory, and adds three rules:

* ``reopen`` closes the storage and cold-starts a new linker, with the
  same configuration, from the same data directory;
* ``checkpoint`` writes the buffered renderings without a reopen, so
  later mutations must mark rows already on file;
* ``save`` saves an entry through :class:`RevisionedCorpus`.  The drawn
  edits include whitespace-padded titles, duplicated labels and
  unchanged entries, which differ from the stored entry without
  changing any label.

It also makes ``edit_text`` save through :class:`RevisionedCorpus`: a
text-only update journals one record that invalidates no other entry,
and the saved text must reach the linker and the journal.

On top of the inherited invariants (every served rendering equals a
from-scratch rebuild, invalidated covers changed, kept scans match the
text), after every step:

* every rendering row the sqlite file holds as valid, and every valid
  row buffered for the next flush, equals a from-scratch rebuild's
  rendering in its format.  The rows are read before anything renders
  in that step: a render rewrites its entry's row, and a cold start
  re-renders a sample of the restored rows, so either would repair a
  stale row before it is seen;
* the corpus a reopen restores equals the live corpus field for field.

The example budget is small by default.  Set ``NNEXUS_MODEL_PROFILE=ci``
to run the large budget the CI job uses.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import invariant, rule

from repro.core.config import NNexusConfig
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.core.revisions import RevisionedCorpus
from repro.persistence.sqlite_backend import SqliteBackend
from tests.core.test_incremental_model import (
    PROFILE,
    SCHEME,
    IncrementalLinkerModel,
    entries,
    texts,
)

padding = st.sampled_from([" ", "  ", "\t", " \n"])


@st.composite
def cosmetic_edits(draw: st.DrawFn, stored: CorpusObject) -> CorpusObject:
    """``stored`` with a padded title and/or a duplicated label."""
    edited = replace(stored)
    if draw(st.booleans()):
        edited.title = draw(padding) + stored.title + draw(padding)
    if draw(st.booleans()):
        duplicate = draw(st.sampled_from(stored.concept_phrases() or [stored.title]))
        edited.defines = [*stored.defines, draw(padding) + duplicate]
    if draw(st.booleans()):
        edited.synonyms = [*stored.synonyms, stored.title.upper()]
    return edited


class RestartLinkerModel(IncrementalLinkerModel):
    def __init__(self) -> None:
        super().__init__()
        self.data_dir = Path(tempfile.mkdtemp(prefix="nnexus-restart-"))

    def _open(self, config: NNexusConfig | None = None) -> NNexus:
        linker = NNexus(
            scheme=SCHEME, config=config, storage=SqliteBackend(self.data_dir, sync="off")
        )
        self.revisions = RevisionedCorpus(linker)
        return linker

    def teardown(self) -> None:
        if hasattr(self, "linker"):
            self.linker.storage.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- rules -----------------------------------------------------------
    @rule()
    def reopen(self) -> None:
        config = NNexusConfig(base_weight=self.linker.config.base_weight)
        self.linker.storage.close()
        self.linker = self._open(config)
        assert not self.linker.read_only, self.linker.storage_error
        # A restart must change no rendering; there is no set to check.
        self.last_mutation = None

    @rule()
    def checkpoint(self) -> None:
        # Writes the buffered renderings while the linker keeps going.
        self.linker.checkpoint_storage()
        assert not self.linker.read_only, self.linker.storage_error
        self.last_mutation = None

    @rule(data=st.data())
    def save(self, data: st.DataObject) -> None:
        object_id = data.draw(st.sampled_from([*self._ids(), self.next_id]))
        if object_id == self.next_id:
            self.next_id += 1
        if self.linker.has_object(object_id) and data.draw(st.booleans()):
            edited = data.draw(cosmetic_edits(self.linker.get_object(object_id)))
        else:
            edited = data.draw(entries(object_id))
        revision = self.revisions.save(edited, author="model")
        assert self.linker.get_object(object_id) == edited
        self.last_mutation = ({object_id}, set(revision.invalidated))

    @rule(data=st.data(), text=texts)
    def edit_text(self, data: st.DataObject, text: str) -> None:
        object_id = data.draw(st.sampled_from(self._ids()))
        edited = replace(self.linker.get_object(object_id), text=text)
        revision = self.revisions.save(edited, author="model")
        assert self.linker.get_object(object_id) == edited
        self.last_mutation = ({object_id}, set(revision.invalidated))

    # -- invariants ------------------------------------------------------
    @invariant()
    def matches_rebuild(self) -> None:
        # Check what the store would serve before the inherited check
        # renders: each render rewrites that entry's row.
        storage = SqliteBackend(self.data_dir, sync="off")
        try:
            rows = [
                (row.object_id, row.fmt, row.body)
                for row in storage.load().renderings
                if row.valid
            ]
        finally:
            storage.close()
        # The rows the next flush would write count too.
        rows += [
            (object_id, fmt, body)
            for object_id, formats in self.linker.storage._fresh.items()
            for fmt, (body, valid) in formats.items()
            if valid
        ]
        fresh = self._rebuilt()
        for object_id, fmt, body in rows:
            assert body == fresh.render_object(object_id, fmt), (object_id, fmt)
        super().matches_rebuild()

    @invariant()
    def reopen_restores_live_corpus(self) -> None:
        storage = SqliteBackend(self.data_dir, sync="off")
        try:
            restored = storage.load().objects
        finally:
            storage.close()
        live = [self.linker.get_object(object_id) for object_id in self._ids()]
        assert restored == live


RestartLinkerModel.TestCase.settings = settings.get_profile(f"model-{PROFILE}")
TestRestartLinkerModel = RestartLinkerModel.TestCase
