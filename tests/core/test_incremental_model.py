"""Model-based check of the §2.5 maintenance claim: incremental == rebuild.

A hypothesis state machine drives one long-lived linker through random
``add_object`` / ``update_object`` / ``remove_object`` /
``set_linking_policy`` / ``set_base_weight`` steps over a small fixed
vocabulary, so labels and texts collide and multi-word labels overlap.
The ``edit_text``, ``edit_synonyms`` and ``edit_classes`` steps change
one field of a stored entry: updates that random ``update_object``
draws almost never make, and whose invalidated set depends on which
field changed.
After every step:

1. every entry's rendering served by the linker (cached or fresh) is
   byte-identical to the rendering of a linker built from scratch over
   the current corpus;
2. the invalidated set a mutation returned covers every entry whose
   from-scratch rendering changed across that mutation;
3. every entry's stored scan, the one ``link_object`` links from, equals
   a fresh scan of the entry's current text.

:class:`ClassEditModel` runs the same machine with only the add, remove
and ``edit_classes`` rules, over entries whose titles collide, so the
small budget reaches class edits that steering reads.

The example budget is small by default.  Set ``NNEXUS_MODEL_PROFILE=ci``
to run the large budget the CI job uses.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.config import NNexusConfig
from repro.core.linker import NNexus
from repro.core.models import CorpusObject
from repro.core.tokenizer import Tokenizer
from repro.ontology.msc import build_small_msc

settings.register_profile(
    "model-default",
    max_examples=15,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "model-ci",
    max_examples=400,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
PROFILE = os.environ.get("NNEXUS_MODEL_PROFILE", "default")
if PROFILE not in ("default", "ci"):
    raise ValueError(
        f"NNEXUS_MODEL_PROFILE must be 'default' or 'ci', not {PROFILE!r}"
    )

SCHEME = build_small_msc()
LABEL_WORDS = ("graph", "tree", "planar", "group", "even", "prime")
# Text adds inflections and filler around the label words, plus math
# that the tokenizer escapes (joining its neighbours in the word array).
TEXT_WORDS = LABEL_WORDS + ("graphs", "trees", "the", "of", "$x$", "Planar")
CLASSES = ("05C05", "05C10", "05C40", "11A41", "11A51", "03E20")

labels = st.lists(st.sampled_from(LABEL_WORDS), min_size=1, max_size=3).map(" ".join)
texts = st.lists(st.sampled_from(TEXT_WORDS), min_size=0, max_size=14).map(" ".join)
classes = st.lists(st.sampled_from(CLASSES), max_size=2, unique=True)
directives = st.one_of(
    labels.map(lambda label: f"forbid {label}"),
    labels.map(lambda label: f"permit {label} 11"),
    st.sampled_from(["forbid *", "forbid * 05C", "permit *"]),
)
policies = st.lists(directives, max_size=3).map("\n".join)


@st.composite
def entries(draw: st.DrawFn, object_id: int) -> CorpusObject:
    defines = draw(st.lists(labels, min_size=1, max_size=2))
    return CorpusObject(
        object_id,
        title=defines[0],
        defines=defines[1:],
        synonyms=draw(st.lists(labels, max_size=1)),
        classes=draw(classes),
        text=draw(texts),
    )


@st.composite
def steered_entries(draw: st.DrawFn, object_id: int) -> CorpusObject:
    """An entry titled by one of three label words, with classes.

    Homonyms are common, and classification steering picks between
    them, so a class edit of one often changes another entry's links.
    """
    return CorpusObject(
        object_id,
        title=draw(st.sampled_from(LABEL_WORDS[:3])),
        classes=draw(st.lists(st.sampled_from(CLASSES), min_size=1, max_size=2, unique=True)),
        text=draw(texts),
    )


class IncrementalLinkerModel(RuleBasedStateMachine):
    #: What ``start``, ``add_object`` and ``update_object`` draw, given
    #: an object id.
    entry_strategy = staticmethod(entries)

    def _open(self) -> NNexus:
        """The linker under test; subclasses may give it storage."""
        return NNexus(scheme=SCHEME)

    @initialize(data=st.data(), count=st.integers(1, 4))
    def start(self, data: st.DataObject, count: int) -> None:
        self.linker = self._open()
        self.linker.add_objects(
            data.draw(self.entry_strategy(oid)) for oid in range(1, count + 1)
        )
        self.next_id = count + 1
        #: From-scratch renderings after the previous step.
        self.previous: dict[int, str] = {}
        #: (ids whose own rendering may change, returned invalidated set).
        self.last_mutation: tuple[set[int], set[int]] | None = None

    def _ids(self) -> list[int]:
        return sorted(self.linker.object_ids())

    def _can_remove(self) -> bool:
        # Keep one entry, so every rule stays enabled.
        return len(self.linker) > 1

    # -- mutations -------------------------------------------------------
    @rule(data=st.data())
    def add_object(self, data: st.DataObject) -> None:
        obj = data.draw(self.entry_strategy(self.next_id))
        self.next_id += 1
        invalidated = self.linker.add_object(obj)
        self.last_mutation = ({obj.object_id}, invalidated)

    @rule(data=st.data())
    def update_object(self, data: st.DataObject) -> None:
        object_id = data.draw(st.sampled_from(self._ids()))
        obj = data.draw(self.entry_strategy(object_id))
        invalidated = self.linker.update_object(obj)
        self.last_mutation = ({object_id}, invalidated)

    def _edit(self, data: st.DataObject, **changes: Any) -> None:
        """Update a stored entry with ``changes`` and nothing else."""
        object_id = data.draw(st.sampled_from(self._ids()))
        invalidated = self.linker.update_object(
            replace(self.linker.get_object(object_id), **changes)
        )
        self.last_mutation = ({object_id}, invalidated)

    @rule(data=st.data(), text=texts)
    def edit_text(self, data: st.DataObject, text: str) -> None:
        self._edit(data, text=text)

    @rule(data=st.data(), synonyms=st.lists(labels, max_size=2))
    def edit_synonyms(self, data: st.DataObject, synonyms: list[str]) -> None:
        self._edit(data, synonyms=synonyms)

    @rule(data=st.data(), new_classes=classes)
    def edit_classes(self, data: st.DataObject, new_classes: list[str]) -> None:
        self._edit(data, classes=new_classes)

    @precondition(_can_remove)
    @rule(data=st.data())
    def remove_object(self, data: st.DataObject) -> None:
        object_id = data.draw(st.sampled_from(self._ids()))
        invalidated = self.linker.remove_object(object_id)
        self.last_mutation = ({object_id}, invalidated)

    @rule(data=st.data(), policy=policies)
    def set_linking_policy(self, data: st.DataObject, policy: str) -> None:
        object_id = data.draw(st.sampled_from(self._ids()))
        invalidated = self.linker.set_linking_policy(object_id, policy)
        self.last_mutation = (set(), invalidated)

    @rule(base_weight=st.sampled_from([1.0, 2.0, 10.0]))
    def set_base_weight(self, base_weight: float) -> None:
        # Clears the whole render cache; there is no set to check.
        self.linker.set_base_weight(base_weight)
        self.last_mutation = None

    # -- invariants ------------------------------------------------------
    def _rebuilt(self) -> NNexus:
        fresh = NNexus(
            scheme=SCHEME,
            config=NNexusConfig(base_weight=self.linker.config.base_weight),
        )
        fresh.add_objects(self.linker.get_object(object_id) for object_id in self._ids())
        return fresh

    @invariant()
    def matches_rebuild(self) -> None:
        fresh = self._rebuilt()
        current: dict[int, str] = {}
        for object_id in self._ids():
            expected = fresh.render_object(object_id)
            # Rendered twice: the first call may fill the cache, the
            # second must serve the same bytes from it.
            assert self.linker.render_object(object_id) == expected, object_id
            assert self.linker.render_object(object_id) == expected, object_id
            current[object_id] = expected
        if self.last_mutation is not None:
            own, invalidated = self.last_mutation
            changed = {
                object_id
                for object_id in current.keys() & self.previous.keys()
                if current[object_id] != self.previous[object_id]
            }
            assert changed - own <= invalidated, (changed, invalidated)
        self.previous = current
        self.last_mutation = None

    @invariant()
    def stored_scans_match_text(self) -> None:
        tokenizer = Tokenizer()
        assert sorted(self.linker._scans) == self._ids()
        for object_id in self._ids():
            stored = self.linker._scans[object_id]
            fresh = tokenizer.tokenize(self.linker.get_object(object_id).text)
            assert stored.source == fresh.source, object_id
            assert list(stored.words) == list(fresh.words), object_id
            assert list(stored.starts) == list(fresh.starts), object_id
            assert list(stored.ends) == list(fresh.ends), object_id
            assert list(stored.escaped_regions) == list(fresh.escaped_regions), object_id


class ClassEditModel(IncrementalLinkerModel):
    """The same machine with only ``add_object``, ``remove_object`` and
    ``edit_classes``, over :func:`steered_entries`, so the small budget
    reaches the class-edit path: the all-rules machine rarely edits the
    classes of an entry that steering weighs for another entry's link.
    """

    entry_strategy = staticmethod(steered_entries)

    # An inherited rule's name bound to a plain value is no rule.
    update_object = edit_text = edit_synonyms = None
    set_linking_policy = set_base_weight = None


IncrementalLinkerModel.TestCase.settings = settings.get_profile(f"model-{PROFILE}")
TestIncrementalLinkerModel = IncrementalLinkerModel.TestCase
ClassEditModel.TestCase.settings = settings.get_profile(f"model-{PROFILE}")
TestClassEditModel = ClassEditModel.TestCase
