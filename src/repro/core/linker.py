"""The NNexus linker façade: the full automatic-linking pipeline.

This module wires the components of Fig. 2 together.  When an entry is
linked:

1. unlinkable regions are escaped and the text tokenized
   (:mod:`repro.core.tokenizer`).  A stored entry is scanned once per
   version, when it is stored; the linker keeps that scan,
   feeds its words to the invalidation index, and links the entry from
   it.  Ad-hoc text (``link_text``) is scanned on every call;
2. the token array is scanned against the concept map for link sources
   (:mod:`repro.core.matching`), probing only positions whose word
   heads a concept-map chain;
3. candidate targets are filtered by the targets' linking policies
   (:mod:`repro.core.policies`); a match none of whose candidates
   carries a policy passes unchanged;
4. when two or more candidates survive, they are compared by
   classification proximity and the closest object(s) win
   (:mod:`repro.core.classification`).  A lone survivor is the target
   without running Algorithm 1, which would return it unchanged;
5. remaining ties fall to collection priority, then lowest object id.
   Stages 3–5 live in ``_resolve``; the link loop takes a lone
   candidate that carries no policy (most matches) directly, because
   all three stages would return it unchanged;
6. winners are substituted into the original text
   (:mod:`repro.core.render`).  Each target's URL is built once per
   stored version and domain configuration and kept in the per-target
   memo beside its class signature; the link loop reads it from there.
   A stored entry's own memoized signature is its source signature.

:meth:`NNexus.explain_text` runs every stage on every match and is the
reference the fast paths are tested against.

The façade also maintains the invalidation index and render cache
(Section 2.5): adding or removing concepts marks exactly the entries that
may need re-linking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from platform import python_version
from time import monotonic, perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.core.cache import RenderCache
from repro.core.classification import ClassificationGraph, ClassificationSteering
from repro.core.concept_map import ConceptMap
from repro.core.config import DomainConfig, NNexusConfig
from repro.core.errors import (
    DuplicateObjectError,
    NNexusError,
    ReadOnlyError,
    StorageError,
    UnknownObjectError,
)
from repro.core.invalidation import InvalidationIndex
from repro.core.matching import find_matches
from repro.core.models import CorpusObject, Link, LinkedDocument, Match
from repro.core.policies import LinkingPolicyTable, parse_policy
from repro.core.render import RENDERERS, renderer_for
from repro.core.tokenizer import TokenizedText, Tokenizer
from repro.obs.memory import (
    MemoryAccountant,
    deep_sizeof,
    estimate_container,
    estimate_dict_entry,
    estimate_int,
    estimate_object,
    estimate_str,
    estimate_strs,
)
from repro.obs.metrics import NULL_RECORDER, NullRecorder, merge_series
from repro.obs.trace import NULL_TRACER, NullTracer
from repro.ontology.scheme import ClassificationScheme
from repro.persistence.sqlite_backend import SqliteBackend

__all__ = ["NNexus", "LinkerStats", "MatchExplanation"]

#: Restored valid renderings a cold start re-renders and compares.
VERIFY_SAMPLE = 8


@dataclass
class MatchExplanation:
    """Decision trace for one match (see :meth:`NNexus.explain_text`).

    Reconstructs why each candidate survived or fell at every stage of
    the Fig. 2 pipeline — the tool to reach for when a link lands on the
    wrong homonym in production.
    """

    surface: str
    canonical: tuple[str, ...]
    candidates: tuple[int, ...]
    policy_rejected: tuple[int, ...]
    distances: dict[int, float]
    steering_winners: tuple[int, ...]
    chosen: int | None
    reason: str

    def format(self) -> str:
        lines = [f"match {self.surface!r} (canonical: {' '.join(self.canonical)})"]
        lines.append(f"  candidates: {list(self.candidates)}")
        if self.policy_rejected:
            lines.append(f"  rejected by policy: {list(self.policy_rejected)}")
        if self.distances:
            ordered = sorted(self.distances.items(), key=lambda kv: kv[1])
            lines.append(
                "  class distances: "
                + ", ".join(f"{oid}={dist:g}" for oid, dist in ordered)
            )
        lines.append(f"  chosen: {self.chosen} ({self.reason})")
        return "\n".join(lines)


@dataclass
class LinkerStats:
    """Counters accumulated across link operations."""

    entries_linked: int = 0
    links_created: int = 0
    matches_found: int = 0
    candidates_filtered_by_policy: int = 0
    ties_broken_by_priority: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "entries_linked": self.entries_linked,
            "links_created": self.links_created,
            "matches_found": self.matches_found,
            "candidates_filtered_by_policy": self.candidates_filtered_by_policy,
            "ties_broken_by_priority": self.ties_broken_by_priority,
        }


class _TargetMemo:
    """What linking derives from one stored version of a target entry.

    ``signature`` is the interned class signature, filled on the first
    steering use.  ``url`` is the entry's URL, filled on the first link
    and valid only while the entry's domain is still the ``domain``
    object it was built from.
    """

    __slots__ = ("signature", "domain", "url")

    def __init__(self) -> None:
        self.signature: tuple[int, ...] | None = None
        self.domain: DomainConfig | None = None
        self.url: str | None = None


class NNexus:
    """Automatic invocation linker over one or more corpora.

    Parameters
    ----------
    scheme:
        Primary classification scheme (e.g. the MSC).  ``None`` disables
        classification steering entirely.
    config:
        Domain/URL/priority configuration; a permissive default is built
        when omitted.
    enable_steering / enable_policies:
        Ablation switches used by the Table 2 experiment: lexical-only
        linking is ``enable_steering=False, enable_policies=False``.
    metrics:
        A metrics recorder (see :mod:`repro.obs.metrics`).  Defaults to
        the inert :data:`~repro.obs.metrics.NULL_RECORDER`; pass a
        :class:`~repro.obs.metrics.MetricsRegistry` to record per-stage
        pipeline timings and link counters.
    tracer:
        A tracer (see :mod:`repro.obs.trace`).  Defaults to the inert
        :data:`~repro.obs.trace.NULL_TRACER`; pass a
        :class:`~repro.obs.trace.Tracer` to record a span tree per link
        request (one child span per Fig. 2 pipeline stage, plus cache
        and steering lookups) correlated across the server stack.
    storage:
        A :class:`~repro.persistence.sqlite_backend.SqliteBackend`, or
        ``None`` (default) to keep the corpus in memory only.  A linker
        given one cold-starts from it immediately (objects, policies and
        the render cache with its dirty-set are restored and a sample
        of restored renderings verified) and journals every later
        mutation through it.  A journaling failure degrades the linker
        to read-only instead of crashing or silently diverging.
    memory_reconcile_sec:
        ``None`` (default) deep-reconciles the per-component memory
        estimates only on demand (``resource_stats(deep=True)``, i.e.
        the ``getResourceStats`` wire method with ``deep=1``).  A
        positive interval arms a daemon thread in the
        :class:`~repro.obs.memory.MemoryAccountant` that reconciles
        periodically; stop it with ``linker.accountant.stop()``.
    """

    def __init__(
        self,
        scheme: ClassificationScheme | None = None,
        config: NNexusConfig | None = None,
        enable_steering: bool = True,
        enable_policies: bool = True,
        metrics: NullRecorder | None = None,
        tracer: NullTracer | None = None,
        storage: SqliteBackend | None = None,
        memory_reconcile_sec: float | None = None,
    ) -> None:
        self.config = config or NNexusConfig()
        self.scheme = scheme
        self.enable_steering = enable_steering and scheme is not None
        self.enable_policies = enable_policies
        self.stats = LinkerStats()
        #: Metrics recorder shared with the server stack; the default
        #: null recorder makes every instrumentation point a no-op.
        self.metrics = metrics if metrics is not None else NULL_RECORDER
        #: Tracer shared with the server stack; the default null tracer
        #: makes every span site a single attribute check.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional composite ranker (see :mod:`repro.core.ranking`);
        #: when set, it replaces steering + tie-breaks for ambiguous
        #: matches.  Attach with :meth:`set_ranker`.
        self.ranker = None

        #: Durable journal + cold-start source; ``None`` (in memory)
        #: makes every journal site a no-op attribute check.
        self.storage = storage
        #: Set after storage corruption or a journaling failure: reads
        #: keep serving, mutations raise :class:`ReadOnlyError`.
        self.read_only = False
        #: Human-readable cause of the degradation, for /ready and logs.
        self.storage_error: str | None = None
        #: What the last cold start restored (None in memory).
        self.last_restore: dict[str, Any] | None = None

        if self.config.extra_escape_patterns:
            import re

            from repro.core.tokenizer import DEFAULT_ESCAPE_RULES, EscapeRule

            extra = tuple(
                EscapeRule(name, re.compile(pattern))
                for name, pattern in self.config.extra_escape_patterns
            )
            self._tokenizer = Tokenizer(escape_rules=extra + DEFAULT_ESCAPE_RULES)
        else:
            self._tokenizer = Tokenizer()
        self._concept_map = ConceptMap()
        self._objects: dict[int, CorpusObject] = {}
        #: object id -> the scan of its stored text, made once per
        #: version in add_object; link_object links from it.
        self._scans: dict[int, TokenizedText] = {}
        self._policies = LinkingPolicyTable(scheme=scheme)
        self._invalidation = InvalidationIndex()
        self._cache = RenderCache()
        self._steering: ClassificationSteering | None = None
        if scheme is not None:
            graph = ClassificationGraph.from_scheme(
                scheme, base_weight=self.config.base_weight
            )
            self._steering = ClassificationSteering(graph)
        #: object id -> what linking derives from the stored version of
        #: that target (class signature, URL), filled lazily on first
        #: use.  ``_store`` and ``_unstore`` drop an object's entry, and
        #: the whole table is cleared when the steering graph is rebuilt.
        self._targets: dict[int, _TargetMemo] = {}

        #: Monotonic construction instant, for ``nnexus_uptime_seconds``.
        self._started_monotonic = monotonic()
        #: Incremental byte estimate of the private object store and the
        #: stored scans, kept symmetric in _store/_unstore so it cannot
        #: drift.
        self._objects_bytes = 0
        #: Per-component memory accountant (objects store with the kept
        #: scans, concept map under the historical key ``map_segments``,
        #: invalidation index, render cache, trace ring, metrics
        #: registry).  Components
        #: report cheap plain-int estimates; ``resource_stats(deep=True)``
        #: or the optional reconciler thread deep-samples the same graphs
        #: and reports the estimate/deep ratio the bench gates at 2x.
        self.accountant = MemoryAccountant(
            reconcile_interval_sec=memory_reconcile_sec
        )
        self._register_memory_components()
        self.accountant.start()

        if self.storage is not None:
            self._cold_start()

    def _register_memory_components(self) -> None:
        acc = self.accountant
        acc.register(
            "objects", lambda: self._objects_bytes, lambda: (self._objects, self._scans)
        )
        acc.register(
            "map_segments",
            self._concept_map.estimated_bytes,
            self._concept_map.memory_roots,
        )
        acc.register(
            "invalidation",
            lambda: self._invalidation.estimated_bytes,
            self._invalidation.memory_roots,
        )
        acc.register(
            "render_cache",
            lambda: self._cache.estimated_bytes,
            self._cache.memory_roots,
        )
        acc.register(
            "trace_ring", self.tracer.estimated_bytes, self.tracer.memory_roots
        )
        # The metrics registry has no mutation hook to maintain an
        # incremental counter from, so its "estimate" is a deep walk of
        # a point-in-time snapshot — O(series), run at scrape time only.
        # No deep_roots: sizing the same snapshot twice would make the
        # reconcile ratio a tautology.
        acc.register("metrics", lambda: deep_sizeof((self.metrics.snapshot(),)))

    # ------------------------------------------------------------------
    # Durable storage plumbing
    # ------------------------------------------------------------------
    def _cold_start(self) -> None:
        """Restore corpus + render cache from storage, then spot-verify.

        Up to :data:`VERIFY_SAMPLE` restored *valid* renderings are
        re-rendered from scratch and compared byte-for-byte; a mismatch
        (stale disk state, changed config) evicts the cached copy so it
        is recomputed on demand rather than served wrong.
        """
        started = perf_counter()
        snapshot = self.storage.load()
        # Stored as-is: the render cache is still empty, so there is
        # nothing to invalidate, and the journal already holds them.
        for obj in snapshot.objects:
            self._store(obj)
        for rendering in snapshot.renderings:
            if rendering.object_id in self._objects and rendering.fmt in RENDERERS:
                self._cache.restore(
                    rendering.object_id,
                    rendering.body,
                    rendering.fmt,
                    valid=rendering.valid,
                )
        verified = mismatches = 0
        for rendering in snapshot.renderings:
            if verified >= VERIFY_SAMPLE:
                break
            if not rendering.valid or rendering.object_id not in self._objects:
                continue
            renderer = RENDERERS.get(rendering.fmt)
            if renderer is None:
                continue
            verified += 1
            if renderer(self.link_object(rendering.object_id)) != rendering.body:
                mismatches += 1
                self._cache.drop(rendering.object_id)
        self.last_restore = {
            "objects": len(snapshot.objects),
            "renderings": len(snapshot.renderings),
            "verified": verified,
            "mismatches": mismatches,
            "elapsed_sec": perf_counter() - started,
            "recovery": self.storage.recovery_stats(),
        }

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyError(
                f"linker is read-only after a storage failure: {self.storage_error}"
            )

    def _journal(self, action: "Callable[[], None]") -> None:
        """Run one journaling action; degrade to read-only on failure.

        The in-memory mutation has already happened when this runs, so
        raising would leave the caller unsure of the linker state —
        instead the corpus stays servable and further writes are
        refused, which bounds the divergence to this one operation.
        """
        if self.storage is None or self.read_only:
            return
        try:
            action()
        except (StorageError, OSError) as exc:
            self._degrade(exc)

    def _degrade(self, exc: Exception) -> None:
        self.read_only = True
        self.storage_error = f"{type(exc).__name__}: {exc}"
        if self.metrics.enabled:
            self.metrics.inc("nnexus_storage_degraded_total")

    def checkpoint_storage(self) -> None:
        """Compact the storage journal (no-op in memory)."""
        if self.storage is None or self.read_only:
            return
        try:
            self.storage.checkpoint()
        except (StorageError, OSError) as exc:
            self._degrade(exc)

    def __getstate__(self) -> dict[str, object]:
        """Pickled snapshot for process-pool batch workers.

        Metrics recorders are process-local (a live
        :class:`~repro.obs.metrics.MetricsRegistry` holds a lock and its
        counts belong to the parent); worker snapshots run with the null
        recorder and report timings back through the batch layer.
        """
        state = self.__dict__.copy()
        if getattr(state.get("metrics"), "enabled", False):
            state["metrics"] = NULL_RECORDER
        # Tracers hold locks and their ring belongs to the parent; the
        # batch layer installs a per-worker tracer when asked to.
        if getattr(state.get("tracer"), "enabled", False):
            state["tracer"] = NULL_TRACER
        # The store holds file handles and its journal belongs to the
        # parent; worker snapshots run in memory.
        state["storage"] = None
        # The accountant holds a lock, maybe a reconciler thread, and
        # closures over this linker; workers rebuild their own inert one
        # in __setstate__.
        state.pop("accountant", None)
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self.accountant = MemoryAccountant()
        self._register_memory_components()

    # ------------------------------------------------------------------
    # Corpus maintenance
    # ------------------------------------------------------------------
    def add_object(self, obj: CorpusObject) -> set[int]:
        """Register an entry and index its concept labels and text.

        Returns the ids of the other stored entries whose text contains
        one of the entry's concept labels — the exact set computed
        through the invalidation index — after marking them dirty in the
        render cache.
        """
        self._check_writable()
        object_id = obj.object_id
        if object_id in self._objects:
            raise DuplicateObjectError(object_id)
        parse_policy(obj.linking_policy)  # a bad policy raises before any change
        invalidated = self._invalidate(self._store(obj), object_id)
        stored = self._objects[object_id]
        self._journal(lambda: self.storage.record_add(stored, invalidated))
        return invalidated

    def add_objects(self, objects: Iterable[CorpusObject]) -> None:
        """Bulk-load entries (e.g. an initial corpus import)."""
        for obj in objects:
            self.add_object(obj)

    def remove_object(self, object_id: int) -> set[int]:
        """Unregister an entry; invalidate entries that linked to it.

        Every label the object *defined* drives invalidation, not just
        the labels that vanished from the corpus entirely: when a
        homonymous label survives under another owner, entries that
        linked to the removed object must still be re-linked or their
        cached renderings keep hyperlinking a deleted target.
        """
        self._check_writable()
        invalidated = self._invalidate(self._unstore(object_id), object_id)
        self._journal(lambda: self.storage.record_remove(object_id, invalidated))
        return invalidated

    def update_object(self, obj: CorpusObject) -> set[int]:
        """Replace an entry; invalidates over its old and new labels.

        The result equals the union of a remove and an add, found in one
        pass.  Journaled as ONE storage record (not a remove followed by
        an add), so a crash cannot persist a corpus with the entry
        missing.  An update that keeps the text (a label, synonym or
        policy edit) keeps the stored scan instead of tokenizing again.
        """
        self._check_writable()
        object_id = obj.object_id
        parse_policy(obj.linking_policy)  # a bad policy raises before any change
        old = self._objects.get(object_id)
        kept = self._scans[object_id] if old is not None and old.text == obj.text else None
        labels = self._unstore(object_id) | self._store(obj, kept)
        invalidated = self._invalidate(labels, object_id)
        stored = self._objects[object_id]
        self._journal(lambda: self.storage.record_update(stored, invalidated))
        return invalidated

    def set_linking_policy(self, object_id: int, policy_text: str) -> set[int]:
        """Attach a linking policy to a stored entry (Section 2.4).

        An update of the entry with the new policy: returns the ids of
        the entries invalidated because they may link to its concepts.
        """
        self._check_writable()
        stored = self.get_object(object_id)
        return self.update_object(replace(stored, linking_policy=policy_text))

    def _store(
        self, obj: CorpusObject, scan: TokenizedText | None = None
    ) -> set[tuple[str, ...]]:
        """Store a private copy of ``obj`` and index it; returns its labels.

        ``scan`` is the scan of ``obj.text`` to keep; the text is scanned
        when it is ``None``.  Neither invalidates nor journals: the
        public mutations do that once each, and a cold start does
        neither.
        """
        # A private copy: the caller may change or share its instance
        # (lists included) after the call, and no change may reach the
        # stored entry except through another mutation.
        obj = replace(
            obj,
            defines=list(obj.defines),
            synonyms=list(obj.synonyms),
            classes=list(obj.classes),
        )
        object_id = obj.object_id
        if scan is None:
            scan = self._scan_stored(obj.text)
        self._objects[object_id] = obj
        self._scans[object_id] = scan
        self._objects_bytes += _object_cost(obj) + _scan_cost(scan)
        labels: set[tuple[str, ...]] = set()
        for phrase in obj.concept_phrases():
            words = self._concept_map.add_phrase(phrase, object_id)
            if words is not None:
                labels.add(words)
        if obj.linking_policy:
            self._policies.set_policy(object_id, obj.linking_policy)
        self._invalidation.index_object(object_id, scan.words)
        self._targets.pop(object_id, None)
        return labels

    def _unstore(self, object_id: int) -> frozenset[tuple[str, ...]]:
        """Undo :meth:`_store` and drop the cached renderings.

        Returns the labels the entry defined; raises UnknownObjectError
        when it is not stored.
        """
        obj = self._objects.pop(object_id, None)
        if obj is None:
            raise UnknownObjectError(object_id)
        self._objects_bytes -= _object_cost(obj) + _scan_cost(self._scans.pop(object_id))
        defined = self._concept_map.labels_for_object(object_id)
        self._concept_map.remove_object(object_id)
        self._policies.remove(object_id)
        self._invalidation.remove_object(object_id)
        self._cache.drop(object_id)
        self._targets.pop(object_id, None)
        return defined

    def _invalidate(self, labels: Iterable[tuple[str, ...]], object_id: int) -> set[int]:
        """Dirty the entries other than ``object_id`` containing a label."""
        invalidated = self._invalidation.invalidate_many(labels)
        invalidated.discard(object_id)
        self._cache.invalidate(invalidated)
        return invalidated

    def get_object(self, object_id: int) -> CorpusObject:
        """Fetch a stored entry; raises UnknownObjectError when absent."""
        obj = self._objects.get(object_id)
        if obj is None:
            raise UnknownObjectError(object_id)
        return obj

    def has_object(self, object_id: int) -> bool:
        """True when an entry with this id is registered."""
        return object_id in self._objects

    def object_ids(self) -> list[int]:
        """All registered entry ids, ascending."""
        return sorted(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Linking
    # ------------------------------------------------------------------
    def set_ranker(self, ranker: object | None) -> None:
        """Attach (or detach) a composite candidate ranker.

        The ranker must expose ``best(source_id, source_classes,
        candidates) -> int | None`` — see
        :class:`repro.core.ranking.CompositeRanker`.  Rendering caches
        are cleared since linking decisions may change.
        """
        self.ranker = ranker
        self._cache.clear()
        self._journal(lambda: self.storage.record_cache_clear())

    def link_object(self, object_id: int) -> LinkedDocument:
        """Link a stored entry (self-links excluded unless configured).

        Links from the scan kept since the entry was stored: a stored
        entry is never tokenized again.
        """
        obj = self.get_object(object_id)
        exclude = () if self.config.allow_self_links else (object_id,)
        return self._link(self._scans[object_id], obj.classes, exclude, object_id)

    def link_text(
        self,
        text: str,
        source_classes: Sequence[str] = (),
        exclude_objects: Iterable[int] = (),
        source_id: int | None = None,
    ) -> LinkedDocument:
        """Link arbitrary text against the corpus (lecture notes, blogs).

        ``source_classes`` carries the document's subject classification
        when known; without it, steering falls back to tie-breaking by
        collection priority and object id.  ``source_id`` identifies a
        stored entry so an attached composite ranker can use its
        collaborative-filtering profile.
        """
        return self._link(text, source_classes, exclude_objects, source_id)

    def _link(
        self,
        source: str | TokenizedText,
        source_classes: Sequence[str],
        exclude_objects: Iterable[int],
        source_id: int | None,
    ) -> LinkedDocument:
        """Link ad-hoc text, or a stored entry from its kept scan.

        A :class:`TokenizedText` source is the kept scan of the stored
        entry ``source_id``, whose classes are ``source_classes``.
        """
        trc = self.tracer
        if not trc.enabled:
            return self._link_text_inner(
                source, source_classes, exclude_objects, source_id, NULL_TRACER
            )
        chars = len(source if isinstance(source, str) else source.source)
        with trc.span("linker.link_text", chars=chars) as span:
            document = self._link_text_inner(
                source, source_classes, exclude_objects, source_id, trc
            )
            span.set_attribute("matches", len(document.matches))
            span.set_attribute("links", len(document.links))
            return document

    def _scan_stored(self, text: str) -> TokenizedText:
        """The scan a stored entry keeps; times the tokenize stage.

        The stage span is recorded only inside a trace (an ``addObject``
        request), so a bulk load does not open one trace per entry.
        """
        rec = self.metrics
        trc = self.tracer
        if not (rec.enabled or trc.enabled):
            return self._tokenizer.tokenize(text)
        started = perf_counter()
        scan = self._tokenizer.tokenize(text)
        self._observe_stage(
            "tokenize",
            perf_counter() - started,
            rec,
            trc if trc.active_trace_id() else NULL_TRACER,
            tokens=len(scan),
        )
        return scan

    def _observe_stage(
        self, stage: str, seconds: float, rec: NullRecorder, trc: NullTracer, **attrs: Any
    ) -> None:
        """One pipeline stage timing -> histogram (with a trace-id
        exemplar when traced) and a finished child span."""
        if rec.enabled:
            rec.observe(
                "nnexus_pipeline_stage_seconds",
                seconds,
                exemplar=trc.active_trace_id() if trc.enabled else None,
                stage=stage,
            )
        if trc.enabled:
            trc.record_span(f"stage.{stage}", seconds, **attrs)

    def _link_text_inner(
        self,
        source: str | TokenizedText,
        source_classes: Sequence[str],
        exclude_objects: Iterable[int],
        source_id: int | None,
        trc: NullTracer,
    ) -> LinkedDocument:
        rec = self.metrics
        timing = rec.enabled or trc.enabled
        stage_acc: dict[str, float] | None = None
        if timing:
            signature_start = perf_counter()
        # The source signature is shared by every match in the document:
        # intern it once instead of re-normalizing per candidate.  A
        # stored entry's own memo already holds it.
        source_signature: tuple[int, ...] = ()
        if self.enable_steering and self._steering is not None:
            if isinstance(source, str):
                source_signature = self._steering.signature(source_classes)
            else:
                source_signature = self._signature_of(source_id)
        if timing:
            # Signature work is steering; the next stage starts here.
            stage_start = perf_counter()
            stage_acc = {"policy": 0.0, "steer": stage_start - signature_start}
        if isinstance(source, str):
            tokenized = self._tokenizer.tokenize(source)
            if timing:
                now = perf_counter()
                self._observe_stage(
                    "tokenize", now - stage_start, rec, trc, tokens=len(tokenized)
                )
                stage_start = now
        else:
            tokenized = source
        matches = find_matches(
            tokenized,
            self._concept_map,
            first_occurrence_only=self.config.link_first_occurrence_only,
            exclude_objects=exclude_objects,
        )
        if timing:
            self._observe_stage(
                "match", perf_counter() - stage_start, rec, trc, matches=len(matches)
            )
        document = LinkedDocument(
            source_text=tokenized.source,
            matches=matches,
            escaped_regions=list(tokenized.escaped_regions),
        )
        objects = self._objects
        domains = self.config.domains
        targets = self._targets
        starts = tokenized.starts
        ends = tokenized.ends
        links = document.links
        # A lone candidate without a policy is the target: the policy
        # filter passes it and Algorithm 1 returns it (the decision
        # _resolve would make).  Every other match takes the full path.
        holders = self._policies.holders() if self.enable_policies else ()
        for match in matches:
            candidates = match.candidates
            if len(candidates) == 1 and candidates[0] not in holders:
                target_id = candidates[0]
            else:
                target_id = self._resolve(
                    match, source_classes, source_id, stage_acc, source_signature
                )
                if target_id is None:
                    continue
            target = objects[target_id]
            domain = domains.get(target.domain)
            memo = targets.get(target_id)
            if memo is not None and memo.domain is domain and memo.url is not None:
                url = memo.url
            else:
                url = self._url_of(target_id, target, domain)
            links.append(
                Link(
                    match.surface,
                    target_id,
                    target.domain,
                    starts[match.start],
                    ends[match.end - 1],
                    url,
                )
            )
        self.stats.entries_linked += 1
        self.stats.matches_found += len(matches)
        self.stats.links_created += len(document.links)
        if timing and stage_acc is not None:
            self._observe_stage("policy", stage_acc["policy"], rec, trc)
            self._observe_stage("steer", stage_acc["steer"], rec, trc)
            if rec.enabled:
                rec.inc("nnexus_link_requests_total")
                rec.inc("nnexus_matches_found_total", len(matches))
                rec.inc("nnexus_links_created_total", len(document.links))
        return document

    def _resolve(
        self,
        match: Match,
        source_classes: Sequence[str],
        source_id: int | None = None,
        stage_acc: dict[str, float] | None = None,
        source_signature: tuple[int, ...] = (),
    ) -> int | None:
        """Candidate filtering + steering + tie-breaking for one match.

        ``stage_acc`` is a per-call accumulator (local to one
        ``link_text`` invocation, hence thread-safe) collecting policy
        and steering wall time; ``link_text`` observes the totals once
        per entry.  ``source_signature`` is the interned form of
        ``source_classes``, computed once per document.  The link loop
        calls this only for a match with two or more candidates or with
        a candidate that carries a policy.
        """
        candidates: tuple[int, ...] = match.candidates
        if self.enable_policies:
            if stage_acc is not None:
                policy_start = perf_counter()
            filtered = self._policies.filter_candidates(
                candidates, match.label.words, source_classes
            )
            if stage_acc is not None:
                stage_acc["policy"] += perf_counter() - policy_start
            self.stats.candidates_filtered_by_policy += len(candidates) - len(filtered)
            candidates = filtered
        if not candidates:
            return None
        if len(candidates) == 1:
            # Over one candidate Algorithm 1 and the tie-break return it
            # unchanged; explain_text still runs them.
            return candidates[0]
        if self.ranker is not None:
            # Composite ranking (Section 5 extensions) replaces plain
            # steering when a ranker is attached.
            return self.ranker.best(
                source_id,
                source_classes,
                {oid: self._objects[oid].classes for oid in candidates},
            )
        if self.enable_steering and self._steering is not None:
            if stage_acc is not None:
                steer_start = perf_counter()
            signature_of = self._signature_of
            result = self._steering.steer_signatures(
                source_signature,
                {oid: signature_of(oid) for oid in candidates},
            )
            if stage_acc is not None:
                stage_acc["steer"] += perf_counter() - steer_start
            winners = result.winners
        else:
            winners = candidates
        if not winners:
            return None
        if len(winners) == 1:
            return winners[0]
        self.stats.ties_broken_by_priority += 1
        return min(winners, key=self._tie_break_key)

    def explain_text(
        self,
        text: str,
        source_classes: Sequence[str] = (),
        exclude_objects: Iterable[int] = (),
        source_id: int | None = None,
    ) -> list[MatchExplanation]:
        """Trace every stage of the pipeline for each match in ``text``.

        Runs the same decisions as :meth:`link_text` but records why each
        candidate survived or fell: policy verdicts, class distances,
        steering winners, and the final tie-break — or, when a composite
        ranker is attached and two or more candidates survive, the
        ranker's pick.  ``source_id`` is passed to the ranker as in
        :meth:`link_text`.
        """
        tokenized = self._tokenizer.tokenize(text)
        matches = find_matches(
            tokenized,
            self._concept_map,
            first_occurrence_only=self.config.link_first_occurrence_only,
            exclude_objects=exclude_objects,
        )
        explanations: list[MatchExplanation] = []
        for match in matches:
            candidates = match.candidates
            rejected: tuple[int, ...] = ()
            if self.enable_policies:
                kept = self._policies.filter_candidates(
                    candidates, match.label.words, source_classes
                )
                rejected = tuple(oid for oid in candidates if oid not in kept)
                candidates = kept
            distances: dict[int, float] = {}
            winners: tuple[int, ...] = candidates
            if candidates and self.enable_steering and self._steering is not None:
                result = self._steering.steer(
                    source_classes,
                    {oid: self._objects[oid].classes for oid in candidates},
                )
                distances = result.distances
                winners = result.winners
            if not candidates:
                chosen, reason = None, "all candidates rejected by policy"
            elif self.ranker is not None and len(candidates) > 1:
                chosen = self.ranker.best(
                    source_id,
                    source_classes,
                    {oid: self._objects[oid].classes for oid in candidates},
                )
                reason = "composite ranker"
            elif len(winners) == 1:
                chosen = winners[0]
                reason = (
                    "single candidate"
                    if len(candidates) == 1
                    else "closest classification"
                )
            elif winners:
                chosen = min(winners, key=self._tie_break_key)
                reason = "tie broken by collection priority / object id"
            else:
                chosen, reason = None, "no steering winner"
            explanations.append(
                MatchExplanation(
                    surface=match.surface,
                    canonical=match.label.words,
                    candidates=match.candidates,
                    policy_rejected=rejected,
                    distances=distances,
                    steering_winners=winners,
                    chosen=chosen,
                    reason=reason,
                )
            )
        return explanations

    def _tie_break_key(self, object_id: int) -> tuple[int, int]:
        obj = self._objects[object_id]
        domain = self.config.domains.get(obj.domain)
        priority = domain.priority if domain else 1_000_000
        return (priority, object_id)

    # ------------------------------------------------------------------
    # Per-target memo: steering signature and URL
    # ------------------------------------------------------------------
    def _target_memo(self, object_id: int) -> _TargetMemo:
        """The memo of a stored target, created empty on first use.

        Concurrent fills from server reader threads compute the same
        values, so a lost write only costs a recomputation.
        """
        memo = self._targets.get(object_id)
        if memo is None:
            memo = self._targets[object_id] = _TargetMemo()
        return memo

    def _signature_of(self, object_id: int) -> tuple[int, ...]:
        """Cached interned class signature of a stored entry."""
        memo = self._target_memo(object_id)
        signature = memo.signature
        if signature is None:
            signature = self._steering.signature(self._objects[object_id].classes)
            memo.signature = signature
        return signature

    def _url_of(
        self, object_id: int, target: CorpusObject, domain: DomainConfig | None
    ) -> str:
        """URL of a stored target under its current ``domain``.

        Built once per stored version; a replaced domain configuration is
        a different object, so the identity check rebuilds the URL.  The
        link loop reads a current memo inline and calls this otherwise.
        """
        memo = self._target_memo(object_id)
        if memo.domain is not domain or memo.url is None:
            # URL before domain: a reader that sees the new domain also
            # sees its URL.
            memo.url = domain.url_for(object_id, target.title) if domain else ""
            memo.domain = domain
        return memo.url

    def set_base_weight(self, base_weight: float) -> None:
        """Rebuild the steering graph with a different weight base.

        Used by the weighting ablation; ``base_weight=1`` degenerates to
        the non-weighted hop-count distance of Section 2.3.  Cached
        per-object signatures are dropped with the old graph — interned
        ids are only meaningful within one graph's id space — together
        with the rest of the per-target memo.
        """
        if self.scheme is None:
            raise NNexusError("no classification scheme configured")
        self.config.base_weight = base_weight
        graph = ClassificationGraph.from_scheme(self.scheme, base_weight=base_weight)
        self._steering = ClassificationSteering(graph)
        self._targets.clear()
        self._cache.clear()
        self._journal(lambda: self.storage.record_cache_clear())

    # ------------------------------------------------------------------
    # Rendering and caching
    # ------------------------------------------------------------------
    def render_document(self, document: LinkedDocument, fmt: str = "html") -> str:
        """Render a linked document in ``fmt``, timing the render stage.

        The one place the ``render`` stage is observed: the cache miss
        path, the socket server, the HTTP gateway, batch jobs and the
        CLI all render through it.  Raises ``ValueError`` for an
        unknown format.
        """
        renderer = renderer_for(fmt)
        rec = self.metrics
        trc = self.tracer
        if not (rec.enabled or trc.enabled):
            return renderer(document)
        started = perf_counter()
        rendered = renderer(document)
        self._observe_stage("render", perf_counter() - started, rec, trc, fmt=fmt)
        return rendered

    def render_object(self, object_id: int, fmt: str = "html") -> str:
        """Linked rendering of a stored entry, served through the cache.

        The cache is keyed by ``(object_id, fmt)``: every format is
        cached, and the invalidation machinery dirties and drops all of
        an entry's formats together.  A miss links, renders, caches and
        journals the rendering.
        """
        renderer_for(fmt)  # an unknown format fails before the lookup
        trc = self.tracer
        if not trc.enabled:
            cached = self._cache.get(object_id, fmt)
            if cached is not None:
                return cached
            return self._render_miss(object_id, fmt)
        with trc.span("linker.render_object", object_id=object_id, fmt=fmt) as span:
            lookup_start = perf_counter()
            cached = self._cache.get(object_id, fmt)
            trc.record_span(
                "cache.lookup",
                perf_counter() - lookup_start,
                object_id=object_id,
                fmt=fmt,
                hit=cached is not None,
            )
            span.set_attribute("cache_hit", cached is not None)
            if cached is not None:
                return cached
            return self._render_miss(object_id, fmt)

    def _render_miss(self, object_id: int, fmt: str) -> str:
        """Link, render, cache and journal one rendering."""
        rendered = self.render_document(self.link_object(object_id), fmt)
        self._cache.put(object_id, rendered, fmt)
        self._journal(lambda: self.storage.record_rendering(object_id, fmt, rendered))
        return rendered

    def invalid_entries(self) -> list[int]:
        """Entries marked for re-linking by the invalidation machinery."""
        return self._cache.invalid_ids()

    def relink_invalidated(self) -> dict[int, str]:
        """Re-render every dirty cache slot; returns id -> fresh rendering.

        Each dirty ``(object_id, fmt)`` slot is refreshed in its own
        format.  The returned mapping carries one rendering per entry —
        the HTML one when HTML was among the refreshed formats (the
        common case and the historical return value).
        """
        refreshed: dict[int, str] = {}
        for object_id, fmt in self._cache.invalid_keys():
            if object_id not in self._objects:
                self._cache.drop(object_id)
                continue
            rendered = self.render_object(object_id, fmt=fmt)
            if fmt == "html" or object_id not in refreshed:
                refreshed[object_id] = rendered
        return refreshed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def concept_map(self) -> ConceptMap:
        return self._concept_map

    @property
    def invalidation_index(self) -> InvalidationIndex:
        return self._invalidation

    @property
    def policy_table(self) -> LinkingPolicyTable:
        return self._policies

    @property
    def cache(self) -> RenderCache:
        return self._cache

    @property
    def steering(self) -> ClassificationSteering | None:
        return self._steering

    def concept_count(self) -> int:
        """Distinct canonical concept labels across the corpus."""
        return len(self._concept_map)

    def describe(self) -> dict[str, object]:
        """One-call status summary (used by the server and examples)."""
        return {
            "objects": len(self._objects),
            "concepts": self.concept_count(),
            "policies": len(self._policies),
            "steering": self.enable_steering,
            "policies_enabled": self.enable_policies,
            "storage": "memory" if self.storage is None else "sqlite",
            "read_only": self.read_only,
            "version": _repro_version(),
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "stats": self.stats.snapshot(),
        }

    def uptime_seconds(self) -> float:
        """Seconds since this linker was constructed (monotonic clock)."""
        return monotonic() - self._started_monotonic

    def resource_stats(self, deep: bool = False) -> dict[str, Any]:
        """Resource-accounting snapshot (the ``getResourceStats`` body).

        ``deep=True`` forces a reconcile first: every registered
        component's live object graph is deep-sampled with
        :func:`~repro.obs.memory.deep_sizeof` and the estimate/deep
        ratio reported alongside the cheap incremental estimates.
        """
        if deep:
            self.accountant.reconcile()
        return {
            "version": _repro_version(),
            "uptime_seconds": self.uptime_seconds(),
            "objects": len(self._objects),
            "concepts": self.concept_count(),
            "memory": self.accountant.snapshot(),
        }

    def metrics_snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """Unified metrics view: recorder series + cache and corpus series.

        The render cache and linker keep plain-int counters of their
        own (zero overhead on the hot path); they are folded into the
        recorder snapshot here, at scrape time, so ``getMetrics`` and
        the gateway's ``/metrics`` endpoint expose one consistent set
        even when the null recorder is installed.
        """
        cache = self._cache.counter_snapshot()
        stats = self.stats.snapshot()
        counters = [
            ("nnexus_cache_hits_total", {}, cache["hits"]),
            ("nnexus_cache_misses_total", {}, cache["misses"]),
            ("nnexus_cache_invalidations_total", {}, cache["invalidations"]),
            ("nnexus_entries_linked_total", {}, stats["entries_linked"]),
            ("nnexus_links_total", {}, stats["links_created"]),
            ("nnexus_matches_total", {}, stats["matches_found"]),
        ]
        gauges = [
            ("nnexus_objects", {}, len(self._objects)),
            ("nnexus_concepts", {}, self.concept_count()),
            ("nnexus_cache_entries", {}, cache["entries"]),
            ("nnexus_storage_read_only", {}, int(self.read_only)),
        ]
        if self.last_restore is not None:
            gauges += [
                ("nnexus_cold_start_seconds", {}, self.last_restore["elapsed_sec"]),
                ("nnexus_restored_objects", {}, self.last_restore["objects"]),
                ("nnexus_restored_renderings", {}, self.last_restore["renderings"]),
                (
                    "nnexus_restore_verify_mismatches",
                    {},
                    self.last_restore["mismatches"],
                ),
            ]
        memory = self.accountant.sample()
        peaks = self.accountant.peaks()
        for component in sorted(memory):
            size = memory[component]
            gauges += [
                ("nnexus_memory_bytes", {"component": component}, size),
                (
                    "nnexus_memory_peak_bytes",
                    {"component": component},
                    peaks.get(component, size),
                ),
            ]
        gauges += [
            (
                "nnexus_build_info",
                {"version": _repro_version(), "python": python_version()},
                1,
            ),
            ("nnexus_uptime_seconds", {}, self.uptime_seconds()),
        ]
        return merge_series(self.metrics.snapshot(), counters=counters, gauges=gauges)


_VERSION: str | None = None


def _repro_version() -> str:
    # Imported lazily: the repro package __init__ imports repro.core, so
    # a top-level import here would be circular.
    global _VERSION
    if _VERSION is None:
        from repro import __version__

        _VERSION = __version__
    return _VERSION


def _object_cost(obj: CorpusObject) -> int:
    """Incremental byte estimate for one stored :class:`CorpusObject`.

    Covers the instance and its attribute dict, every string payload,
    the three metadata list shells, and the slot the object occupies in
    the linker's ``_objects`` dict (plus its boxed id key).
    """
    return (
        estimate_object(8)
        + estimate_str(obj.title)
        + estimate_str(obj.text)
        + estimate_str(obj.domain)
        + estimate_str(obj.linking_policy)
        + estimate_strs(obj.defines)
        + estimate_strs(obj.synonyms)
        + estimate_strs(obj.classes)
        + estimate_container(len(obj.defines), base=56)
        + estimate_container(len(obj.synonyms), base=56)
        + estimate_container(len(obj.classes), base=56)
        + estimate_dict_entry(28)
    )


def _scan_cost(scan: TokenizedText) -> int:
    """Incremental byte estimate for one stored :class:`TokenizedText`.

    Covers the instance, the word list's slots, the two packed offset
    arrays, the escaped-region list with its tuples and boxed offsets,
    and the slot in the linker's ``_scans`` dict.  The source string is
    the stored object's text and the words are shared canonical strings,
    so neither is charged here.
    """
    regions = len(scan.escaped_regions)
    return (
        _SCAN_SHELL
        + estimate_container(len(scan.words), base=56)
        + 2 * (_ARRAY_BASE + _OFFSET_BYTES * len(scan.starts))
        + estimate_container(regions, base=56)
        + regions * (estimate_container(2) + 2 * estimate_int())
        + estimate_dict_entry()
    )


#: A slotted five-field :class:`TokenizedText` instance.
_SCAN_SHELL = 72
#: An empty ``array("I")`` and the bytes of one of its items.
_ARRAY_BASE = 64
_OFFSET_BYTES = 4
