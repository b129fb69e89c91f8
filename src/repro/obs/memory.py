"""Per-component memory accounting: cheap estimates, deep reconciler.

Sizing a structure to its job, and any future capacity planning, start
with the same question this module answers: *how many bytes does each
component actually hold?*

Two measurement tiers, deliberately separate:

* **Incremental estimates** — each component (objects store, concept
  map, invalidation index, render cache, trace ring) maintains a
  plain-int byte counter updated only on mutation, using the
  ``estimate_*`` helpers below.  Reads cost nothing; the
  linker folds the counters into ``metrics_snapshot()`` as
  ``nnexus_memory_bytes{component=...}`` gauges at scrape time, the
  same zero-hot-path-overhead convention the render cache uses for
  hit counters.
* **Deep samples** — :func:`deep_sizeof` recursively walks a
  component's live object graph with ``sys.getsizeof``.  Accurate but
  O(objects), so it runs only from the :class:`MemoryAccountant`
  reconciler: on demand (``getResourceStats`` with ``deep=1``), or
  periodically from a background thread.  The reconciler reports the
  estimate/deep ratio per component; the linking bench gates that the
  incremental estimates stay within 2x of the deep truth.

Every linker owns one :class:`MemoryAccountant`.  Accounting never
touches rendered output, which CI checks with
``bench_linking.py --profile-overhead``.
"""

from __future__ import annotations

import sys
import threading
from time import monotonic
from typing import Callable, Iterable, Mapping

__all__ = [
    "MemoryAccountant",
    "deep_sizeof",
    "estimate_str",
    "estimate_strs",
    "within_ratio",
]

# Estimator constants, calibrated against what deep_sizeof (i.e.
# sys.getsizeof) reports on 64-bit CPython 3.10-3.12: an ASCII str is
# 49 bytes + 1/code point, a compact dict amortizes to ~30 bytes of
# shell per slot (keys/values are counted as their own objects), a set
# slot ~52, a tuple 40 + 8/element, a plain instance ~56 plus its
# attribute dict.  The point is agreement with the deep reconciler,
# not with RSS — both tiers measure the same object graph.
_STR_BASE = 50
_DICT_SLOT = 30
_SET_SLOT = 52
_LIST_SLOT = 8
_TUPLE_BASE = 40
_OBJ_BASE = 56
_INT = 28

# deep_sizeof stops after this many nodes so a reconcile pass stays
# bounded even against a pathological graph; the traversal is
# breadth-unbounded otherwise.
DEEP_SIZEOF_MAX_OBJECTS = 2_000_000

# Below this size a component is effectively empty: incremental
# estimates don't charge a structure's fixed shells (an empty dict
# still weighs 64 bytes, a defaultdict-of-sets a few hundred), so the
# estimate/deep ratio of a near-idle component is shell noise, not
# drift.  The reconciler pins such components to ratio 1.0.
SMALL_COMPONENT_BYTES = 4096

_MODULE_TYPE = type(sys)


def estimate_str(text: str) -> int:
    """Cheap size estimate for one string (no getsizeof call)."""
    return _STR_BASE + len(text)


def estimate_strs(parts: Iterable[str]) -> int:
    """Sum of :func:`estimate_str` over ``parts``."""
    total = 0
    for part in parts:
        total += _STR_BASE + len(part)
    return total


def estimate_dict_entry(extra: int = 0) -> int:
    """Amortized cost of one dict slot plus ``extra`` payload bytes."""
    return _DICT_SLOT + extra


def estimate_set_entry(extra: int = 0) -> int:
    """Amortized cost of one set slot plus ``extra`` payload bytes."""
    return _SET_SLOT + extra


def estimate_container(n_items: int, base: int = _TUPLE_BASE) -> int:
    """Container shell holding ``n_items`` references."""
    return base + _LIST_SLOT * n_items


def estimate_object(n_attrs: int) -> int:
    """Instance shell plus an attribute dict with ``n_attrs`` slots."""
    return _OBJ_BASE + 64 + _DICT_SLOT * n_attrs


def estimate_int() -> int:
    """One boxed int (small ints are interned, so this rounds up)."""
    return _INT


def deep_sizeof(
    roots: Iterable[object],
    *,
    max_objects: int = DEEP_SIZEOF_MAX_OBJECTS,
) -> int:
    """Recursive ``sys.getsizeof`` over a graph of containers.

    Follows dicts (keys and values), lists/tuples/sets/frozensets, and
    instances (``__dict__`` and ``__slots__``).  Shared objects are
    counted once (identity-deduplicated), matching what the process
    actually pays for them.  Class objects, modules and functions are
    skipped — they are program text, not corpus data.
    """
    seen: set[int] = set()
    stack = list(roots)
    total = 0
    visited = 0
    getsizeof = sys.getsizeof
    while stack and visited < max_objects:
        obj = stack.pop()
        obj_id = id(obj)
        if obj_id in seen:
            continue
        seen.add(obj_id)
        if isinstance(obj, (type, _MODULE_TYPE)):
            continue
        if callable(obj) and not isinstance(obj, (dict, list, tuple, set, frozenset)):
            continue
        visited += 1
        try:
            total += getsizeof(obj)
        except TypeError:
            continue
        try:
            if isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            else:
                inner = getattr(obj, "__dict__", None)
                if inner is not None:
                    stack.append(inner)
                slots = getattr(type(obj), "__slots__", ())
                for slot in slots if isinstance(slots, (tuple, list)) else (slots,):
                    if isinstance(slot, str) and hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
        except RuntimeError:
            # A container resized mid-iteration (concurrent mutation
            # during a reconcile); skip its children — the sample is
            # approximate by design.
            continue
    return total


class MemoryAccountant:
    """Registry of per-component estimators with high-watermarks.

    Components register two callables: ``estimate`` returns the cheap
    incremental byte count (a plain-int read), and ``deep_roots``
    returns the live objects to :func:`deep_sizeof` during a
    reconcile.  :meth:`sample` reads every estimate and updates the
    per-component high-watermark; :meth:`reconcile` additionally runs
    the deep walk and records the estimate/deep ratio.

    ``reconcile_interval_sec`` arms a daemon thread that reconciles
    periodically (:meth:`start`/:meth:`stop`); leave it ``None`` to
    reconcile only on demand.
    """

    def __init__(self, reconcile_interval_sec: float | None = None) -> None:
        if reconcile_interval_sec is not None and reconcile_interval_sec <= 0:
            raise ValueError("reconcile_interval_sec must be positive")
        self.reconcile_interval_sec = reconcile_interval_sec
        self._lock = threading.Lock()
        self._estimators: dict[str, Callable[[], int]] = {}
        self._deep_roots: dict[str, Callable[[], Iterable[object]]] = {}
        self._peaks: dict[str, int] = {}
        self._last_reconcile: dict[str, dict[str, float]] = {}
        self._last_reconcile_at: float | None = None
        self._reconcile_count = 0
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- registration -------------------------------------------------

    def register(
        self,
        component: str,
        estimate: Callable[[], int],
        deep_roots: Callable[[], Iterable[object]] | None = None,
    ) -> None:
        with self._lock:
            self._estimators[component] = estimate
            if deep_roots is not None:
                self._deep_roots[component] = deep_roots
            self._peaks.setdefault(component, 0)

    # -- measurement --------------------------------------------------

    def sample(self) -> dict[str, int]:
        """Read every incremental estimate; update high-watermarks."""
        with self._lock:
            estimators = list(self._estimators.items())
        sizes: dict[str, int] = {}
        for component, estimate in estimators:
            sizes[component] = max(0, int(estimate()))
        with self._lock:
            for component, size in sizes.items():
                if size > self._peaks.get(component, 0):
                    self._peaks[component] = size
        return sizes

    def peaks(self) -> dict[str, int]:
        with self._lock:
            return dict(self._peaks)

    def reconcile(self) -> dict[str, dict[str, float]]:
        """Deep-sample every component and compare with its estimate.

        Returns ``{component: {"estimate": b, "deep": b, "ratio": r}}``
        where ratio is estimate/deep (1.0 when both are zero).  The
        result is cached for :meth:`snapshot`.
        """
        sizes = self.sample()
        with self._lock:
            deep_fns = list(self._deep_roots.items())
        report: dict[str, dict[str, float]] = {}
        for component, deep_roots in deep_fns:
            deep = deep_sizeof(deep_roots())
            estimate = sizes.get(component, 0)
            if estimate <= SMALL_COMPONENT_BYTES and deep <= SMALL_COMPONENT_BYTES:
                ratio = 1.0
            elif deep <= 0:
                ratio = float("inf")
            else:
                ratio = estimate / deep
            report[component] = {
                "estimate": float(estimate),
                "deep": float(deep),
                "ratio": ratio,
            }
        with self._lock:
            self._last_reconcile = report
            self._last_reconcile_at = monotonic()
            self._reconcile_count += 1
        return report

    def snapshot(self) -> dict:
        """JSON-friendly view: sizes, peaks, last reconcile + its age."""
        sizes = self.sample()
        with self._lock:
            peaks = dict(self._peaks)
            reconcile = {k: dict(v) for k, v in self._last_reconcile.items()}
            at = self._last_reconcile_at
            count = self._reconcile_count
        age = None if at is None else monotonic() - at
        return {
            "components": {
                name: {"bytes": size, "peak_bytes": peaks.get(name, size)}
                for name, size in sorted(sizes.items())
            },
            "reconcile": reconcile,
            "reconcile_count": count,
            "reconcile_age_sec": age,
        }

    # -- periodic reconciler ------------------------------------------

    def start(self) -> None:
        if self.reconcile_interval_sec is None:
            return
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_event = threading.Event()
            self._thread = threading.Thread(
                target=self._run,
                name="nnexus-memory-reconciler",
                daemon=True,
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            stop_event = self._stop_event
            self._thread = None
        if thread is None:
            return
        stop_event.set()
        thread.join(timeout=5.0)

    def _run(self) -> None:
        stop_event = self._stop_event
        interval = self.reconcile_interval_sec or 0.0
        while not stop_event.wait(interval):
            self.reconcile()


def within_ratio(
    report: Mapping[str, Mapping[str, float]], bound: float = 2.0
) -> bool:
    """True when every reconciled ratio sits in ``[1/bound, bound]``."""
    for stats in report.values():
        ratio = stats.get("ratio", 1.0)
        if not (1.0 / bound <= ratio <= bound):
            return False
    return True
