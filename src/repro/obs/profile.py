"""Low-overhead background sampling profiler.

The resource-observability layer needs CPU *attribution* — which code
is the service actually spending its time in — without the 2-10x
slowdown of a deterministic tracer.  This module samples instead:
a daemon thread wakes every ``interval_sec``, snapshots every live
thread's stack via :func:`sys._current_frames`, and folds each stack
into an aggregated ``frames -> count`` table.  The cost is one stack
walk per thread per tick, independent of request rate, so the profiler
can stay on in production (its overhead on the linking bench is
measured, and its samples and unchanged renderings checked in CI, by
``bench_linking.py --overhead``).

Like the metrics recorder and the tracer, the default is an inert
:data:`NULL_PROFILER` (``enabled = False``) with zero cost on every
path; hot code never branches on it because the profiler observes from
the *outside* — nothing in the request path calls into this module.

Profiles export in two shapes:

* :meth:`SamplingProfiler.snapshot` — a JSON-friendly dict with the
  aggregated stacks sorted by weight (served by the ``getProfile``
  wire method and ``GET /debug/profile``);
* :meth:`SamplingProfiler.collapsed` — Brendan Gregg collapsed-stack
  lines (``frame;frame;frame count``), one stack per line, directly
  consumable by ``flamegraph.pl`` / speedscope (uploaded as a CI
  artifact).
"""

from __future__ import annotations

import sys
import threading
from time import monotonic
from types import FrameType
from typing import Iterator

__all__ = [
    "NULL_PROFILER",
    "NullProfiler",
    "SamplingProfiler",
    "parse_profile_params",
]

# Frames deeper than this are truncated from the root end; the leaf
# (where the time is actually spent) is always kept.
MAX_STACK_DEPTH = 64

# snapshot() caps the number of distinct stacks it returns so a wire
# response stays bounded even after days of sampling.
DEFAULT_MAX_STACKS = 200

DEFAULT_INTERVAL_SEC = 0.005


class NullProfiler:
    """Inert default: never samples, exports empty profiles.

    Mirrors ``NullRecorder``/``NullTracer``: a class-level
    ``enabled = False`` lets callers gate with an attribute load, and
    every method is a no-op returning an empty-but-well-formed value so
    wire handlers need no special casing.
    """

    enabled = False

    def start(self) -> None:
        return None

    def stop(self) -> None:
        return None

    @property
    def running(self) -> bool:
        return False

    def sample_count(self) -> int:
        return 0

    def snapshot(self, max_stacks: int = DEFAULT_MAX_STACKS) -> dict:
        return {
            "enabled": False,
            "running": False,
            "interval_sec": 0.0,
            "duration_sec": 0.0,
            "samples": 0,
            "distinct_stacks": 0,
            "stacks": [],
            "top": [],
        }

    def collapsed(self) -> str:
        return ""

    def __enter__(self) -> "NullProfiler":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


NULL_PROFILER = NullProfiler()


def parse_profile_params(fmt: str | None, limit: str | None) -> tuple[str, int]:
    """The ``format`` and stack ``limit`` of a profile request.

    Shared by the ``getProfile`` wire method and ``GET /debug/profile``.
    ``format`` is ``json`` (default) or ``collapsed``; ``limit`` caps the
    stacks of a JSON snapshot (default :data:`DEFAULT_MAX_STACKS`) and is
    ignored for ``collapsed``.  Raises :class:`ValueError` on a bad value.
    """
    fmt = (fmt or "").strip() or "json"
    if fmt == "collapsed":
        return fmt, DEFAULT_MAX_STACKS
    if fmt != "json":
        raise ValueError(f"unknown profile format {fmt!r}")
    raw = (limit or "").strip()
    if not raw:
        return fmt, DEFAULT_MAX_STACKS
    try:
        max_stacks = int(raw)
    except ValueError:
        raise ValueError(f"bad limit {raw!r}") from None
    if max_stacks < 1:
        # A negative slice bound would silently drop the heaviest
        # stacks instead of capping the count.
        raise ValueError(f"bad limit {raw!r}")
    return fmt, max_stacks


def _frame_key(frame: FrameType) -> str:
    """One collapsed-stack token per frame: ``module.function``.

    The filename is reduced to its stem so tokens stay short and
    machine-independent (no absolute paths in CI artifacts); line
    numbers are deliberately excluded so samples aggregate per
    function, not per bytecode offset.  Spaces and semicolons are the
    collapsed format's two delimiters, so pseudo-filenames like
    ``<frozen runpy>`` are sanitized to keep one stack per line.
    """
    code = frame.f_code
    filename = code.co_filename
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    stem = filename[slash + 1 :]
    if stem.endswith(".py"):
        stem = stem[:-3]
    key = f"{stem}.{code.co_name}"
    if " " in key or ";" in key:
        key = key.replace(" ", "_").replace(";", "_")
    return key


def _walk_stack(frame: FrameType | None) -> tuple[str, ...]:
    """Leaf frame in, root-to-leaf tuple of frame keys out."""
    frames: list[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        frames.append(_frame_key(frame))
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class SamplingProfiler(NullProfiler):
    """Wall-clock stack sampler aggregating into ``stack -> count``.

    ``interval_sec`` is the target sampling period (default 5 ms —
    ~200 Hz, comfortably below timer resolution noise while giving
    usable profiles from a few seconds of load).  Samples cover every
    thread except the sampler itself, so lock-wait and executor-idle
    time show up attributed to the frames doing the waiting — exactly
    the saturation signal the sharding roadmap needs.

    ``start``/``stop`` are idempotent; the aggregate survives a stop
    and keeps growing across restarts until :meth:`reset`.  The class
    is also a context manager for scoped profiling in benchmarks.
    """

    enabled = True

    def __init__(self, interval_sec: float = DEFAULT_INTERVAL_SEC) -> None:
        if interval_sec <= 0:
            raise ValueError("interval_sec must be positive")
        self.interval_sec = float(interval_sec)
        self._lock = threading.Lock()
        self._stacks: dict[tuple[str, ...], int] = {}
        self._samples = 0
        self._active_sec = 0.0
        self._started_at: float | None = None
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_event = threading.Event()
            self._started_at = monotonic()
            self._thread = threading.Thread(
                target=self._run,
                name="nnexus-profiler",
                daemon=True,
            )
            self._thread.start()

    def stop(self) -> None:
        with self._lock:
            thread = self._thread
            stop_event = self._stop_event
            started_at = self._started_at
            self._thread = None
            self._started_at = None
            if started_at is not None:
                self._active_sec += monotonic() - started_at
        if thread is None:
            return
        stop_event.set()
        thread.join(timeout=5.0)

    def reset(self) -> None:
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            if self._started_at is None:
                self._active_sec = 0.0
            else:
                self._active_sec = 0.0
                self._started_at = monotonic()

    # -- sampling -----------------------------------------------------

    def _run(self) -> None:
        own_id = threading.get_ident()
        stop_event = self._stop_event
        while not stop_event.wait(self.interval_sec):
            self._sample_once(own_id)

    def _sample_once(self, own_id: int) -> None:
        # sys._current_frames returns a fresh dict; frames may be torn
        # mid-execution but each walk sees a consistent f_back chain.
        frames = sys._current_frames()
        walked = [
            _walk_stack(frame)
            for thread_id, frame in frames.items()
            if thread_id != own_id
        ]
        del frames
        with self._lock:
            self._samples += 1
            for stack in walked:
                if stack:
                    self._stacks[stack] = self._stacks.get(stack, 0) + 1

    # -- export -------------------------------------------------------

    def sample_count(self) -> int:
        with self._lock:
            return self._samples

    def _duration_sec(self) -> float:
        if self._started_at is None:
            return self._active_sec
        return self._active_sec + (monotonic() - self._started_at)

    def _sorted_stacks(self) -> list[tuple[tuple[str, ...], int]]:
        # Heaviest first; ties broken by the stack itself so exports
        # are deterministic for a given aggregate.
        return sorted(self._stacks.items(), key=lambda item: (-item[1], item[0]))

    def snapshot(self, max_stacks: int = DEFAULT_MAX_STACKS) -> dict:
        with self._lock:
            ordered = self._sorted_stacks()
            samples = self._samples
            duration = self._duration_sec()
            running = self._started_at is not None
        leaf_weight: dict[str, int] = {}
        for stack, count in ordered:
            leaf = stack[-1]
            leaf_weight[leaf] = leaf_weight.get(leaf, 0) + count
        top = sorted(leaf_weight.items(), key=lambda item: (-item[1], item[0]))
        return {
            "enabled": True,
            "running": running,
            "interval_sec": self.interval_sec,
            "duration_sec": duration,
            "samples": samples,
            "distinct_stacks": len(ordered),
            "stacks": [
                {"frames": list(stack), "count": count}
                for stack, count in ordered[:max_stacks]
            ],
            "top": [
                {"frame": frame, "count": count} for frame, count in top[:max_stacks]
            ],
        }

    def collapsed(self) -> str:
        with self._lock:
            ordered = self._sorted_stacks()
        return "\n".join(
            f"{';'.join(stack)} {count}" for stack, count in ordered
        )

    def iter_stacks(self) -> Iterator[tuple[tuple[str, ...], int]]:
        with self._lock:
            items = list(self._stacks.items())
        return iter(items)

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self
