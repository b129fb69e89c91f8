"""Lightweight process metrics: counters, gauges and latency histograms.

NNexus Reloaded rebuilt the paper's system "for production operation";
this module is the observability half of that direction.  Three metric
kinds cover everything the linking pipeline and server stack need:

* **counters** — monotonically increasing totals (requests, links,
  cache hits);
* **gauges** — last-written values (objects indexed, in-flight
  requests);
* **histograms** — monotonic-clock latency samples with nearest-rank
  p50/p95/p99 over a bounded window of recent observations.

Two recorders implement the same interface.  :class:`NullRecorder`
(`NULL_RECORDER`, the default everywhere) answers ``enabled = False``
and does nothing, so uninstrumented deployments pay only an attribute
check per pipeline stage.  :class:`MetricsRegistry` records for real
behind a single lock; every hot-path caller is expected to guard its
``perf_counter()`` bookkeeping with ``if recorder.enabled:`` so the
null path stays allocation-free.

Snapshots are plain JSON-serializable dicts (``counters`` / ``gauges``
/ ``histograms`` lists, deterministically sorted) — the wire
``getMetrics`` method ships them as JSON and
:func:`repro.obs.prometheus.render_prometheus` turns them into the
Prometheus text exposition format.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "HistogramSummary",
    "Histogram",
    "NullRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "empty_snapshot",
    "merge_series",
]

#: Histograms keep this many most-recent samples for percentile math;
#: ``count``/``sum`` always cover every observation ever made.
DEFAULT_WINDOW = 8192

_LabelKey = tuple[tuple[str, str], ...]

# Byte costs behind MetricsRegistry.estimated_bytes, calibrated against
# repro.obs.memory.deep_sizeof of its tables on 64-bit CPython: one
# series (dict slot, key tuples, value), one histogram's instance,
# attribute dict, counters and deque shell, one windowed sample (a
# deque slot and its float), and one exemplar string with its slot.
_SERIES_BYTES = 250
_HISTOGRAM_BYTES = 900
_SAMPLE_BYTES = 32
_EXEMPLAR_BYTES = 300


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def empty_snapshot() -> dict[str, list[dict[str, Any]]]:
    """The snapshot shape with no series (what NullRecorder returns)."""
    return {"counters": [], "gauges": [], "histograms": []}


@dataclass(frozen=True)
class HistogramSummary:
    """Aggregates of one histogram series."""

    count: int
    sum: float
    min: float
    max: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class Histogram:
    """Latency samples over a bounded sliding window.

    ``count`` and ``sum`` accumulate over the histogram's whole
    lifetime; percentiles are computed nearest-rank over the most
    recent :data:`DEFAULT_WINDOW` samples, which keeps memory bounded
    while the quantiles track current behaviour (what a dashboard wants).
    """

    def __init__(self) -> None:
        self._samples: deque[float] = deque(maxlen=DEFAULT_WINDOW)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> HistogramSummary:
        if self.count == 0:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(self._samples)

        def rank(q: float) -> float:
            return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]

        return HistogramSummary(
            count=self.count,
            sum=self.sum,
            min=self.min,
            max=self.max,
            p50=rank(50.0),
            p95=rank(95.0),
            p99=rank(99.0),
        )

    def __len__(self) -> int:
        return len(self._samples)


class NullRecorder:
    """The zero-overhead default recorder: every operation is a no-op.

    Hot paths check ``recorder.enabled`` before doing any timing work,
    so an uninstrumented linker pays one attribute read per stage and
    allocates nothing.
    """

    enabled = False

    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        pass

    def observe(
        self, name: str, value: float, exemplar: str | None = None, **labels: str
    ) -> None:
        pass

    def gauge_value(self, name: str, **labels: str) -> float:
        return 0.0

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        return empty_snapshot()

    def estimated_bytes(self) -> int:
        return 0

    def memory_roots(self) -> tuple[object, ...]:
        return ()


#: Shared inert recorder — the default for every instrumented component.
NULL_RECORDER = NullRecorder()


class MetricsRegistry(NullRecorder):
    """Thread-safe in-process metrics store.

    One lock guards all three tables; contention is negligible next to
    the linking work being measured (observations are appends and dict
    writes).  Series are keyed by ``(name, sorted(labels))`` so the
    same metric name can carry any number of label combinations.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], float] = {}
        self._gauges: dict[tuple[str, _LabelKey], float] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        # Last exemplar (e.g. a trace id) seen per histogram series —
        # the breadcrumb from an aggregate back to one concrete request.
        self._exemplars: dict[tuple[str, _LabelKey], str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: str) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self, name: str, value: float, exemplar: str | None = None, **labels: str
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
            histogram.observe(value)
            if exemplar:
                self._exemplars[key] = exemplar

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def gauge_value(self, name: str, **labels: str) -> float:
        with self._lock:
            return self._gauges.get((name, _label_key(labels)), 0.0)

    def histogram_summary(self, name: str, **labels: str) -> HistogramSummary:
        with self._lock:
            histogram = self._histograms.get((name, _label_key(labels)))
            if histogram is None:
                return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            return histogram.summary()

    def snapshot(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-serializable view of every series, deterministically sorted."""
        with self._lock:
            counters = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._counters.items())
            ]
            gauges = [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self._gauges.items())
            ]
            histograms = []
            for (name, labels), histogram in sorted(self._histograms.items()):
                series = {
                    "name": name,
                    "labels": dict(labels),
                    **histogram.summary().as_dict(),
                }
                exemplar = self._exemplars.get((name, labels))
                if exemplar:
                    series["exemplar"] = exemplar
                histograms.append(series)
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def estimated_bytes(self) -> int:
        """Byte estimate of the four tables from their sizes, O(series)."""
        with self._lock:
            series = len(self._counters) + len(self._gauges)
            histograms = len(self._histograms)
            samples = sum(len(histogram) for histogram in self._histograms.values())
            exemplars = len(self._exemplars)
        return (
            (series + histograms) * _SERIES_BYTES
            + histograms * _HISTOGRAM_BYTES
            + samples * _SAMPLE_BYTES
            + exemplars * _EXEMPLAR_BYTES
        )

    def memory_roots(self) -> tuple[object, ...]:
        """The four tables, for the memory accountant's deep sampler.

        The table shells are copied under the lock; the histograms inside
        are shared and may gain samples mid-walk, which the deep sampler
        tolerates.
        """
        with self._lock:
            return (
                dict(self._counters),
                dict(self._gauges),
                dict(self._histograms),
                dict(self._exemplars),
            )


def merge_series(
    snapshot: dict[str, list[dict[str, Any]]],
    counters: Iterable[tuple[str, dict[str, str], float]] = (),
    gauges: Iterable[tuple[str, dict[str, str], float]] = (),
) -> dict[str, list[dict[str, Any]]]:
    """Append externally tracked series (e.g. cache counters) to a snapshot.

    Components such as :class:`repro.core.cache.RenderCache` keep their
    own plain-int counters; at scrape time the linker folds them into
    the registry snapshot through this helper so ``/metrics`` and
    ``getMetrics`` see one unified view.
    """
    for name, labels, value in counters:
        snapshot["counters"].append({"name": name, "labels": dict(labels), "value": float(value)})
    for name, labels, value in gauges:
        snapshot["gauges"].append({"name": name, "labels": dict(labels), "value": float(value)})
    return snapshot
