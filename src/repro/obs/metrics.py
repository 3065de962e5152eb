"""Process-global metrics registry: counters, gauges, histogram timers.

The VGBL runtime is instrumented at its hot paths — event dispatch,
scenario transitions, streaming, the segment cache, parallel encoding —
through this module.  Design constraints, in priority order:

1. **Zero cost when disabled.**  Instrumentation is off by default; the
   module-level :data:`_ENABLED` flag gates every recording method with a
   single boolean check, and timing helpers return a shared no-op
   context manager so call sites never take a clock sample.  Enable with
   :func:`enable` or the ``REPRO_OBS=1`` environment variable.
2. **No dependencies.**  Pure stdlib; the registry is a plain process
   global (one runtime process = one metrics scope, like a Prometheus
   client default registry).
3. **Labeled series.**  Every metric holds one series per label set
   (``counter.inc(policy="lru")``), keyed by the sorted label items, so
   exports carry the same dimensional structure real collectors expect.
   The sorted key is cached per call-site ``tuple(labels.items())``; a
   per-op call site binds its label child once instead
   (``counter.labels(trigger="click").inc()``) and skips the key.
4. **No shared lock on the recording path.**  Serve shard threads and
   the gateway loop bump the same counters dozens of times per session.
   ``Counter.inc`` and ``Histogram.observe`` therefore write, unlocked,
   into a cell owned by the calling thread (a ``threading.local``,
   registered in a map keyed by thread ident).  Reads (``series``,
   ``value``, ``total``, ``count_of``, ``snapshot``) merge the cells
   under the metric's lock, so every sum is exact; the cells of threads
   that have exited are folded into the merged series, so memory does
   not grow with thread churn.  ``Gauge`` keeps its lock: ``set`` is
   last-writer-wins and has no per-thread sum to merge.

The registry only *collects*; rendering lives in
:mod:`repro.obs.export` and tracing in :mod:`repro.obs.tracing`.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "BoundCounter",
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "TimeSeriesRing",
    "counter",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "get_registry",
    "get_ring",
    "histogram",
    "reset",
    "set_enabled",
    "snapshot",
]


class MetricError(ValueError):
    """Raised on invalid metric definitions or type clashes."""


#: Module-level master switch.  Checked first in every recording method:
#: when False, instrumented code paths reduce to one attribute load and
#: one boolean test.
_ENABLED: bool = os.environ.get("REPRO_OBS", "").strip().lower() in (
    "1",
    "true",
    "on",
    "yes",
)


def enabled() -> bool:
    """Whether instrumentation is currently recording."""
    return _ENABLED


def set_enabled(flag: bool) -> None:
    """Turn recording on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(flag)


def enable() -> None:
    """Turn recording on (equivalent to ``REPRO_OBS=1``)."""
    set_enabled(True)


def disable() -> None:
    """Turn recording off; already-collected series are kept."""
    set_enabled(False)


#: Latency-oriented default histogram buckets (seconds, upper bounds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    """Normalise a label dict to a hashable, sorted key of strings."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _NullTimer:
    """Shared no-op context manager returned by timers when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Metric:
    """Common base: a named metric holding labeled series."""

    kind = "untyped"

    __slots__ = ("name", "help", "_series", "_lock", "_keys")

    def __init__(self, name: str, help_text: str = "") -> None:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        if name[0].isdigit():
            raise MetricError(f"metric name must not start with a digit: {name!r}")
        self.name = name
        self.help = help_text
        self._series: Dict[LabelKey, Any] = {}
        self._lock = threading.Lock()
        #: call-site ``tuple(labels.items())`` -> normalised label key
        self._keys: Dict[Tuple[Tuple[str, Any], ...], LabelKey] = {}

    def _key(self, labels: Dict[str, Any]) -> LabelKey:
        """``_label_key(labels)``, cached by the call site's item order."""
        if not labels:
            return ()
        items = tuple(labels.items())
        try:
            return self._keys[items]
        except KeyError:
            key = self._keys[items] = _label_key(labels)
            return key
        except TypeError:  # an unhashable label value: normalise uncached
            return _label_key(labels)

    def clear(self) -> None:
        """Drop all collected series (the definition survives)."""
        with self._lock:
            self._series.clear()
            self._keys.clear()

    def series(self) -> List[Tuple[LabelKey, Any]]:
        """Stable-ordered (label_key, value) pairs."""
        with self._lock:
            return sorted(self._series.items())


class _CellMetric(_Metric):
    """A metric recorded into per-thread cells and merged on read.

    Each recording thread owns one cell (``{label_key: value}``), found
    through a ``threading.local`` and written without a lock; ``_cells``
    maps thread ident -> ``(thread, cell)`` so readers can find every
    cell.  ``_series`` holds what the cells of exited threads folded
    into.  Subclasses say how to fold one cell value into another.
    """

    __slots__ = ("_local", "_cells")

    def __init__(self, name: str, help_text: str = "") -> None:
        super().__init__(name, help_text)
        self._local = threading.local()
        self._cells: Dict[int, Tuple[threading.Thread, Dict[LabelKey, Any]]] = {}

    def _new_cell(self) -> Dict[LabelKey, Any]:
        """Register the calling thread's cell (first write per thread)."""
        cell: Dict[LabelKey, Any] = {}
        with self._lock:
            self._fold_dead()
            ident = threading.get_ident()
            # an ident is reused only once its previous owner has exited
            old = self._cells.pop(ident, None)
            if old is not None:
                self._fold(self._series, old[1])
            self._cells[ident] = (threading.current_thread(), cell)
            self._local.cell = cell
        return cell

    def _fold_dead(self) -> None:
        """Fold the cells of exited threads into ``_series`` (lock held)."""
        for ident, (thread, cell) in list(self._cells.items()):
            if not thread.is_alive():
                del self._cells[ident]
                self._fold(self._series, cell)

    def _fold(self, into: Dict[LabelKey, Any], cell: Dict[LabelKey, Any]) -> None:
        raise NotImplementedError

    def _merged(self) -> Dict[LabelKey, Any]:
        """Every series summed over the folded map and all live cells."""
        with self._lock:
            self._fold_dead()
            merged: Dict[LabelKey, Any] = {}
            self._fold(merged, self._series)
            for _thread, cell in self._cells.values():
                # dict.copy() runs without releasing the GIL, so a
                # concurrent writer cannot resize the cell under us
                self._fold(merged, cell.copy())
        return merged

    def clear(self) -> None:
        """Drop every cell and the folded series.

        Threads re-register on their next write; a write racing the
        clear lands in a dropped cell, as if it came just before it.
        """
        with self._lock:
            self._local = threading.local()
            self._cells.clear()
            self._series.clear()
            self._keys.clear()

    def series(self) -> List[Tuple[LabelKey, Any]]:
        return sorted(self._merged().items())


class Counter(_CellMetric):
    """Monotonically increasing count (events, bytes, errors)."""

    kind = "counter"
    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labeled series."""
        if not _ENABLED:
            return
        self._add(self._key(labels) if labels else (), amount)

    def _add(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._new_cell()
        cell[key] = cell.get(key, 0.0) + amount

    def labels(self, **labels: Any) -> "BoundCounter":
        """The series for ``labels``, bound once for a per-op call site."""
        return BoundCounter(self, _label_key(labels))

    def _fold(self, into: Dict[LabelKey, Any], cell: Dict[LabelKey, Any]) -> None:
        for key, value in cell.items():
            into[key] = into.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        """Current value of one labeled series (0.0 if never touched)."""
        return self._merged().get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over all labeled series."""
        return sum(self._merged().values())


class BoundCounter:
    """One labeled series of a :class:`Counter`, its key computed once."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: LabelKey) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if _ENABLED:
            self._counter._add(self._key, amount)


class Gauge(_Metric):
    """A value that can go up and down (active sessions, utilization)."""

    kind = "gauge"
    __slots__ = ()

    def set(self, value: float, **labels: Any) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not _ENABLED:
            return
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0.0)


class _HistogramSeries:
    """One labeled series: per-bucket counts + sum + count.

    Cells record ``counts`` and ``sum`` only; ``count`` is filled in at
    merge time as ``sum(counts)``, so a read racing a write never sees a
    count that disagrees with its buckets.
    """

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_CellMetric):
    """Distribution of observations over fixed upper-bound buckets.

    ``observe()`` files a value into the first bucket whose upper bound
    is >= the value (the last, implicit bucket is +Inf); ``time()``
    returns a context manager that observes elapsed wall seconds — or a
    shared no-op when recording is disabled, so the clock is never read.
    """

    kind = "histogram"
    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help_text)
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(f"bucket bounds must strictly increase: {bounds}")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        if not _ENABLED:
            return
        key = self._key(labels) if labels else ()
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._new_cell()
        series = cell.get(key)
        if series is None:
            series = cell[key] = _HistogramSeries(len(self.buckets))
        # NaN compares false with every bound: it belongs in +Inf
        idx = bisect_left(self.buckets, value) if value == value else -1
        series.counts[idx] += 1
        series.sum += value

    def _fold(self, into: Dict[LabelKey, Any], cell: Dict[LabelKey, Any]) -> None:
        for key, src in cell.items():
            dst = into.get(key)
            if dst is None:
                dst = into[key] = _HistogramSeries(len(self.buckets))
            dst.counts = [a + b for a, b in zip(dst.counts, src.counts)]
            dst.sum += src.sum
            dst.count = sum(dst.counts)

    def time(self, **labels: Any) -> "_Timer | _NullTimer":
        """Context manager observing elapsed seconds; no-op when disabled."""
        if not _ENABLED:
            return _NULL_TIMER
        return _Timer(self, labels)

    def count_of(self, **labels: Any) -> int:
        series = self._merged().get(_label_key(labels))
        return series.count if series is not None else 0

    def sum_of(self, **labels: Any) -> float:
        series = self._merged().get(_label_key(labels))
        return series.sum if series is not None else 0.0


class _Timer:
    """Times a ``with`` block into a histogram (exception-safe)."""

    __slots__ = ("_hist", "_labels", "_start")

    def __init__(self, hist: Histogram, labels: Dict[str, Any]) -> None:
        self._hist = hist
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._hist.observe(time.perf_counter() - self._start, **self._labels)


class MetricsRegistry:
    """Get-or-create home for all metrics of one process.

    ``counter``/``gauge``/``histogram`` are idempotent by name: the
    first call defines the metric, later calls return the same object
    (type clashes raise :class:`MetricError`).  That lets every
    instrumented module declare its handles at import time without a
    central manifest.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help_text: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            metric = cls(name, help_text, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help_text)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help_text, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        return self._metrics.get(name)

    def __iter__(self) -> Iterator[_Metric]:
        return iter(sorted(self._metrics.values(), key=lambda m: m.name))

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Clear all collected series; definitions stay registered."""
        for metric in self._metrics.values():
            metric.clear()

    def snapshot(self) -> Dict[str, Any]:
        """A plain-data dump of every metric, for export/serialisation.

        The structure is stable and JSON-safe::

            {"enabled": bool,
             "metrics": [
               {"name": ..., "kind": "counter"|"gauge", "help": ...,
                "series": [{"labels": {...}, "value": float}]},
               {"name": ..., "kind": "histogram", "help": ...,
                "buckets": [...],
                "series": [{"labels": {...}, "counts": [...],
                            "sum": float, "count": int}]},
             ]}
        """
        out: List[Dict[str, Any]] = []
        for metric in self:
            entry: Dict[str, Any] = {
                "name": metric.name,
                "kind": metric.kind,
                "help": metric.help,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
                entry["series"] = [
                    {
                        "labels": dict(key),
                        "counts": list(series.counts),
                        "sum": series.sum,
                        "count": series.count,
                    }
                    for key, series in metric.series()
                ]
            else:
                entry["series"] = [
                    {"labels": dict(key), "value": value}
                    for key, value in metric.series()
                ]
            out.append(entry)
        return {"enabled": _ENABLED, "metrics": out}


class TimeSeriesRing:
    """Bounded history of scalar metric samples — the dashboard's memory.

    A snapshot is a point in time; ``repro top`` sparklines and the
    telemetry endpoint's ``/history`` route need *series*.  The ring
    reduces each metric of a snapshot to one scalar (counters/gauges:
    sum over labeled series; histograms: total observation count),
    stamps it with a wall-clock time, and keeps the newest ``capacity``
    samples.  Sampling cadence is the caller's business (the gateway's
    telemetry server ticks it; ``repro top`` samples once per frame).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise MetricError("ring capacity must be >= 1")
        self.capacity = capacity
        self._samples: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    @staticmethod
    def reduce(snap: Dict[str, Any]) -> Dict[str, float]:
        """Collapse one registry snapshot to ``{metric_name: scalar}``."""
        values: Dict[str, float] = {}
        for metric in snap.get("metrics", []):
            series = metric.get("series", [])
            if metric.get("kind") == "histogram":
                values[metric["name"]] = float(
                    sum(s.get("count", 0) for s in series)
                )
            else:
                values[metric["name"]] = float(
                    sum(s.get("value", 0.0) for s in series)
                )
        return values

    def sample(
        self,
        snap: Optional[Dict[str, Any]] = None,
        at: Optional[float] = None,
    ) -> Dict[str, float]:
        """Append one sample (of ``snap``, default: the global registry)."""
        if snap is None:
            snap = REGISTRY.snapshot()
        values = self.reduce(snap)
        entry = {"t": time.time() if at is None else at, "values": values}
        with self._lock:
            self._samples.append(entry)
            if len(self._samples) > self.capacity:
                del self._samples[: len(self._samples) - self.capacity]
        return values

    def samples(self) -> List[Dict[str, Any]]:
        """All retained samples, oldest first (shallow copies)."""
        with self._lock:
            return [
                {"t": s["t"], "values": dict(s["values"])}
                for s in self._samples
            ]

    def series(self, name: str) -> List[Tuple[float, float]]:
        """``(t, value)`` history of one metric (0.0 where absent)."""
        with self._lock:
            return [
                (s["t"], float(s["values"].get(name, 0.0)))
                for s in self._samples
            ]

    def names(self) -> List[str]:
        """Every metric name seen in any retained sample, sorted."""
        seen: set = set()
        with self._lock:
            for s in self._samples:
                seen.update(s["values"])
        return sorted(seen)

    def clear(self) -> None:
        with self._lock:
            self._samples.clear()

    def __len__(self) -> int:
        return len(self._samples)


#: The process-global registry every instrumented module uses.
REGISTRY = MetricsRegistry()

#: The process-global sample history (``obs.reset()`` clears it).
RING = TimeSeriesRing()


def get_ring() -> TimeSeriesRing:
    """The process-global time-series ring."""
    return RING


def get_registry() -> MetricsRegistry:
    """The process-global registry."""
    return REGISTRY


def counter(name: str, help_text: str = "") -> Counter:
    """Get-or-create a counter on the global registry."""
    return REGISTRY.counter(name, help_text)


def gauge(name: str, help_text: str = "") -> Gauge:
    """Get-or-create a gauge on the global registry."""
    return REGISTRY.gauge(name, help_text)


def histogram(
    name: str, help_text: str = "", buckets: Optional[Sequence[float]] = None
) -> Histogram:
    """Get-or-create a histogram on the global registry."""
    return REGISTRY.histogram(name, help_text, buckets=buckets)


def snapshot() -> Dict[str, Any]:
    """Snapshot the global registry."""
    return REGISTRY.snapshot()


def reset() -> None:
    """Reset all series on the global registry."""
    REGISTRY.reset()
