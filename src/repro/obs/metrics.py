"""Dependency-free metrics registry: counters, gauges, histograms.

Every instrument is a *labeled series*:
``registry.counter("annotation_triples_total", evaluator="ReservoirIncrementalEvaluator")``
returns the one series for that (name, labels) pair, creating it on first
use.  Series are cheap to update (one small lock each), safe to touch from
any thread, and never touch numpy RNG streams — recording a metric can never
perturb a sampling trajectory.

Timing sources are injectable: a registry built with a fake monotonic clock
produces bit-reproducible histograms in tests, while the default uses
:func:`time.perf_counter`.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts and
merge associatively across processes/nodes (:func:`merge_snapshots`):
counters and histogram buckets sum, gauges keep the last value seen,
histogram min/max widen.  :meth:`MetricsRegistry.export` writes one snapshot
(plus caller metadata) as a JSON file — the unit `repro metrics summarize`
consumes.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "snapshot",
    "export",
    "reset",
    "merge_snapshots",
]

#: Upper bucket bounds (seconds-ish scale) for histograms; the implicit final
#: bucket is +inf.  Chosen to span microsecond draws to minute-long runs.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class _Series:
    """Base for one labeled time series."""

    __slots__ = ("name", "labels", "_lock")
    kind = "series"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = {str(key): str(value) for key, value in labels.items()}
        self._lock = threading.Lock()

    def _base_snapshot(self) -> dict:
        return {"name": self.name, "kind": self.kind, "labels": dict(self.labels)}


class Counter(_Series):
    """Monotonically increasing value (floats allowed, e.g. cost seconds)."""

    __slots__ = ("_value",)
    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> dict:
        out = self._base_snapshot()
        out["value"] = self._value
        return out


class Gauge(_Series):
    """Point-in-time value that can move both ways (e.g. window occupancy)."""

    __slots__ = ("_value",)
    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> dict:
        out = self._base_snapshot()
        out["value"] = self._value
        return out


class Histogram(_Series):
    """Counted/summed observations with fixed upper-bound buckets."""

    __slots__ = ("buckets", "_counts", "_count", "_sum", "_min", "_max", "_clock")
    kind = "histogram"

    def __init__(self, name: str, labels: dict, *, buckets=DEFAULT_BUCKETS, clock=None) -> None:
        super().__init__(name, labels)
        self.buckets = tuple(float(bound) for bound in buckets)
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None
        self._clock = clock if clock is not None else time.perf_counter

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            slot = len(self.buckets)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    slot = index
                    break
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            self._min = value if self._min is None else min(self._min, value)
            self._max = value if self._max is None else max(self._max, value)

    def time(self) -> "_Timer":
        """Context manager observing the elapsed clock time of its body."""
        return _Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _snapshot(self) -> dict:
        out = self._base_snapshot()
        with self._lock:
            out.update(
                {
                    "count": self._count,
                    "sum": self._sum,
                    "min": self._min,
                    "max": self._max,
                    "bounds": list(self.buckets),
                    "bucket_counts": list(self._counts),
                }
            )
        return out


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = None

    def __enter__(self) -> "_Timer":
        self._start = self._histogram._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(self._histogram._clock() - self._start)


class MetricsRegistry:
    """Process-local home for labeled series; snapshot/export as JSON."""

    def __init__(self, *, clock=None) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self._lock = threading.Lock()
        self._series: dict[tuple, _Series] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs) -> _Series:
        key = (name, _label_key(labels))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = cls(name, labels, **kwargs)
                self._series[key] = series
            elif not isinstance(series, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {series.kind}, not {cls.kind}"
                )
            return series

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, *, buckets=DEFAULT_BUCKETS, **labels) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets, clock=self.clock)

    def snapshot(self) -> dict:
        """One JSON-able snapshot of every series in this registry."""
        with self._lock:
            series = list(self._series.values())
        return {"series": [item._snapshot() for item in series]}

    def export(self, path, *, meta: dict | None = None) -> dict:
        """Write ``{"meta": ..., "series": [...]}`` to *path*; returns the dict."""
        payload = self.snapshot()
        payload["meta"] = dict(meta or {})
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return payload

    def reset(self) -> None:
        """Drop every series (tests and fresh CLI runs)."""
        with self._lock:
            self._series.clear()


def _series_merge_key(entry: dict) -> tuple:
    return (entry["name"], entry["kind"], _label_key(entry.get("labels", {})))


def merge_snapshots(snapshots) -> dict:
    """Merge snapshot dicts: counters/buckets sum, gauges last-wins, extrema widen."""
    merged: dict[tuple, dict] = {}
    for snap in snapshots:
        for entry in snap.get("series", []):
            key = _series_merge_key(entry)
            into = merged.get(key)
            if into is None:
                merged[key] = json.loads(json.dumps(entry))  # deep copy, JSON-able by contract
                continue
            kind = entry["kind"]
            if kind == "counter":
                into["value"] += entry["value"]
            elif kind == "gauge":
                into["value"] = entry["value"]
            elif kind == "histogram":
                into["count"] += entry["count"]
                into["sum"] += entry["sum"]
                if entry["min"] is not None:
                    into["min"] = (
                        entry["min"] if into["min"] is None else min(into["min"], entry["min"])
                    )
                if entry["max"] is not None:
                    into["max"] = (
                        entry["max"] if into["max"] is None else max(into["max"], entry["max"])
                    )
                if into.get("bounds") == entry.get("bounds"):
                    into["bucket_counts"] = [
                        a + b for a, b in zip(into["bucket_counts"], entry["bucket_counts"])
                    ]
    return {"series": list(merged.values())}


#: The process-default registry every instrumented layer records into.
_default = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-default registry (what the module-level helpers record into)."""
    return _default


def counter(name: str, **labels) -> Counter:
    """The default registry's counter series for ``(name, labels)``."""
    return _default.counter(name, **labels)


def gauge(name: str, **labels) -> Gauge:
    """The default registry's gauge series for ``(name, labels)``."""
    return _default.gauge(name, **labels)


def histogram(name: str, *, buckets=DEFAULT_BUCKETS, **labels) -> Histogram:
    """The default registry's histogram series for ``(name, labels)``."""
    return _default.histogram(name, buckets=buckets, **labels)


def snapshot() -> dict:
    """JSON-ready dump of every series in the default registry."""
    return _default.snapshot()


def export(path, *, meta: dict | None = None) -> dict:
    """Write the default registry's snapshot (plus ``meta``) to ``path``."""
    return _default.export(path, meta=meta)


def reset() -> None:
    """Drop every series in the default registry (test/benchmark scoping)."""
    _default.reset()
