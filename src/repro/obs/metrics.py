"""Process-safe metrics: counters, gauges, histograms, wire shipping.

One :class:`MetricsRegistry` per process.  Engine workers update their
local registry on the chunk hot path and ship the *delta* since the
last chunk back to the parent piggybacked on each ``ChunkResult``
(:meth:`MetricsRegistry.flush_wire`); the parent folds deltas in with
:meth:`MetricsRegistry.merge_wire`.  No cross-process locks, no shared
memory — the transport the chunks already ride is the metrics bus.

Metric identity is ``(name, labels)``: ``counter("repro_stage_seconds_total",
stage="decode", pid="1234")`` and the same name with ``stage="sample"``
are distinct series, exactly like Prometheus label sets (the text
exposition in :mod:`repro.obs.export` renders them as such, and the
future ``repro serve`` health endpoint reads this registry directly).

Histograms use fixed bucket boundaries chosen at creation
(:data:`DEFAULT_BUCKETS` suits second-scale latencies), so worker and
parent histograms of one name always merge bucket-for-bucket.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "flush_wire",
    "format_rate",
    "gauge",
    "histogram",
    "merge_wire",
    "registry",
    "safe_rate",
]

#: Bucket upper bounds (seconds) for latency histograms; +Inf implicit.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelsKey = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, Any]) -> LabelsKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (events, seconds, bytes)."""

    kind = "counter"
    __slots__ = ("value", "_shipped")

    def __init__(self) -> None:
        self.value = 0.0
        self._shipped = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def _wire_payload(self) -> float | None:
        delta = self.value - self._shipped
        if delta == 0.0:
            return None
        self._shipped = self.value
        return delta

    def _merge_payload(self, payload: float) -> None:
        self.value += payload
        # Merged values count as shipped: a parent that also ships
        # onward (future multi-level trees) forwards only its own delta.
        self._shipped += payload


class Gauge:
    """Last-write-wins value (window occupancy, cache entries)."""

    kind = "gauge"
    __slots__ = ("value", "_shipped")

    def __init__(self) -> None:
        self.value = 0.0
        self._shipped = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def _wire_payload(self) -> float | None:
        if self.value == self._shipped:
            return None
        self._shipped = self.value
        return self.value

    def _merge_payload(self, payload: float) -> None:
        self.value = payload
        self._shipped = payload


class Histogram:
    """Fixed-boundary histogram (bucket counts + sum + count)."""

    kind = "histogram"
    __slots__ = ("bounds", "counts", "sum", "count", "_shipped")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if tuple(bounds) != tuple(sorted(bounds)):
            raise ValueError("histogram bounds must be sorted")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0
        self._shipped = ([0] * (len(self.bounds) + 1), 0.0, 0)

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.sum += value
        self.count += 1

    def _wire_payload(self) -> tuple | None:
        shipped_counts, shipped_sum, shipped_count = self._shipped
        if self.count == shipped_count:
            return None
        delta_counts = tuple(
            c - s for c, s in zip(self.counts, shipped_counts)
        )
        payload = (
            self.bounds,
            delta_counts,
            self.sum - shipped_sum,
            self.count - shipped_count,
        )
        self._shipped = (list(self.counts), self.sum, self.count)
        return payload

    def _merge_payload(self, payload: tuple) -> None:
        bounds, delta_counts, delta_sum, delta_count = payload
        if tuple(bounds) != self.bounds:
            raise ValueError(
                f"histogram bucket boundaries diverge: {bounds} vs "
                f"{self.bounds} (fixed boundaries are the merge contract)"
            )
        for i, delta in enumerate(delta_counts):
            self.counts[i] += delta
        self.sum += delta_sum
        self.count += delta_count
        shipped_counts, shipped_sum, shipped_count = self._shipped
        self._shipped = (
            [s + d for s, d in zip(shipped_counts, delta_counts)],
            shipped_sum + delta_sum,
            shipped_count + delta_count,
        )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All metric series of one process, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelsKey], Any] = {}

    def _get(self, cls, name: str, labels: dict[str, Any], *args):
        key = (name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(*args)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        return self._get(
            Histogram, name, labels, buckets if buckets else DEFAULT_BUCKETS
        )

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> list[dict[str, Any]]:
        """Every series as a plain dict (kind, name, labels, value[s])."""
        out = []
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), metric in sorted(items, key=lambda kv: kv[0]):
            entry: dict[str, Any] = {
                "kind": metric.kind,
                "name": name,
                "labels": dict(labels),
            }
            if metric.kind == "histogram":
                entry.update(
                    buckets=list(zip(metric.bounds, metric.counts)),
                    overflow=metric.counts[-1],
                    sum=metric.sum,
                    count=metric.count,
                )
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out

    def value(self, name: str, **labels: Any) -> float | None:
        """A counter/gauge's current value (``None`` if the series does
        not exist); a histogram's observation count."""
        metric = self._metrics.get((name, _labels_key(labels)))
        if metric is None:
            return None
        if metric.kind == "histogram":
            return float(metric.count)
        return metric.value

    def select(
        self, name: str, **fixed: Any
    ) -> list[tuple[dict[str, str], Any]]:
        """Series of ``name`` whose labels include ``fixed``, as
        ``(labels, metric)`` pairs."""
        wanted = _labels_key(fixed)
        out = []
        with self._lock:
            items = list(self._metrics.items())
        for (metric_name, labels), metric in sorted(
            items, key=lambda kv: kv[0]
        ):
            if metric_name != name:
                continue
            if all(pair in labels for pair in wanted):
                out.append((dict(labels), metric))
        return out

    def label_values(self, name: str, label: str) -> list[str]:
        """Sorted distinct values of ``label`` across ``name``'s series."""
        found = set()
        with self._lock:
            keys = list(self._metrics)
        for metric_name, labels in keys:
            if metric_name != name:
                continue
            for key, value in labels:
                if key == label:
                    found.add(value)
        return sorted(found)

    # -- wire shipping ---------------------------------------------------

    def flush_wire(self) -> tuple:
        """The delta since the previous flush, as picklable tuples.

        Series with no change since the last flush are skipped, so a
        worker past its first chunk of a circuit ships only the handful
        of counters each chunk touched.
        """
        out = []
        with self._lock:
            items = list(self._metrics.items())
        for (name, labels), metric in items:
            payload = metric._wire_payload()
            if payload is not None:
                out.append((metric.kind, name, labels, payload))
        return tuple(out)

    def merge_wire(self, wire: Iterable[tuple]) -> None:
        """Fold a worker's :meth:`flush_wire` delta into this registry."""
        for kind, name, labels, payload in wire:
            cls = _KINDS[kind]
            if kind == "histogram":
                metric = self._get(cls, name, dict(labels), payload[0])
            else:
                metric = self._get(cls, name, dict(labels))
            metric._merge_payload(payload)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """This process's global metrics registry."""
    return _REGISTRY


def counter(name: str, **labels: Any) -> Counter:
    """``registry().counter(...)`` (the hot-path spelling)."""
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: Any) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(
    name: str, buckets: tuple[float, ...] | None = None, **labels: Any
) -> Histogram:
    return _REGISTRY.histogram(name, buckets, **labels)


def flush_wire() -> tuple:
    return _REGISTRY.flush_wire()


def merge_wire(wire: Iterable[tuple]) -> None:
    _REGISTRY.merge_wire(wire)


# -- division-safe rate helpers ----------------------------------------------


def safe_rate(count: float, seconds: float) -> float | None:
    """``count / seconds``, or ``None`` when it would be meaningless.

    Zero-shot tasks and ~0-wall-second chunks happen (fully resumed
    runs, trivially small workloads); every rate a benchmark or profile
    table prints goes through here so none of them can raise
    ``ZeroDivisionError`` or report ``inf``.
    """
    if not seconds or seconds <= 0.0 or not math.isfinite(seconds):
        return None
    return count / seconds


def format_rate(count: float, seconds: float, fmt: str = "{:,.0f}") -> str:
    """``safe_rate`` rendered for tables — ``"-"`` when undefined."""
    rate = safe_rate(count, seconds)
    return "-" if rate is None else fmt.format(rate)
