"""Tracing core: the pipeline's one stage timer.

A span is one timed region of the pipeline — ``with span("sample",
chunk=3): ...``.  Its exit takes one clock reading, which feeds both
outputs: with tracing on, a :class:`SpanRecord` carrying wall and CPU
time, the process/thread that ran it, a parent link (spans nest via a
thread-local stack), and free-form attributes (task ``strong_id``,
chunk index, payload byte sizes, cache hit/miss tags); with metrics
on, the duration added to ``repro_stage_seconds_total{stage=<name>,
pid}``.  :func:`record_span` does the same for an interval measured
from existing stamps (the scheduler's ``chunk.queue``/``chunk.hold``).
Events are zero-duration records and are not counted.

The design constraint is the *disabled* path: collection hot loops call
:func:`span` unconditionally, so when both tracing and metrics are off
it must cost a single flag test plus returning a shared no-op context
manager — no clocks, no allocation beyond the call's own kwargs.  The
engine's overhead gate (``benchmarks/bench_obs_overhead.py``) holds
this to measurement.

Worker processes buffer their finished spans locally;
:func:`drain_wire_spans` converts the buffer to a picklable tuple that
rides back to the parent on each ``ChunkResult``, where
:func:`absorb_spans` folds it into the parent's buffer.  The pool
initializer ships :func:`wire_config` so spawned workers inherit the
parent's enable flags (forked workers inherit them for free).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.metrics import counter

__all__ = [
    "SpanRecord",
    "absorb_spans",
    "configure",
    "disable",
    "drain_spans",
    "drain_wire_spans",
    "enable",
    "event",
    "is_metrics",
    "is_tracing",
    "record_span",
    "span",
    "spans_from_wire",
    "spans_to_wire",
    "wire_config",
]


@dataclass
class SpanRecord:
    """One finished span: a named, timed, attributed region."""

    name: str
    start: float  # perf_counter seconds (monotonic, shared per machine)
    duration: float
    cpu: float  # process_time delta over the region
    pid: int
    tid: int
    span_id: str
    parent_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        """The span-schema dict (see :mod:`repro.obs.schema`)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "cpu": self.cpu,
            "pid": self.pid,
            "tid": self.tid,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "attrs": self.attrs,
        }

    def to_wire(self) -> tuple:
        """A compact picklable tuple (worker -> parent transport)."""
        return (
            self.name,
            self.start,
            self.duration,
            self.cpu,
            self.pid,
            self.tid,
            self.span_id,
            self.parent_id,
            tuple(self.attrs.items()),
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "SpanRecord":
        name, start, duration, cpu, pid, tid, span_id, parent_id, attrs = wire
        return cls(
            name=name,
            start=start,
            duration=duration,
            cpu=cpu,
            pid=pid,
            tid=tid,
            span_id=span_id,
            parent_id=parent_id,
            attrs=dict(attrs),
        )


class _State:
    __slots__ = ("tracing", "metrics", "timing")

    def __init__(self) -> None:
        self.tracing = False
        self.metrics = False
        self.timing = False  # tracing or metrics: the span gate

    def set(self, tracing: bool, metrics: bool) -> None:
        self.tracing = bool(tracing)
        self.metrics = bool(metrics)
        self.timing = self.tracing or self.metrics


_state = _State()
_lock = threading.Lock()
_finished: list[SpanRecord] = []
_ids = itertools.count(1)
_local = threading.local()


def is_tracing() -> bool:
    """Whether spans are being recorded (the hot-path gate)."""
    return _state.tracing


def is_metrics() -> bool:
    """Whether the metrics registry is being updated."""
    return _state.metrics


def enable(*, tracing: bool = True, metrics: bool = True) -> None:
    """Turn tracing and/or metrics collection on.

    Flags only — existing buffered spans and metric values survive, so
    enabling mid-run never discards telemetry.
    """
    _state.set(tracing, metrics)


def disable() -> None:
    """Turn both tracing and metrics off (buffers are kept; see
    :func:`repro.obs.reset` to also clear them)."""
    _state.set(False, False)


def wire_config() -> tuple[bool, bool]:
    """The enable flags as a picklable snapshot (pool ``initargs``)."""
    return (_state.tracing, _state.metrics)


def configure(config: tuple[bool, bool]) -> None:
    """Apply a :func:`wire_config` snapshot (worker-side initializer)."""
    _state.set(*config)


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _next_id() -> str:
    return f"{os.getpid()}:{next(_ids)}"


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "span_id", "parent_id", "_start", "_cpu")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id: str | None = None  # set when entered traced
        self.parent_id: str | None = None
        self._start = 0.0
        self._cpu = 0.0

    def set(self, **attrs: Any) -> "_Span":
        """Attach attributes discovered inside the region — or after it:
        the finished record shares this attribute dict, so a late
        ``set`` lands on it until the record is drained."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        if _state.tracing:
            self.span_id = _next_id()
            stack = _stack()
            if stack:
                self.parent_id = stack[-1].span_id
            stack.append(self)
            self._cpu = time.process_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._start
        if self.span_id is not None:
            cpu = time.process_time() - self._cpu
            stack = _stack()
            if stack and stack[-1] is self:
                stack.pop()
            _append(
                SpanRecord(
                    name=self.name,
                    start=self._start,
                    duration=duration,
                    cpu=cpu,
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    span_id=self.span_id,
                    parent_id=self.parent_id,
                    attrs=self.attrs,
                )
            )
        if _state.metrics:
            _count_stage(self.name, duration, os.getpid())
        return False


def _append(record: SpanRecord) -> None:
    with _lock:
        _finished.append(record)


def _count_stage(name: str, duration: float, pid: int) -> None:
    counter("repro_stage_seconds_total", stage=name, pid=str(pid)).inc(
        duration
    )


def span(name: str, **attrs: Any):
    """A context manager timing one named region (no-op when disabled).

    Attributes are free-form JSON-compatible values; more can be added
    via ``.set(**attrs)`` on the yielded span, inside the region or
    after it until the record is drained.
    """
    if not _state.timing:
        return _NOOP
    return _Span(name, attrs)


def record_span(
    name: str,
    start: float,
    duration: float,
    *,
    pid: int | None = None,
    tid: int | None = None,
    **attrs: Any,
) -> None:
    """Record an interval measured from existing ``perf_counter`` stamps.

    Feeds the same two outputs as :func:`span`: a trace record when
    tracing is on, ``repro_stage_seconds_total{stage=name, pid}`` when
    metrics are on.  ``pid``/``tid`` default to the calling process and
    thread; the scheduler passes ``pid=0`` (its pseudo-track) and the
    chunk index as ``tid``.
    """
    pid = os.getpid() if pid is None else pid
    if _state.tracing:
        _append(
            SpanRecord(
                name=name,
                start=start,
                duration=duration,
                cpu=0.0,
                pid=pid,
                tid=threading.get_ident() if tid is None else tid,
                span_id=_next_id(),
                attrs=attrs,
            )
        )
    if _state.metrics:
        _count_stage(name, duration, pid)


def event(name: str, **attrs: Any) -> None:
    """Record an instantaneous (zero-duration, uncounted) span."""
    if not _state.tracing:
        return
    stack = _stack()
    _append(
        SpanRecord(
            name=name,
            start=time.perf_counter(),
            duration=0.0,
            cpu=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=_next_id(),
            parent_id=stack[-1].span_id if stack else None,
            attrs=attrs,
        )
    )


def drain_spans() -> list[SpanRecord]:
    """Remove and return every buffered finished span."""
    with _lock:
        out = _finished[:]
        _finished.clear()
    return out


def spans_to_wire(records: Iterable[SpanRecord]) -> tuple:
    """Picklable wire form of ``records``."""
    return tuple(record.to_wire() for record in records)


def spans_from_wire(wire: Iterable[tuple]) -> list[SpanRecord]:
    """Decode :func:`spans_to_wire` output."""
    return [SpanRecord.from_wire(entry) for entry in wire]


def drain_wire_spans() -> tuple:
    """Drain the buffer directly to wire form (worker hot path)."""
    return spans_to_wire(drain_spans())


def absorb_spans(wire: Iterable[tuple]) -> None:
    """Fold a worker's shipped spans into this process's buffer."""
    records = spans_from_wire(wire)
    with _lock:
        _finished.extend(records)


def _clear() -> None:
    """Drop buffered spans (used by :func:`repro.obs.reset`)."""
    with _lock:
        _finished.clear()
