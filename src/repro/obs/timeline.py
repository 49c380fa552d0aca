"""Per-chunk lifecycle timelines: submit -> start -> finish -> yield.

The chunk scheduler (:class:`repro.engine.workers.ChunkRunner`) stamps
four moments for every chunk it runs — when the feeder *submitted* the
spec to the pool, when a worker *started* and *finished* it (shipped
back on the ``ChunkResult``), when the parent *received* the result,
and when the reorder buffer finally *yielded* it downstream.  A
:class:`ChunkTimeline` holds those stamps plus the pickled payload
sizes, and derives the three quantities the workers-N scaling question
needs:

* :attr:`~ChunkTimeline.queue_wait_seconds` — submit to worker start
  (pool queue depth + pickle/transport cost on the way out);
* :attr:`~ChunkTimeline.worker_seconds` — in-worker busy time;
* :attr:`~ChunkTimeline.hold_seconds` — received to yielded (how long
  the order-restoring buffer parked a finished result behind a slow
  head-of-line chunk).

All stamps come from ``time.perf_counter()``, which on the platforms
the engine targets is a system-wide monotonic clock, so parent and
(forked/spawned) worker stamps are directly comparable; derived
durations are clamped at zero to absorb any residual clock skew.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs.core import SpanRecord

__all__ = ["ChunkTimeline", "drain_timelines", "peek_timelines", "record_timeline"]


@dataclass(frozen=True)
class ChunkTimeline:
    """One chunk's full lifecycle through the scheduler."""

    task_id: str
    chunk_index: int
    shots: int
    pid: int
    submitted_at: float
    started_at: float
    finished_at: float
    received_at: float
    yielded_at: float
    spec_bytes: int = 0
    result_bytes: int = 0
    #: Which wire carried the chunk: ``"inproc"`` (serial) or
    #: ``"pickle"`` (pooled).
    transport: str = "inproc"
    #: Which execution attempt produced the result (0 = first try; a
    #: nonzero value means earlier attempts were lost to a worker
    #: crash, an expired lease, or an in-chunk failure and retried).
    attempt: int = 0

    @property
    def queue_wait_seconds(self) -> float:
        """Submit to worker start (transport out + pool queue wait)."""
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def worker_seconds(self) -> float:
        """In-worker busy time (sample + decode + setup)."""
        return max(0.0, self.finished_at - self.started_at)

    @property
    def return_seconds(self) -> float:
        """Worker finish to parent receive (result transport back)."""
        return max(0.0, self.received_at - self.finished_at)

    @property
    def hold_seconds(self) -> float:
        """Time parked in the order-restoring reorder buffer."""
        return max(0.0, self.yielded_at - self.received_at)

    @property
    def latency_seconds(self) -> float:
        """Submit to yield: the chunk's whole pipeline latency."""
        return max(0.0, self.yielded_at - self.submitted_at)

    @property
    def transport_bytes(self) -> int:
        """Pickled payload bytes both ways (0 for in-process runs)."""
        return self.spec_bytes + self.result_bytes

    def to_spans(self) -> list[SpanRecord]:
        """The parent-side phases as span records for trace export.

        The in-worker phase is already traced by the worker's own
        ``chunk``/``sample``/``decode`` spans; these cover the two
        scheduler-side gaps around it.  ``tid`` carries the chunk index
        so a Chrome trace lays sibling chunks out on separate rows.
        """
        attrs = {
            "task": self.task_id,
            "chunk": self.chunk_index,
            "shots": self.shots,
            "worker_pid": self.pid,
        }
        spans = []
        for name, start, duration in (
            ("chunk.queue", self.submitted_at, self.queue_wait_seconds),
            ("chunk.hold", self.received_at, self.hold_seconds),
        ):
            spans.append(
                SpanRecord(
                    name=name,
                    start=start,
                    duration=duration,
                    cpu=0.0,
                    pid=0,  # scheduler pseudo-track, distinct from workers
                    tid=self.chunk_index,
                    span_id=f"tl:{self.task_id[:8]}:{self.chunk_index}:{name}",
                    parent_id=None,
                    attrs=dict(attrs, spec_bytes=self.spec_bytes,
                               result_bytes=self.result_bytes,
                               transport=self.transport),
                )
            )
        return spans


_lock = threading.Lock()
_timelines: list[ChunkTimeline] = []


def record_timeline(timeline: ChunkTimeline) -> None:
    """Buffer one finished chunk's timeline (caller gates on enablement)."""
    with _lock:
        _timelines.append(timeline)


def peek_timelines() -> list[ChunkTimeline]:
    """The buffered timelines, without clearing them."""
    with _lock:
        return _timelines[:]


def drain_timelines() -> list[ChunkTimeline]:
    """Remove and return every buffered timeline."""
    with _lock:
        out = _timelines[:]
        _timelines.clear()
    return out


def _clear() -> None:
    with _lock:
        _timelines.clear()
