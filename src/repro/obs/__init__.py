"""``repro.obs`` — tracing and metrics.

The pipeline's observability layer, in three small parts:

:mod:`~repro.obs.core`
    ``span("sample", chunk=3)``-style context managers, the one stage
    timer: each produces a structured :class:`SpanRecord` (wall/CPU
    time, parent link, pid/tid, free-form attributes) when tracing is
    on and adds its duration to ``repro_stage_seconds_total{stage,pid}``
    when metrics are on, with near-zero overhead when both are off.
:mod:`~repro.obs.metrics`
    A per-process :class:`MetricsRegistry` of counters, gauges and
    fixed-bucket histograms; engine workers update theirs locally and
    ship deltas back piggybacked on each ``ChunkResult``
    (:func:`flush_wire` / :func:`merge_wire`).
:mod:`~repro.obs.export`
    JSONL span sink, Chrome ``chrome://tracing`` trace-event writer,
    Prometheus text exposition (validated by :mod:`~repro.obs.schema`).

Typical use — trace one collection run::

    from repro import obs
    from repro.study import ExecutionOptions, Sweep

    obs.enable(tracing=True, metrics=True)
    Sweep(codes="repetition").collect(ExecutionOptions(workers=2))
    obs.write_chrome_trace(obs.drain_spans(), "trace.json")
    print(obs.prometheus_text(obs.registry()))
    obs.reset()

or from the CLI: ``repro collect --trace trace.json --profile``.
Everything is off by default; the engine's instrumented hot path costs
a flag test per probe when disabled (CI-guarded by
``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs import core as _core
from repro.obs.core import (
    SpanRecord,
    absorb_spans,
    configure,
    disable,
    drain_spans,
    drain_wire_spans,
    enable,
    event,
    is_metrics,
    is_tracing,
    record_span,
    span,
    spans_from_wire,
    spans_to_wire,
    wire_config,
)
from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    flush_wire,
    format_rate,
    gauge,
    histogram,
    merge_wire,
    registry,
    safe_rate,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "absorb_spans",
    "chrome_trace_events",
    "configure",
    "counter",
    "disable",
    "drain_spans",
    "drain_wire_spans",
    "enable",
    "event",
    "flush_wire",
    "format_rate",
    "gauge",
    "histogram",
    "is_metrics",
    "is_tracing",
    "merge_wire",
    "prometheus_text",
    "record_span",
    "registry",
    "reset",
    "safe_rate",
    "span",
    "spans_from_wire",
    "spans_to_wire",
    "wire_config",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]


def reset() -> None:
    """Disable everything and drop all buffered telemetry.

    The clean-slate teardown between independent runs (and tests):
    flags off, span buffer cleared, metrics registry emptied.
    """
    disable()
    _core._clear()
    registry().clear()
