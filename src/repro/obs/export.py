"""Exporters: JSONL span sink, Chrome trace events, Prometheus text.

Three output formats for the telemetry :mod:`repro.obs` buffers:

* :func:`write_spans_jsonl` — one span-schema JSON object per line
  (machine-diffable, streams well, validated by
  :mod:`repro.obs.schema`);
* :func:`write_chrome_trace` — the Trace Event Format JSON that
  ``chrome://tracing`` / Perfetto load directly: every span becomes a
  complete (``"ph": "X"``) event on its process/thread track; the
  scheduler's ``chunk.queue`` / ``chunk.hold`` spans sit on a ``pid 0``
  pseudo-track so queue waits and reorder stalls are *visible* next to
  the worker spans they surround;
* :func:`prometheus_text` — the text exposition format of the metrics
  registry, the exact payload a future ``repro serve`` health endpoint
  returns.
"""

from __future__ import annotations

import json
import os
from typing import Iterable

from repro.obs.core import SpanRecord
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "chrome_trace_events",
    "prometheus_text",
    "write_chrome_trace",
    "write_prometheus",
    "write_spans_jsonl",
]


def write_spans_jsonl(
    spans: Iterable[SpanRecord], path: str | os.PathLike
) -> int:
    """Write spans as JSONL (one schema object per line); returns count."""
    count = 0
    with open(path, "w") as handle:
        for record in spans:
            handle.write(json.dumps(record.to_json()) + "\n")
            count += 1
    return count


def chrome_trace_events(spans: Iterable[SpanRecord]) -> list[dict]:
    """Spans as Trace Event Format dicts.

    Timestamps are ``perf_counter`` seconds scaled to microseconds —
    the format only needs a consistent timebase, and ``perf_counter``
    is shared across the parent and its workers.
    """
    events = []
    for record in spans:
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.pid,
                "tid": record.tid,
                "args": dict(
                    record.attrs,
                    span_id=record.span_id,
                    parent_id=record.parent_id,
                    cpu_seconds=record.cpu,
                ),
            }
        )
    return events


def write_chrome_trace(
    spans: Iterable[SpanRecord], path: str | os.PathLike
) -> int:
    """Write a ``chrome://tracing``-loadable JSON file; returns the
    number of trace events written."""
    events = chrome_trace_events(spans)
    with open(path, "w") as handle:
        json.dump(
            {"traceEvents": events, "displayTimeUnit": "ms"},
            handle,
        )
        handle.write("\n")
    return len(events)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _prometheus_labels(labels: dict[str, str], extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update({k: str(v) for k, v in extra.items()})
    if not merged:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Counters/gauges render one sample per label set; histograms render
    cumulative ``_bucket{le=...}`` samples plus ``_sum`` and
    ``_count``, the standard client-library shape.
    """
    by_name: dict[str, list[dict]] = {}
    for entry in registry.snapshot():
        by_name.setdefault(entry["name"], []).append(entry)
    lines = []
    for name in sorted(by_name):
        entries = by_name[name]
        lines.append(f"# TYPE {name} {entries[0]['kind']}")
        for entry in entries:
            labels = entry["labels"]
            if entry["kind"] == "histogram":
                cumulative = 0
                for bound, count in entry["buckets"]:
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_prometheus_labels(labels, {'le': repr(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{name}_bucket"
                    f"{_prometheus_labels(labels, {'le': '+Inf'})}"
                    f" {entry['count']}"
                )
                lines.append(
                    f"{name}_sum{_prometheus_labels(labels)} {entry['sum']}"
                )
                lines.append(
                    f"{name}_count{_prometheus_labels(labels)} "
                    f"{entry['count']}"
                )
            else:
                lines.append(
                    f"{name}{_prometheus_labels(labels)} {entry['value']}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    registry: MetricsRegistry, path: str | os.PathLike
) -> None:
    """Write :func:`prometheus_text` to ``path``."""
    with open(path, "w") as handle:
        handle.write(prometheus_text(registry))
