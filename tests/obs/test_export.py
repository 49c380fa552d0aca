"""Exporters and schema: JSONL, Chrome trace JSON, Prometheus text."""

import json

import pytest

import repro.obs as obs
from repro.obs.core import SpanRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    validate_chrome_event,
    validate_span,
    validate_trace_file,
)


def _span(name="work", **attrs):
    return SpanRecord(
        name=name, start=1.0, duration=0.5, cpu=0.4, pid=10, tid=2,
        span_id="10:1", parent_id=None, attrs=attrs,
    )


def _scheduler_spans(chunk=3):
    """One chunk's ``chunk.queue``/``chunk.hold`` pair, as the runner
    records them on the ``pid 0`` scheduler track."""
    attrs = dict(task="abcdef0123456789", chunk=chunk, shots=100,
                 worker_pid=10, spec_bytes=50, result_bytes=70,
                 transport="pickle", attempt=0)
    return [
        SpanRecord(name=name, start=start, duration=duration, cpu=0.0,
                   pid=0, tid=chunk, span_id=f"0:{name}", attrs=attrs)
        for name, start, duration in (
            ("chunk.queue", 1.0, 0.2), ("chunk.hold", 1.9, 0.1),
        )
    ]


class TestJsonl:
    def test_write_and_validate(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        count = obs.write_spans_jsonl([_span(), _span("other", chunk=1)], path)
        assert count == 2
        assert validate_trace_file(str(path)) == 2
        lines = path.read_text().strip().splitlines()
        assert json.loads(lines[1])["attrs"] == {"chunk": 1}

    def test_single_span_file_validates(self, tmp_path):
        path = tmp_path / "one.jsonl"
        obs.write_spans_jsonl([_span()], path)
        assert validate_trace_file(str(path)) == 1

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            validate_trace_file(str(path))


class TestChromeTrace:
    def test_events_scale_to_microseconds(self):
        (event,) = obs.chrome_trace_events([_span(chunk=4)])
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.5e6)
        assert event["args"]["chunk"] == 4
        assert event["args"]["span_id"] == "10:1"
        validate_chrome_event(event)

    def test_scheduler_spans_land_on_pseudo_track(self):
        events = obs.chrome_trace_events(_scheduler_spans())
        names = {e["name"] for e in events}
        assert names == {"chunk.queue", "chunk.hold"}
        for event in events:
            assert event["pid"] == 0  # scheduler pseudo-track
            assert event["tid"] == 3
            validate_chrome_event(event)
        queue = next(e for e in events if e["name"] == "chunk.queue")
        assert queue["dur"] == pytest.approx(0.2e6)

    def test_write_and_validate_file(self, tmp_path):
        path = tmp_path / "trace.json"
        count = obs.write_chrome_trace([_span(), *_scheduler_spans()], path)
        assert count == 3
        assert validate_trace_file(str(path)) == 3
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"

    def test_corrupt_event_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"name": "x"}]}))
        with pytest.raises(ValueError, match="missing required field"):
            validate_trace_file(str(path))


class TestSpanSchema:
    def test_negative_duration_rejected(self):
        bad = _span().to_json()
        bad["duration"] = -1.0
        with pytest.raises(ValueError, match="duration"):
            validate_span(bad)

    def test_bool_pid_rejected(self):
        bad = _span().to_json()
        bad["pid"] = True
        with pytest.raises(ValueError, match="bool"):
            validate_span(bad)

    def test_unknown_field_rejected(self):
        bad = _span().to_json()
        bad["surprise"] = 1
        with pytest.raises(ValueError, match="unknown"):
            validate_span(bad)

    def test_missing_required_rejected(self):
        bad = _span().to_json()
        del bad["span_id"]
        with pytest.raises(ValueError, match="span_id"):
            validate_span(bad)

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.obs.schema import main

        good = tmp_path / "good.json"
        obs.write_chrome_trace([_span()], good)
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": ""}]}')
        assert main([str(bad)]) == 1


class TestRecordedSchedulerSpans:
    def test_runner_stamps_export_and_validate(self, tmp_path):
        """``record_span`` output round-trips through both exporters."""
        obs.enable(tracing=True, metrics=False)
        obs.record_span("chunk.queue", 1.0, 0.2, pid=0, tid=3, chunk=3,
                        transport="inproc", attempt=1)
        records = obs.drain_spans()
        path = tmp_path / "sched.json"
        assert obs.write_chrome_trace(records, path) == 1
        assert validate_trace_file(str(path)) == 1
        (event,) = json.loads(path.read_text())["traceEvents"]
        assert (event["pid"], event["tid"]) == (0, 3)
        assert event["args"]["attempt"] == 1
        jsonl = tmp_path / "sched.jsonl"
        obs.write_spans_jsonl(records, jsonl)
        assert validate_trace_file(str(jsonl)) == 1


class TestPrometheus:
    def test_counter_and_gauge_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_shots_total", pid="12").inc(100)
        reg.gauge("repro_window").set(4)
        text = obs.prometheus_text(reg)
        assert "# TYPE repro_shots_total counter" in text
        assert 'repro_shots_total{pid="12"} 100.0' in text
        assert "# TYPE repro_window gauge" in text
        assert "repro_window 4.0" in text

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            h.observe(v)
        text = obs.prometheus_text(reg)
        assert 'repro_lat_bucket{le="1.0"} 1' in text
        assert 'repro_lat_bucket{le="2.0"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 3' in text
        assert "repro_lat_sum 11.0" in text
        assert "repro_lat_count 3" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c').inc()
        text = obs.prometheus_text(reg)
        assert 'path="a\\"b\\\\c"' in text

    def test_write_prometheus(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = tmp_path / "metrics.prom"
        obs.write_prometheus(reg, path)
        assert path.read_text().endswith("c 1.0\n")
