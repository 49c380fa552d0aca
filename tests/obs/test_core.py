"""Span tracing core: enable/disable, nesting, wire round-trip."""

import os
import pickle
import threading

import repro.obs as obs
from repro.obs.core import _NOOP


class TestDisabledPath:
    def test_span_returns_shared_noop(self):
        assert obs.span("anything", chunk=3) is _NOOP
        assert obs.span("other") is _NOOP

    def test_noop_span_records_nothing(self):
        with obs.span("quiet", a=1) as sp:
            sp.set(b=2)
        assert obs.drain_spans() == []

    def test_event_records_nothing(self):
        obs.event("quiet")
        assert obs.drain_spans() == []

    def test_flags_default_off(self):
        assert not obs.is_tracing()
        assert not obs.is_metrics()


class TestEnabledSpans:
    def test_span_records_fields(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("work", chunk=7) as sp:
            sp.set(bytes=123)
        (record,) = obs.drain_spans()
        assert record.name == "work"
        assert record.attrs == {"chunk": 7, "bytes": 123}
        assert record.pid == os.getpid()
        assert record.tid == threading.get_ident()
        assert record.duration >= 0.0
        assert record.cpu >= 0.0
        assert record.parent_id is None

    def test_nesting_links_parent(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        inner, outer_rec = obs.drain_spans()
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert outer_rec.parent_id is None

    def test_event_is_zero_duration_child(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("outer") as outer:
            obs.event("mark", k="v")
        mark, _ = obs.drain_spans()
        assert mark.duration == 0.0
        assert mark.parent_id == outer.span_id
        assert mark.attrs == {"k": "v"}

    def test_drain_empties_buffer(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("once"):
            pass
        assert len(obs.drain_spans()) == 1
        assert obs.drain_spans() == []

    def test_exception_still_records(self):
        obs.enable(tracing=True, metrics=False)
        try:
            with obs.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (record,) = obs.drain_spans()
        assert record.name == "boom"


class TestStageTimer:
    """Every span feeds ``repro_stage_seconds_total`` when metrics are on."""

    def stage(self, name):
        return obs.registry().value(
            "repro_stage_seconds_total", stage=name, pid=str(os.getpid())
        )

    def test_metrics_only_span_counts_without_a_record(self):
        obs.enable(tracing=False, metrics=True)
        span = obs.span("work")
        assert span is not _NOOP
        with span:
            pass
        assert self.stage("work") >= 0.0
        assert obs.drain_spans() == []

    def test_traced_span_and_counter_share_one_reading(self):
        obs.enable(tracing=True, metrics=True)
        for _ in range(3):
            with obs.span("work"):
                pass
        records = obs.drain_spans()
        assert self.stage("work") == sum(r.duration for r in records)

    def test_tracing_only_counts_nothing(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("work"):
            pass
        assert len(obs.drain_spans()) == 1
        assert len(obs.registry()) == 0

    def test_record_span_feeds_both_outputs(self):
        obs.enable(tracing=True, metrics=True)
        obs.record_span("chunk.queue", 2.0, 0.25, pid=0, tid=5, chunk=5)
        (record,) = obs.drain_spans()
        assert (record.start, record.duration) == (2.0, 0.25)
        assert (record.pid, record.tid, record.cpu) == (0, 5, 0.0)
        assert record.attrs == {"chunk": 5}
        assert obs.registry().value(
            "repro_stage_seconds_total", stage="chunk.queue", pid="0"
        ) == 0.25

    def test_record_span_disabled_is_silent(self):
        obs.record_span("chunk.queue", 0.0, 1.0, pid=0, tid=0)
        assert obs.drain_spans() == []
        assert len(obs.registry()) == 0

    def test_events_are_not_counted(self):
        obs.enable(tracing=True, metrics=True)
        obs.event("mark")
        assert len(obs.drain_spans()) == 1
        assert self.stage("mark") is None


class TestWireTransport:
    def test_round_trip_preserves_records(self):
        obs.enable(tracing=True, metrics=False)
        with obs.span("a", chunk=1):
            with obs.span("b"):
                pass
        wire = obs.drain_wire_spans()
        assert pickle.loads(pickle.dumps(wire)) == wire
        obs.absorb_spans(wire)
        restored = obs.drain_spans()
        assert [r.name for r in restored] == ["b", "a"]
        assert restored[1].attrs == {"chunk": 1}
        assert restored[0].parent_id == restored[1].span_id

    def test_wire_config_round_trip(self):
        obs.enable(tracing=True, metrics=False)
        config = obs.wire_config()
        obs.disable()
        obs.configure(config)
        assert obs.is_tracing() and not obs.is_metrics()

    def test_to_json_matches_schema(self):
        from repro.obs.schema import validate_span

        obs.enable(tracing=True, metrics=False)
        with obs.span("checked", chunk=2):
            pass
        (record,) = obs.drain_spans()
        validate_span(record.to_json())


class TestReset:
    def test_reset_clears_everything(self):
        obs.enable(tracing=True, metrics=True)
        with obs.span("gone"):
            pass
        obs.counter("gone_total").inc()
        obs.record_span("chunk.queue", 0.0, 0.5, pid=0, tid=0, chunk=0)
        obs.reset()
        assert not obs.is_tracing() and not obs.is_metrics()
        assert obs.drain_spans() == []
        assert obs.registry().value("gone_total") is None
        assert len(obs.registry()) == 0
