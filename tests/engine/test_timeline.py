"""Per-chunk timeline invariants from the instrumented scheduler.

These tests exercise the telemetry the scheduler attaches to every
``ChunkResult`` when metrics are on: the submit→start→finish→receive→
yield stamps must be monotone, the derived queue-wait/hold seconds
non-negative, and none of it may leak into runs with telemetry off.
"""

import pytest

import repro.obs as obs
from repro.engine import ChunkRunner, plan_chunks
from repro.engine.tasks import Task
from repro.qec import repetition_code_memory


def make_specs(n_chunks=6, chunk_shots=200):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=0.05, measure_flip_probability=0.05
    )
    task = Task(
        circuit, decoder="compiled-matching",
        max_shots=n_chunks * chunk_shots,
    )
    return plan_chunks(task, 3, chunk_shots)


def run_with_telemetry(workers, specs):
    obs.enable(tracing=True, metrics=True)
    with ChunkRunner(workers=workers) as runner:
        return list(runner.run(specs))


class TestTelemetryOff:
    def test_results_carry_no_telemetry(self):
        with ChunkRunner(workers=1) as runner:
            results = list(runner.run(make_specs()))
        for result in results:
            assert result.queue_wait_seconds == 0.0
            assert result.hold_seconds == 0.0
            assert result.spec_bytes == 0
            assert result.result_bytes == 0
            assert result.spans == ()
            assert result.metrics == ()
        assert obs.drain_timelines() == []

    def test_pooled_off_records_no_timelines(self):
        with ChunkRunner(workers=2) as runner:
            list(runner.run(make_specs()))
        assert obs.drain_timelines() == []


@pytest.mark.parametrize("workers", [1, 2])
class TestTimelineInvariants:
    def test_one_timeline_per_chunk(self, workers):
        specs = make_specs()
        run_with_telemetry(workers, specs)
        timelines = obs.drain_timelines()
        assert sorted(t.chunk_index for t in timelines) == list(
            range(len(specs))
        )
        assert all(t.task_id == specs[0].task_id for t in timelines)
        assert all(t.shots == specs[0].shots for t in timelines)

    def test_stamps_monotone(self, workers):
        run_with_telemetry(workers, make_specs())
        for t in obs.drain_timelines():
            assert t.submitted_at <= t.started_at <= t.finished_at
            assert t.finished_at <= t.received_at <= t.yielded_at

    def test_derived_seconds_non_negative_and_consistent(self, workers):
        run_with_telemetry(workers, make_specs())
        for t in obs.drain_timelines():
            for value in (
                t.queue_wait_seconds, t.worker_seconds,
                t.return_seconds, t.hold_seconds,
            ):
                assert value >= 0.0
            parts = (
                t.queue_wait_seconds + t.worker_seconds
                + t.return_seconds + t.hold_seconds
            )
            assert parts == pytest.approx(t.latency_seconds, abs=1e-9)

    def test_results_mirror_timelines(self, workers):
        results = run_with_telemetry(workers, make_specs())
        by_chunk = {t.chunk_index: t for t in obs.drain_timelines()}
        for result in results:
            timeline = by_chunk[result.chunk_index]
            assert result.queue_wait_seconds == pytest.approx(
                timeline.queue_wait_seconds
            )
            assert result.hold_seconds == pytest.approx(
                timeline.hold_seconds
            )
            # Worker piggyback payloads are consumed by the scheduler,
            # never re-yielded to the caller.
            assert result.spans == ()
            assert result.metrics == ()

    def test_aggregate_counters_match_results(self, workers):
        specs = make_specs()
        results = run_with_telemetry(workers, specs)
        reg = obs.registry()
        shots = sum(
            metric.value
            for _, metric in reg.select("repro_shots_total")
        )
        assert shots == sum(r.shots for r in results)
        queue_wait = reg.value("repro_queue_wait_seconds_total")
        assert queue_wait == pytest.approx(
            sum(r.queue_wait_seconds for r in results)
        )


class TestTransportAccounting:
    def test_serial_run_has_no_transport(self):
        results = run_with_telemetry(1, make_specs())
        assert all(r.spec_bytes == 0 for r in results)
        assert all(r.result_bytes == 0 for r in results)
        assert obs.registry().value("repro_transport_spec_bytes_total") is None

    def test_pooled_run_counts_bytes_both_ways(self):
        results = run_with_telemetry(2, make_specs())
        assert all(r.spec_bytes > 0 for r in results)
        assert all(r.result_bytes > 0 for r in results)
        reg = obs.registry()
        assert reg.value("repro_transport_spec_bytes_total") == sum(
            r.spec_bytes for r in results
        )
        assert reg.value("repro_transport_result_bytes_total") == sum(
            r.result_bytes for r in results
        )

    @pytest.mark.parametrize(
        "workers,wire", [(1, "inproc"), (2, "pickle")]
    )
    def test_timelines_name_the_wire(self, workers, wire):
        """Serial chunks never leave the process; pooled chunks all ride
        the one pickle wire."""
        run_with_telemetry(workers, make_specs())
        timelines = obs.drain_timelines()
        assert timelines
        assert {t.transport for t in timelines} == {wire}

    def test_pooled_metrics_arrive_from_worker_pids(self):
        run_with_telemetry(2, make_specs())
        import os

        pids = obs.registry().label_values("repro_chunks_total", "pid")
        assert pids  # at least one worker reported
        assert str(os.getpid()) not in pids
