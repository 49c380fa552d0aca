"""Per-chunk scheduler spans from the instrumented runner.

With telemetry on, the runner records two spans per chunk on the
scheduler's ``pid 0`` track: ``chunk.queue`` (submit -> worker start)
and ``chunk.hold`` (result received -> yielded past the reorder
buffer).  Together with the worker's own ``chunk`` span they must lay
out monotonically, their durations must be non-negative and mirrored
on the yielded results, and none of it may leak into runs with
telemetry off (or into the span buffer of a metrics-only run).  Every
span feeds ``repro_stage_seconds_total`` from the same clock reading.
"""

import time

import pytest

import repro.obs as obs
from repro.engine import ChunkRunner, collect, plan_chunks
from repro.engine.faults import plan_from_env
from repro.engine.tasks import Task
from repro.qec import repetition_code_memory


def make_task(n_chunks=6, chunk_shots=200):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=0.05, measure_flip_probability=0.05
    )
    return Task(
        circuit, decoder="compiled-matching",
        max_shots=n_chunks * chunk_shots,
    )


def make_specs(n_chunks=6, chunk_shots=200):
    return plan_chunks(make_task(n_chunks, chunk_shots), 3, chunk_shots)


def run_with_telemetry(workers, specs):
    obs.enable(tracing=True, metrics=True)
    with ChunkRunner(workers=workers) as runner:
        return list(runner.run(specs))


def spans_by_chunk(records, name):
    """``chunk index -> span`` for every span called ``name``."""
    found = [r for r in records if r.name == name]
    by_chunk = {r.attrs["chunk"]: r for r in found}
    assert len(by_chunk) == len(found), f"duplicate {name} spans"
    return by_chunk


def stage_total(stage):
    return sum(
        metric.value
        for _, metric in obs.registry().select(
            "repro_stage_seconds_total", stage=stage
        )
    )


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
        assert obs.drain_spans() == []

    def test_pooled_off_records_no_spans(self):
        with ChunkRunner(workers=2) as runner:
            list(runner.run(make_specs()))
        assert obs.drain_spans() == []
        assert len(obs.registry()) == 0


class TestMetricsOnly:
    def test_profiled_runs_buffer_no_span_records(self):
        """Metrics alone time every stage but buffer nothing: repeated
        profiled runs with tracing off leave the span buffer empty."""
        task = make_task(n_chunks=10)
        for _ in range(3):
            collect([task], base_seed=1, chunk_shots=200, profile=True)
            assert obs.drain_spans() == []
        assert not obs.is_tracing()

    def test_stage_counters_fed_without_tracing(self):
        obs.enable(tracing=False, metrics=True)
        with ChunkRunner(workers=1) as runner:
            results = list(runner.run(make_specs()))
        for stage in ("chunk", "sample", "decode", "chunk.queue",
                      "chunk.hold"):
            assert stage_total(stage) > 0.0, stage
        assert stage_total("chunk.queue") == pytest.approx(
            sum(r.queue_wait_seconds for r in results), abs=1e-9
        )
        assert obs.drain_spans() == []


@pytest.mark.parametrize("workers", [1, 2])
class TestSchedulerSpanInvariants:
    def test_one_queue_and_hold_span_per_chunk(self, workers):
        specs = make_specs()
        results = run_with_telemetry(workers, specs)
        records = obs.drain_spans()
        for name in ("chunk.queue", "chunk.hold"):
            by_chunk = spans_by_chunk(records, name)
            assert sorted(by_chunk) == list(range(len(specs)))
            for index, record in by_chunk.items():
                assert record.pid == 0  # scheduler pseudo-track
                assert record.tid == index
                assert record.attrs["task"] == specs[0].task_id
                assert record.attrs["shots"] == specs[0].shots
                # The attempt that produced the yielded result: 1 for a
                # chunk retried under REPRO_FAULTS, and a clean run
                # never retries.
                assert record.attrs["attempt"] == results[index].attempt
                if not plan_from_env():
                    assert results[index].attempt == 0

    def test_stamps_monotone(self, workers):
        specs = make_specs()
        run_with_telemetry(workers, specs)
        records = obs.drain_spans()
        queue = spans_by_chunk(records, "chunk.queue")
        hold = spans_by_chunk(records, "chunk.hold")
        work = spans_by_chunk(records, "chunk")
        for index in range(len(specs)):
            q, w, h = queue[index], work[index], hold[index]
            assert q.attrs["worker_pid"] == w.pid
            assert q.start <= q.start + q.duration <= w.start
            assert w.start + w.duration <= h.start <= h.start + h.duration

    def test_waits_non_negative(self, workers):
        run_with_telemetry(workers, make_specs())
        for record in obs.drain_spans():
            if record.name in ("chunk.queue", "chunk.hold"):
                assert record.duration >= 0.0

    def test_results_mirror_spans(self, workers):
        results = run_with_telemetry(workers, make_specs())
        records = obs.drain_spans()
        queue = spans_by_chunk(records, "chunk.queue")
        hold = spans_by_chunk(records, "chunk.hold")
        for result in results:
            assert result.queue_wait_seconds == pytest.approx(
                queue[result.chunk_index].duration
            )
            assert result.hold_seconds == pytest.approx(
                hold[result.chunk_index].duration
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
        assert stage_total("chunk.queue") == pytest.approx(
            sum(r.queue_wait_seconds for r in results)
        )
        assert stage_total("chunk.hold") == pytest.approx(
            sum(r.hold_seconds for r in results)
        )

    @pytest.mark.parametrize(
        "stage", ["chunk", "sample", "decode", "chunk.queue"]
    )
    def test_stage_counter_is_the_span_clock(self, workers, stage):
        """One clock reading feeds both outputs: each stage's counter
        total equals the summed durations of that run's spans."""
        run_with_telemetry(workers, make_specs())
        durations = [r.duration for r in obs.drain_spans() if r.name == stage]
        assert durations
        assert stage_total(stage) == pytest.approx(sum(durations), abs=1e-9)


class TestInProcessBatchStamps:
    def test_stamps_tile_the_wall_time(self):
        """16 chunks decoded as one in-process batch: each chunk's queue
        wait, in-worker time and hold are disjoint stretches of the run,
        so their sum stays within its wall time (a chunk's hold starts
        once the batch decode has returned, not at its own finish)."""
        specs = make_specs(n_chunks=16, chunk_shots=512)
        obs.enable(tracing=True, metrics=True)
        start = time.perf_counter()
        with ChunkRunner(workers=1) as runner:
            results = list(runner.run(specs, may_stop_early=False))
        wall = time.perf_counter() - start
        decodes = [r for r in obs.drain_spans() if r.name == "decode"]
        assert [r.attrs["chunks"] for r in decodes] == [16]
        assert sum(
            r.queue_wait_seconds + (r.finished_at - r.started_at)
            + r.hold_seconds
            for r in results
        ) <= wall


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
    def test_spans_name_the_wire(self, workers, wire):
        """Serial chunks never leave the process; pooled chunks all ride
        the one pickle wire."""
        run_with_telemetry(workers, make_specs())
        queue = spans_by_chunk(obs.drain_spans(), "chunk.queue")
        assert queue
        assert {r.attrs["transport"] for r in queue.values()} == {wire}

    def test_pooled_metrics_arrive_from_worker_pids(self):
        run_with_telemetry(2, make_specs())
        import os

        pids = obs.registry().label_values("repro_chunks_total", "pid")
        assert pids  # at least one worker reported
        assert str(os.getpid()) not in pids
