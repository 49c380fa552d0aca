"""Decode batches: runs of consecutive chunks of one task decoded by one
call, with every chunk's stream, count and result still its own.

The chunk stays the unit of the RNG stream, the ``ChunkResult``, the
early stop, the lease and the retry; only the decode call is shared.
So every result of a batched run — in-process or pooled — must equal
running the chunks one at a time.
"""

import tracemalloc

import pytest

import repro.engine.workers as workers_mod
import repro.obs as obs
from repro.decoders import count_logical_errors
from repro.engine import ChunkRunner, Task, collect, plan_chunks, run_chunk, run_chunks
from repro.engine.workers import (
    _DECODE_BATCH_SHOTS,
    _DECODE_RUN_SHOTS,
    decode_batches,
)
from repro.gf2 import bitops
from repro.qec import repetition_code_memory, surface_code_memory
from repro.rng import chunk_generator

SEED = 29


def make_task(p=0.06, decoder="compiled-matching", max_shots=2_300):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(circuit, decoder=decoder, max_shots=max_shots)


def two_task_specs(decoder, chunk_shots=300):
    """Two tasks' chunks back to back; each ends on a short chunk."""
    first = make_task(0.06, decoder, max_shots=2_300)
    second = make_task(0.09, decoder, max_shots=1_000)
    return [first, second], (
        plan_chunks(first, SEED, chunk_shots)
        + plan_chunks(second, SEED, chunk_shots)
    )


def key(result):
    # Not the attempt: under an environment fault plan (the chaos leg's
    # REPRO_FAULTS) a pooled chunk may be a retry, with the same counts.
    return (
        result.task_id, result.chunk_index, result.shots, result.errors,
        result.failed,
    )


class TestDecodeBatches:
    @pytest.mark.parametrize("limit", [None, _DECODE_RUN_SHOTS])
    @pytest.mark.parametrize("chunk_shots", [512, 2_000, 4_096, 5_000])
    def test_longest_run_within_the_shot_limit(self, chunk_shots, limit):
        task = make_task(max_shots=chunk_shots * 16)
        specs = plan_chunks(task, SEED, chunk_shots)
        if limit is None:
            batches = list(decode_batches(specs))
            limit = _DECODE_BATCH_SHOTS
        else:
            batches = list(decode_batches(specs, limit))
        # A chunk larger than the limit is a batch of one.
        per_batch = max(1, limit // chunk_shots)
        assert [len(batch) for batch in batches] == [
            min(per_batch, 16 - start) for start in range(0, 16, per_batch)
        ]

    def test_short_last_chunk_and_task_boundary(self):
        tasks, specs = two_task_specs("compiled-matching", chunk_shots=1_000)
        batches = list(decode_batches(specs))
        # 2,300 shots -> 1000 + 1000 + 300 (one batch: 2,300 <= 4,096);
        # the second task's chunks never join the first task's batch.
        assert [[s.shots for s in batch] for batch in batches] == [
            [1_000, 1_000, 300], [1_000],
        ]
        for batch in batches:
            assert len({spec.task_id for spec in batch}) == 1
        assert sum(batches, []) == specs

    def test_run_chunks_takes_one_task(self):
        _, specs = two_task_specs("compiled-matching")
        with pytest.raises(ValueError, match="one task"):
            run_chunks([specs[0], specs[-1]])
        with pytest.raises(ValueError, match="one task"):
            run_chunks([])


@pytest.mark.parametrize("decoder", ["compiled-matching", "matching", "lookup"])
class TestBatchedEqualsOneAtATime:
    def test_runner_results(self, decoder):
        _, specs = two_task_specs(decoder)
        expected = [key(run_chunk(spec)) for spec in specs]
        assert [key(r) for r in run_chunks(specs[:8])] == expected[:8]
        for workers in (1, 2):
            with ChunkRunner(workers=workers) as runner:
                observed = [key(r) for r in runner.run(specs)]
            assert observed == expected, workers

    def test_task_stats(self, decoder):
        tasks, specs = two_task_specs(decoder)
        expected = {}
        for spec in specs:
            result = run_chunk(spec)
            shots, errors, chunks = expected.get(spec.task_id, (0, 0, 0))
            expected[spec.task_id] = (
                shots + result.shots, errors + result.errors, chunks + 1
            )
        for workers in (1, 2):
            stats = collect(
                tasks, base_seed=SEED, workers=workers, chunk_shots=300
            )
            assert {
                s.task_id: (s.shots, s.errors, s.chunks) for s in stats
            } == expected, workers


def test_early_stop_is_the_first_crossing_chunk():
    """Batching cannot move the early stop: the fold still stops at the
    first chunk whose cumulative errors reach ``max_errors``."""
    task = make_task(0.09, max_shots=6_000)
    running, crossing = 0, None
    for spec in plan_chunks(task, SEED, 200):
        running += run_chunk(spec).errors
        if running >= 40:
            crossing = (spec.chunk_index + 1, running)
            break
    assert crossing is not None and crossing[0] < 30
    for workers in (1, 2):
        (stats,) = collect(
            [task], base_seed=SEED, workers=workers, chunk_shots=200,
            max_errors=40,
        )
        assert (stats.chunks, stats.errors) == crossing, workers


def test_in_process_overrun_is_at_most_one_batch(monkeypatch):
    """The in-process counterpart of the pooled window bound: after a
    stop at the first result, at most one batch of chunks ran."""
    executed = []
    real_run_chunks = workers_mod.run_chunks

    def tracking_run_chunks(specs):
        executed.extend(spec.chunk_index for spec in specs)
        return real_run_chunks(specs)

    monkeypatch.setattr(workers_mod, "run_chunks", tracking_run_chunks)
    chunk_shots = 512
    specs = plan_chunks(make_task(max_shots=40 * chunk_shots), SEED, chunk_shots)
    with ChunkRunner(workers=1) as runner:
        for _ in runner.run(specs):
            break
    assert executed == list(range(_DECODE_BATCH_SHOTS // chunk_shots))


def recorded_batches(monkeypatch):
    """Shots of every batch handed to ``run_chunks`` in process."""
    batches = []
    real_run_chunks = workers_mod.run_chunks

    def tracking_run_chunks(specs):
        batches.append(sum(spec.shots for spec in specs))
        return real_run_chunks(specs)

    monkeypatch.setattr(workers_mod, "run_chunks", tracking_run_chunks)
    return batches


class TestBatchSizeFollowsTheErrorBudget:
    """In process, a task that may stop early keeps 4,096-shot batches
    (so a stop wastes at most one of them); a task that runs to its shot
    budget is decoded in runs of up to 32,768 shots.  Either way the
    counts are the one-chunk-at-a-time ones."""

    CHUNK_SHOTS = 256

    def task(self, max_errors=None):
        return Task(
            repetition_code_memory(
                3, rounds=2, data_flip_probability=0.05,
                measure_flip_probability=0.05,
            ),
            decoder="compiled-matching",
            max_shots=40 * self.CHUNK_SHOTS,
            max_errors=max_errors,
        )

    def one_at_a_time(self, task):
        results = [
            run_chunk(spec)
            for spec in plan_chunks(task, SEED, self.CHUNK_SHOTS)
        ]
        return (
            sum(r.shots for r in results),
            sum(r.errors for r in results),
            len(results),
        )

    @pytest.mark.parametrize(
        "task_budget,options_budget,largest",
        [
            (None, None, _DECODE_RUN_SHOTS),
            (10**9, None, _DECODE_BATCH_SHOTS),
            (None, 10**9, _DECODE_BATCH_SHOTS),
        ],
    )
    def test_batches_and_counts(
        self, monkeypatch, task_budget, options_budget, largest
    ):
        expected = self.one_at_a_time(self.task())
        batches = recorded_batches(monkeypatch)
        (stats,) = collect(
            [self.task(task_budget)], base_seed=SEED, workers=1,
            chunk_shots=self.CHUNK_SHOTS, max_errors=options_budget,
        )
        assert (stats.shots, stats.errors, stats.chunks) == expected
        full = min(largest, stats.shots)
        assert batches == [full] * (stats.shots // full) + (
            [stats.shots % full] if stats.shots % full else []
        )

    def test_runner_defaults_to_the_early_stop_batch(self, monkeypatch):
        batches = recorded_batches(monkeypatch)
        specs = plan_chunks(self.task(), SEED, self.CHUNK_SHOTS)
        with ChunkRunner(workers=1) as runner:
            default = [key(r) for r in runner.run(specs)]
        assert max(batches) == _DECODE_BATCH_SHOTS
        batches.clear()
        with ChunkRunner(workers=1) as runner:
            whole = [key(r) for r in runner.run(specs, may_stop_early=False)]
        assert batches == [40 * self.CHUNK_SHOTS]
        assert whole == default


def test_failed_batch_charges_only_the_failing_chunk():
    """A chunk that raises inside a batch re-runs its batch-mates one at
    a time, so it alone is retried and the counts stay serial's."""
    task = make_task(max_shots=1_200)
    serial = collect([task], base_seed=SEED, workers=1, chunk_shots=300)[0]
    obs.enable(tracing=False, metrics=True)
    pooled = collect(
        [task], base_seed=SEED, workers=2, chunk_shots=300,
        fault_plan="raise@1",
    )[0]
    assert (pooled.shots, pooled.errors) == (serial.shots, serial.errors)
    assert obs.registry().value("repro_chunk_retries_total") == 1


@pytest.fixture(scope="module")
def surface_run():
    """Surface d=5, rounds 5 memory (the ``surface_d5_chunked`` circuit):
    a task of 64 chunks of 512 shots and each chunk's packed sample."""
    circuit = surface_code_memory(
        5, rounds=5, after_clifford_depolarization=0.002,
        before_measure_flip_probability=0.002,
    )
    compiled = circuit.compile(sampler="symbolic", decoder="compiled-matching")
    task = compiled.task(max_shots=64 * 512)
    specs = plan_chunks(task, SEED, 512)
    chunks = [
        compiled.sampler.sample_detectors_packed(
            spec.shots,
            chunk_generator(spec.base_seed, spec.task_entropy, spec.chunk_index),
        )
        for spec in specs
    ]
    return compiled.decoder, specs, chunks


class TestSurfaceRunAsOneBatch:
    """64 chunks of 512 shots decoded as one batch keep the per-chunk
    meaning of the decoder's row counters and every chunk's count, and
    the batch decode's memory does not grow with the batch."""

    def test_counters_and_counts_are_per_chunk(self, surface_run, monkeypatch):
        decoder, specs, chunks = surface_run
        nonzero = unique = 0
        errors = []
        for detectors, observables in chunks:
            rows = bitops.nonzero_rows_packed(detectors)
            nonzero += rows.size
            if rows.size:
                unique += bitops.dedupe_rows_packed(detectors[rows])[0].shape[0]
            errors.append(count_logical_errors(decoder, detectors, observables))
        batches = recorded_batches(monkeypatch)
        obs.enable(tracing=False, metrics=True)
        with ChunkRunner(workers=1) as runner:
            results = list(runner.run(specs, may_stop_early=False))
        assert batches == [64 * 512]
        assert [r.errors for r in results] == errors
        registry = obs.registry()
        assert {
            name: sum(m.value for _, m in registry.select(name))
            for name in (
                "repro_decode_nonzero_rows_total",
                "repro_decode_unique_rows_total",
            )
        } == {
            "repro_decode_nonzero_rows_total": nonzero,
            "repro_decode_unique_rows_total": unique,
        }

    def test_batch_decode_memory(self, surface_run):
        """The tracemalloc peak of decoding all 64 chunks at once was
        1.96 MiB when this bound was set (NumPy 2.4); decoding them
        without the trimmed working set peaked at ~5.9 MiB."""
        decoder, _, chunks = surface_run
        detectors = [chunk[0] for chunk in chunks]
        decoder.decode_chunks_packed(detectors)  # build the DP plans
        tracemalloc.start()
        try:
            decoder.decode_chunks_packed(detectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20
