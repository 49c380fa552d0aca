"""Decode batches: runs of consecutive chunks of one task decoded by one
call, with every chunk's stream, count and result still its own.

The chunk stays the unit of the RNG stream, the ``ChunkResult``, the
early stop, the lease and the retry; only the decode call is shared.
So every result of a batched run — in-process or pooled — must equal
running the chunks one at a time.
"""

import pytest

import repro.engine.workers as workers_mod
import repro.obs as obs
from repro.engine import ChunkRunner, Task, collect, plan_chunks, run_chunk, run_chunks
from repro.engine.workers import _DECODE_BATCH_SHOTS, decode_batches
from repro.qec import repetition_code_memory

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
    @pytest.mark.parametrize(
        "chunk_shots,per_batch",
        [(512, 8), (2_000, 2), (4_096, 1), (5_000, 1)],
    )
    def test_longest_run_within_the_shot_limit(self, chunk_shots, per_batch):
        task = make_task(max_shots=chunk_shots * 16)
        batches = list(decode_batches(plan_chunks(task, SEED, chunk_shots)))
        assert [len(batch) for batch in batches] == [per_batch] * (
            16 // per_batch
        )

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
