"""Collection orchestration: equivalence, early stop, resume, store."""

import json

import pytest

from repro.engine import (
    ExecutionOptions,
    ResultStore,
    Task,
    TaskStats,
    collect,
    plan_chunks,
    run_chunk,
)
from repro.backends import compile_backend
from repro.decoders import compile_decoder
from repro.dem import extract_dem
from repro.engine.cache import reset_shared_cache, shared_cache
from repro.qec import repetition_code_memory
from repro.rng import chunk_generator

SEED = 11


def make_task(p=0.08, max_shots=2_000, max_errors=None):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(
        circuit,
        decoder="matching",
        max_shots=max_shots,
        max_errors=max_errors,
        metadata={"d": 3, "p": p},
    )


class TestSerialPoolEquivalence:
    def test_counts_bitwise_identical(self):
        tasks = [make_task(0.05), make_task(0.10)]
        serial = collect(tasks, base_seed=SEED, workers=1, chunk_shots=500)
        pooled = collect(tasks, base_seed=SEED, workers=2, chunk_shots=500)
        for s, p in zip(serial, pooled):
            assert (s.shots, s.errors, s.chunks) == (p.shots, p.errors, p.chunks)
            assert s.task_id == p.task_id

    def test_early_stop_identical_across_workers(self):
        tasks = [make_task(0.15, max_shots=4_000, max_errors=30)]
        serial = collect(tasks, base_seed=SEED, workers=1, chunk_shots=400)
        pooled = collect(tasks, base_seed=SEED, workers=3, chunk_shots=400)
        assert (serial[0].shots, serial[0].errors) == (
            pooled[0].shots, pooled[0].errors
        )

    def test_chunk_reproducible_in_isolation(self):
        """Chunk i alone reproduces its contribution to a full run."""
        task = make_task(0.08)
        specs = plan_chunks(task, SEED, 500)
        isolated = [run_chunk(s) for s in specs]
        again = [run_chunk(s) for s in reversed(specs)]
        by_index = {r.chunk_index: r for r in again}
        for result in isolated:
            other = by_index[result.chunk_index]
            assert (result.shots, result.errors) == (other.shots, other.errors)
        stats = collect([task], base_seed=SEED, workers=1, chunk_shots=500)[0]
        assert stats.errors == sum(r.errors for r in isolated)
        assert stats.shots == sum(r.shots for r in isolated)


class TestEarlyStopping:
    def test_stops_at_max_errors_chunk_boundary(self):
        task = make_task(0.20, max_shots=10_000, max_errors=10)
        stats = collect([task], base_seed=SEED, workers=1, chunk_shots=250)[0]
        assert stats.errors >= 10
        assert stats.shots < 10_000
        assert stats.shots == stats.chunks * 250
        # The stop is the *first* crossing chunk: all but the last chunk
        # must be strictly below the threshold.
        specs = plan_chunks(task, SEED, 250)
        running = 0
        for spec in specs[: stats.chunks - 1]:
            running += run_chunk(spec).errors
        assert running < 10

    def test_no_stop_without_max_errors(self):
        task = make_task(0.20, max_shots=1_500, max_errors=None)
        stats = collect([task], base_seed=SEED, workers=1, chunk_shots=400)[0]
        assert stats.shots == 1_500


class TestResume:
    def test_resume_skips_completed_rows(self, tmp_path, monkeypatch):
        store_path = tmp_path / "results.jsonl"
        tasks = [make_task(0.05), make_task(0.10)]
        first = collect(
            tasks, base_seed=SEED, workers=1, chunk_shots=500,
            store=store_path,
        )
        assert all(not s.resumed for s in first)

        # A resumed run must not sample a single chunk.
        import repro.engine.workers as workers_module

        def forbidden(spec):
            raise AssertionError("resume re-ran a completed chunk")

        monkeypatch.setattr(workers_module, "run_chunk", forbidden)
        second = collect(
            tasks, base_seed=SEED, workers=1, chunk_shots=500,
            store=store_path,
        )
        assert all(s.resumed for s in second)
        for a, b in zip(first, second):
            assert (a.shots, a.errors, a.task_id) == (b.shots, b.errors, b.task_id)

    def test_partial_store_runs_only_missing_tasks(self, tmp_path):
        store_path = tmp_path / "results.jsonl"
        done, pending = make_task(0.05), make_task(0.10)
        collect([done], base_seed=SEED, chunk_shots=500, store=store_path)
        both = collect(
            [done, pending], base_seed=SEED, chunk_shots=500, store=store_path
        )
        assert both[0].resumed and not both[1].resumed
        rows = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(rows) == 2

    def test_changed_seed_recollects(self, tmp_path):
        """Rows satisfy a resume only under the base seed that produced
        them — a different --seed must yield fresh, independent counts."""
        store_path = tmp_path / "results.jsonl"
        task = make_task(0.05)
        first = collect(
            [task], base_seed=SEED, chunk_shots=500, store=store_path
        )
        reseeded = collect(
            [task], base_seed=SEED + 1, chunk_shots=500, store=store_path
        )
        assert not reseeded[0].resumed
        assert reseeded[0].base_seed == SEED + 1
        # Same seed still resumes (latest row wins in the store).
        again = collect(
            [task], base_seed=SEED + 1, chunk_shots=500, store=store_path
        )
        assert again[0].resumed
        assert first[0].base_seed == SEED

    def test_store_keeps_latest_duplicate(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(TaskStats("t1", "matching", "symphase", shots=10, errors=1))
        store.append(TaskStats("t1", "matching", "symphase", shots=99, errors=9))
        assert store.load()["t1"].shots == 99

    def test_row_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        stats = TaskStats(
            "t1", "lookup", "frame",
            metadata={"d": 3}, shots=1000, errors=7, seconds=1.5, chunks=2,
        )
        store.append(stats)
        loaded = store.load()["t1"]
        assert loaded.resumed
        assert (loaded.decoder, loaded.sampler) == ("lookup", "frame")
        assert loaded.metadata == {"d": 3}
        assert (loaded.shots, loaded.errors, loaded.chunks) == (1000, 7, 2)
        assert loaded.wilson() == stats.wilson()

    def test_pre_telemetry_row_defaults_new_fields(self, tmp_path):
        """A store written before the telemetry fields existed must
        resume cleanly, with queue-wait/hold/transport at zero."""
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"task_id": "t1", "decoder": "matching", "sampler": '
            '"symphase", "metadata": {"d": 3}, "shots": 1000, "errors": 7,'
            ' "seconds": 1.5, "chunks": 2, "base_seed": 11,'
            ' "worker_seconds": 1.2, "sample_seconds": 0.4,'
            ' "decode_seconds": 0.7, "error_rate": 0.007,'
            ' "wilson_low": 0.003, "wilson_high": 0.014}\n'
        )
        loaded = ResultStore(path).load()["t1"]
        assert loaded.resumed
        assert (loaded.shots, loaded.errors) == (1000, 7)
        assert loaded.queue_wait_seconds == 0.0
        assert loaded.hold_seconds == 0.0
        assert loaded.transport_bytes == 0

    def test_telemetry_fields_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        stats = TaskStats(
            "t1", "matching", "symphase", shots=100, errors=1,
            queue_wait_seconds=0.25, hold_seconds=0.125,
            transport_bytes=4096,
        )
        store.append(stats)
        loaded = store.load()["t1"]
        assert loaded.queue_wait_seconds == 0.25
        assert loaded.hold_seconds == 0.125
        assert loaded.transport_bytes == 4096

    def test_new_rows_carry_no_stage_split(self, tmp_path):
        """Stage seconds live in the metrics registry, not the store:
        new rows drop the old sample/decode split, and a row that
        still has it round-trips to the same stats."""
        stats = TaskStats("t1", "matching", "symphase", shots=10,
                          worker_seconds=0.5)
        row = stats.to_row()
        assert "sample_seconds" not in row
        assert "decode_seconds" not in row
        legacy = dict(row, sample_seconds=0.2, decode_seconds=0.3)
        assert TaskStats.from_row(legacy) == TaskStats.from_row(row)

    def test_missing_store_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == {}

    def test_torn_trailing_line_recovered_silently(self, tmp_path, capsys):
        """A killed run leaves a truncated, newline-less last line; the
        fsync-per-append durability contract makes that the *expected*
        crash signature, so resume recovers without a warning and simply
        re-collects that task."""
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(TaskStats("t1", "matching", "symphase", shots=10, errors=1))
        with open(store.path, "a") as handle:
            handle.write('{"task_id": "t2", "shots": 5')  # torn mid-row
        loaded = store.load()
        assert list(loaded) == ["t1"]
        assert capsys.readouterr().err == ""

    def test_malformed_rows_skipped_not_raised(self, tmp_path, capsys):
        """Every flavour of corruption — raw garbage bytes, valid JSON
        that is not an object, objects missing required fields or with
        wrong types — is warned about and skipped; only the torn final
        line (no trailing newline) is silent crash recovery."""
        store = ResultStore(tmp_path / "r.jsonl")
        store.append(TaskStats("t1", "matching", "symphase", shots=10, errors=1))
        with open(store.path, "ab") as handle:
            handle.write(b"\x00\xfe\xffgarbage bytes, not JSON\n")
            handle.write(b'["valid", "json", "wrong", "shape"]\n')
            handle.write(b'{"shots": 5, "errors": 1}\n')  # no task_id
            handle.write(b'{"task_id": "t3", "shots": "many", "errors": 0}\n')
            handle.write(
                b'{"task_id": "t4", "shots": 5, "errors": 0, '
                b'"metadata": "junk"}\n'
            )
            handle.write(b'{"task_id": "t2", "shots": 5')  # torn mid-row
        loaded = store.load()
        assert list(loaded) == ["t1"]
        # Five mid-file corruptions warn; the torn tail does not.
        assert capsys.readouterr().err.count("corrupt row") == 5

    def test_resume_after_garbage_append(self, tmp_path):
        """The regression the hardening guards: a store with trailing
        garbage still resumes its intact rows and re-collects the rest."""
        store_path = tmp_path / "results.jsonl"
        done, torn = make_task(0.05), make_task(0.10)
        collect([done], base_seed=SEED, chunk_shots=500, store=store_path)
        collect([torn], base_seed=SEED, chunk_shots=500, store=store_path)
        lines = store_path.read_bytes().splitlines(keepends=True)
        store_path.write_bytes(lines[0] + lines[1][:37] + b"\xff\x00 torn!")
        both = collect(
            [done, torn], base_seed=SEED, chunk_shots=500, store=store_path
        )
        assert both[0].resumed
        assert not both[1].resumed
        assert both[1].shots == torn.max_shots

    def test_unseeded_run_accepts_any_stored_row(self, tmp_path):
        """base_seed=None means "a sample", not a specific one: stored
        rows satisfy it regardless of the seed that produced them."""
        store_path = tmp_path / "results.jsonl"
        task = make_task(0.05)
        seeded = collect(
            [task], base_seed=SEED, chunk_shots=500, store=store_path
        )
        unseeded = collect(
            [task], base_seed=None, chunk_shots=500, store=store_path
        )
        assert unseeded[0].resumed
        assert unseeded[0].errors == seeded[0].errors

    def test_unseeded_run_records_drawn_seed(self):
        task = make_task(0.05, max_shots=500)
        stats = collect([task], base_seed=None, chunk_shots=500)[0]
        assert isinstance(stats.base_seed, int)
        # The drawn word reproduces the run exactly.
        again = collect(
            [task], base_seed=stats.base_seed, chunk_shots=500
        )[0]
        assert (again.shots, again.errors) == (stats.shots, stats.errors)


class TestExecutionOptions:
    def test_options_equivalent_to_loose_kwargs(self, tmp_path):
        task = make_task(0.10)
        loose = collect(
            [task], base_seed=SEED, workers=1, chunk_shots=400,
            store=tmp_path / "a.jsonl",
        )[0]
        typed = collect(
            [task],
            options=ExecutionOptions(
                base_seed=SEED, workers=1, chunk_shots=400,
                store=tmp_path / "b.jsonl",
            ),
        )[0]
        assert (loose.task_id, loose.shots, loose.errors, loose.chunks) == (
            typed.task_id, typed.shots, typed.errors, typed.chunks
        )

    def test_default_max_errors_policy(self):
        """Options-level max_errors applies to tasks without their own."""
        task = make_task(0.20, max_shots=10_000, max_errors=None)
        stats = collect(
            [task],
            options=ExecutionOptions(
                base_seed=SEED, chunk_shots=250, max_errors=10
            ),
        )[0]
        assert stats.errors >= 10
        assert stats.shots < 10_000

    def test_task_max_errors_wins_over_policy(self):
        task = make_task(0.20, max_shots=2_000, max_errors=150)
        with_policy = collect(
            [task],
            options=ExecutionOptions(
                base_seed=SEED, chunk_shots=250, max_errors=10
            ),
        )[0]
        without = collect([task], base_seed=SEED, chunk_shots=250)[0]
        assert (with_policy.shots, with_policy.errors) == (
            without.shots, without.errors
        )

    def test_options_alongside_loose_kwargs_rejected(self):
        """Loose kwargs must not be silently dropped when options= is
        also given — that combination is an immediate error."""
        with pytest.raises(TypeError, match="not both"):
            collect([], options=ExecutionOptions(), workers=2)
        with pytest.raises(TypeError, match="store"):
            collect([], options=ExecutionOptions(), store="out.jsonl")

    def test_explicit_default_valued_kwargs_also_rejected(self):
        """Passing a kwarg that happens to equal its default alongside
        options= still conflicts (sentinel, not value comparison)."""
        with pytest.raises(TypeError, match="base_seed"):
            collect([], options=ExecutionOptions(base_seed=7), base_seed=0)
        with pytest.raises(TypeError, match="workers"):
            collect([], options=ExecutionOptions(), workers=1)

    def test_replace_returns_patched_copy(self):
        options = ExecutionOptions(base_seed=1, workers=2)
        patched = options.replace(workers=4)
        assert patched.workers == 4
        assert patched.base_seed == 1
        assert options.workers == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(workers=0)
        with pytest.raises(ValueError):
            ExecutionOptions(chunk_shots=0)
        with pytest.raises(ValueError):
            ExecutionOptions(max_errors=0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("transport", "pickle"),
            ("adaptive_chunks", True),
            ("target_chunk_seconds", 0.5),
            ("min_chunk_shots", 100),
            ("max_chunk_shots", 10_000),
        ],
    )
    def test_removed_knobs_rejected(self, name, value):
        """The transport and adaptive-sizing knobs are gone: passing one
        is an error, never a silently ignored setting."""
        with pytest.raises(TypeError, match=name):
            ExecutionOptions(**{name: value})
        with pytest.raises(TypeError, match=name):
            collect([], **{name: value})


class TestCacheIntegration:
    def test_chunks_share_one_compiled_sampler(self):
        reset_shared_cache()
        try:
            task = make_task(0.05)
            collect([task], base_seed=SEED, workers=1, chunk_shots=250)
            cache = shared_cache()
            fingerprint = task.circuit_fingerprint()
            assert ("sampler", fingerprint, "symbolic") in cache
            assert ("decoder", fingerprint, "matching") in cache
            # 8 chunks -> 1 miss + 7 hits for each cached artifact kind.
            assert cache.hits > cache.misses
        finally:
            reset_shared_cache()

    def test_compiled_decoder_counts_match_reference(self):
        """Same seed + same sampler => same syndromes; the compiled
        matcher's bitwise-identical predictions must therefore yield
        bitwise-identical error counts through the whole engine."""
        circuit = repetition_code_memory(
            3, rounds=2,
            data_flip_probability=0.08, measure_flip_probability=0.08,
        )
        counts = {}
        for decoder in ("matching", "compiled-matching"):
            stats = collect(
                [Task(circuit, decoder=decoder, max_shots=2_000)],
                base_seed=SEED, chunk_shots=500,
            )[0]
            counts[decoder] = (stats.shots, stats.errors)
        assert counts["matching"] == counts["compiled-matching"]

    def test_decoder_alias_resolves_to_canonical_task(self):
        task = Task(repetition_code_memory(3, 2), decoder="cmwpm")
        assert task.decoder == "compiled-matching"
        canonical = Task(
            repetition_code_memory(3, 2), decoder="compiled-matching"
        )
        assert task.strong_id() == canonical.strong_id()

    def test_decoder_none_counts_raw_observable_flips(self):
        task = Task(
            repetition_code_memory(
                3, rounds=2,
                data_flip_probability=0.3,
                measure_flip_probability=0.3,
            ),
            decoder="none",
            max_shots=500,
        )
        stats = collect([task], base_seed=SEED, chunk_shots=500)[0]
        assert 0 < stats.errors <= 500


class TestOnePackedPath:
    @pytest.mark.parametrize("sampler", ["frame", "symbolic"])
    @pytest.mark.parametrize("decoder", ["matching", "lookup"])
    def test_counts_equal_manual_unpacked_pipeline(self, sampler, decoder):
        """Reference decoders reach the engine's packed path through the
        pack-adapter; per chunk, the count must be the unpacked
        sample -> decode_batch -> compare pipeline on the same stream."""
        task = Task(
            repetition_code_memory(
                3, rounds=2,
                data_flip_probability=0.08, measure_flip_probability=0.08,
            ),
            decoder=decoder,
            sampler=sampler,
            max_shots=1_500,
        )
        stats = collect([task], base_seed=SEED, workers=1, chunk_shots=500)[0]
        compiled_sampler = compile_backend(task.circuit, sampler)
        compiled_decoder = compile_decoder(extract_dem(task.circuit), decoder)
        expected = 0
        for spec in plan_chunks(task, SEED, 500):
            rng = chunk_generator(
                spec.base_seed, spec.task_entropy, spec.chunk_index
            )
            detectors, observables = compiled_sampler.sample_detectors(
                spec.shots, rng
            )
            predictions = compiled_decoder.decode_batch(detectors)
            expected += int((predictions != observables).any(axis=1).sum())
        assert stats.shots == 1_500
        assert stats.errors == expected > 0


class TestWilsonAggregation:
    def test_stats_expose_wilson_interval(self):
        stats = TaskStats("t", "matching", "symphase", shots=100, errors=5)
        low, high = stats.wilson()
        assert low == pytest.approx(0.02154336145631356)
        assert high == pytest.approx(0.11175196527208817)
        assert stats.error_rate == pytest.approx(0.05)
