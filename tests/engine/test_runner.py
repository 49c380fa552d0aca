"""The barrier-free chunk scheduler: ordering, overrun, clean shutdown."""

import multiprocessing
import time

import pytest

import repro.obs as obs
from repro.engine import ChunkRunner, plan_chunks, warm_spec
from repro.engine.tasks import Task
from repro.engine.workers import ChunkResult
from repro.qec import repetition_code_memory


def make_task(
    backend="frame", decoder="compiled-matching", max_shots=800, p=0.05
):
    # Vary ``p`` to get a fingerprint no other test compiled: forked
    # workers inherit the parent's sampler cache, so a shared circuit
    # would turn warm-broadcast compiles into hits.
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(
        circuit, decoder=decoder, sampler=backend, max_shots=max_shots
    )


def make_specs(n_chunks=8, chunk_shots=100):
    task = make_task("symbolic", max_shots=n_chunks * chunk_shots)
    return plan_chunks(task, 3, chunk_shots)


GRID = [
    (backend, decoder)
    for backend in ("frame", "frame-interp", "symbolic")
    for decoder in ("compiled-matching", "matching")
]


class TestSubmissionOrder:
    def test_serial_order(self):
        specs = make_specs()
        with ChunkRunner(workers=1) as runner:
            indices = [r.chunk_index for r in runner.run(specs)]
        assert indices == list(range(len(specs)))

    def test_pooled_reorder_buffer_restores_order(self):
        specs = make_specs(n_chunks=12)
        with ChunkRunner(workers=2) as runner:
            results = list(runner.run(specs))
        assert [r.chunk_index for r in results] == list(range(len(specs)))
        assert all(isinstance(r, ChunkResult) for r in results)

    @pytest.mark.parametrize("backend,decoder", GRID)
    def test_pooled_matches_serial_counts(self, backend, decoder):
        specs = plan_chunks(
            make_task(backend, decoder, max_shots=1_000), 3, 100
        )
        with ChunkRunner(workers=1) as serial:
            expected = [(r.chunk_index, r.shots, r.errors)
                        for r in serial.run(specs)]
        with ChunkRunner(workers=2) as pooled:
            observed = [(r.chunk_index, r.shots, r.errors)
                        for r in pooled.run(specs)]
        assert observed == expected


class TestEarlyStopShutdown:
    def test_abandoned_run_exits_cleanly(self):
        """Breaking out of a pooled run must not deadlock close/join —
        the in-flight window's feeder has to be released."""
        specs = make_specs(n_chunks=30, chunk_shots=50)
        started = time.time()
        with ChunkRunner(workers=2) as runner:
            for result in runner.run(specs):
                assert result.chunk_index == 0
                break
        assert time.time() - started < 60

    def test_bounded_speculative_overrun(self, monkeypatch):
        """The feeder may not eagerly submit the whole budget: after an
        early stop at the first result, at most one consumed chunk plus
        one in-flight window of speculative chunks ever started."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("tracking hook requires fork inheritance")
        import repro.engine.workers as workers_mod

        executed = multiprocessing.Manager().list()
        real_run_chunk = workers_mod.run_chunk

        def tracking_run_chunk(spec):
            executed.append(spec.chunk_index)
            return real_run_chunk(spec)

        # Patched before __enter__ so forked workers inherit the hook.
        monkeypatch.setattr(workers_mod, "run_chunk", tracking_run_chunk)
        specs = make_specs(n_chunks=40, chunk_shots=50)
        with ChunkRunner(workers=2) as runner:
            window = 2 * runner.workers
            for _ in runner.run(specs):
                break
        assert len(executed) <= 1 + window, list(executed)
        assert len(executed) < len(specs)

    def test_second_run_after_abandoned_run(self):
        """The runner survives an abandoned run and serves the next."""
        specs = make_specs(n_chunks=6)
        with ChunkRunner(workers=2) as runner:
            for _ in runner.run(specs):
                break
            indices = [r.chunk_index for r in runner.run(specs)]
        assert indices == list(range(len(specs)))

    def test_exception_in_consumer_terminates_pool(self):
        specs = make_specs(n_chunks=6)
        with pytest.raises(RuntimeError, match="consumer failed"):
            with ChunkRunner(workers=2) as runner:
                for _ in runner.run(specs):
                    raise RuntimeError("consumer failed")

    def test_clean_exit_stops_workers_gracefully(self):
        """Clean exit must let workers drain and exit on the stop
        sentinel rather than be terminated: a graceful exit (code 0)
        proves no worker died mid-chunk, so forked children flushed
        coverage and never dropped a leased chunk.  (Explicit empty
        fault plan: the CI chaos leg exports REPRO_FAULTS, and an
        injected SIGKILL would make exit codes meaningless here.)"""
        with ChunkRunner(workers=2, fault_plan="") as runner:
            pool = runner._pool
            processes = [
                pool._handles[slot].process for slot in pool.live_slots()
            ]
            list(runner.run(make_specs(n_chunks=4)))
        # After a clean __exit__ the pool is stopped and detached...
        assert runner._pool is None
        # ...and every worker exited voluntarily (exit code 0), not via
        # SIGTERM (which would show as a negative exitcode).
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0, process.exitcode

    def test_exception_path_stops_workers_without_draining(
        self, monkeypatch
    ):
        """An exception while later chunks sit in the reorder buffer
        (leases still outstanding) stops the pool non-gracefully, and
        no worker outlives the runner."""
        specs = plan_chunks(make_task(max_shots=3000, p=0.04), 3, 100)
        seen = {}
        with pytest.raises(RuntimeError, match="mid-stream"):
            with ChunkRunner(workers=2) as runner:
                pool = runner._pool
                processes = [
                    pool._handles[slot].process
                    for slot in pool.live_slots()
                ]
                real_stop = pool.stop

                def spying_stop(graceful=True):
                    seen["graceful"] = graceful
                    return real_stop(graceful=graceful)

                monkeypatch.setattr(pool, "stop", spying_stop)
                for result in runner.run(specs):
                    if result.chunk_index >= 3:
                        raise RuntimeError("mid-stream consumer failure")
        assert seen["graceful"] is False
        assert runner._pool is None
        assert not any(process.is_alive() for process in processes)

    def test_stale_generator_cleanup_spares_newer_run(self):
        """Finalizing an abandoned older run() generator must not trip
        the stop event of a newer run on the same runner.

        The older run covers fewer chunks than the in-flight window so
        its feeder finishes on its own (a *stalled* open feeder would
        hold the pool's shared task queue — one active pooled run at a
        time is the runner's contract; the collector honors it).
        """
        with ChunkRunner(workers=2) as runner:
            older = runner.run(make_specs(n_chunks=3))
            assert next(older).chunk_index == 0
            specs = make_specs(n_chunks=8)
            newer = runner.run(specs)
            first = next(newer)
            older.close()  # old cleanup fires mid-consumption of newer
            rest = list(newer)
        indices = [first.chunk_index] + [r.chunk_index for r in rest]
        assert indices == list(range(len(specs)))


class TestOneWire:
    @pytest.mark.parametrize("name,value", [
        ("transport", "pickle"), ("slot_bytes", 4096),
    ])
    def test_removed_wire_knobs_rejected(self, name, value):
        with pytest.raises(TypeError, match=name):
            ChunkRunner(workers=2, **{name: value})

    def test_transport_env_var_is_not_read(self, monkeypatch):
        """``REPRO_TRANSPORT`` no longer steers anything: a pooled run
        under it stays on the pickle wire with serial-identical counts."""
        monkeypatch.setenv("REPRO_TRANSPORT", "shm")
        obs.enable(tracing=True, metrics=True)
        specs = make_specs(n_chunks=4)
        with ChunkRunner(workers=1) as serial:
            expected = [(r.chunk_index, r.shots, r.errors)
                        for r in serial.run(specs)]
        obs.drain_spans()
        with ChunkRunner(workers=2) as pooled:
            observed = [(r.chunk_index, r.shots, r.errors)
                        for r in pooled.run(specs)]
        assert observed == expected
        assert {
            r.attrs["transport"]
            for r in obs.drain_spans()
            if r.name == "chunk.queue"
        } == {"pickle"}


class TestWarmWorkers:
    def test_warm_compiles_once_per_worker(self):
        """After a warm broadcast, sampler compile count == workers —
        not chunks — and every chunk is a cache hit."""
        obs.enable(tracing=False, metrics=True)
        workers = 2
        task = make_task(max_shots=800, p=0.041)
        specs = plan_chunks(task, 3, 100)
        # Explicit empty fault plan: under the CI chaos leg's
        # REPRO_FAULTS a killed worker's replacement is re-warmed,
        # which is one extra (correct) compile this count can't allow.
        with ChunkRunner(workers=workers, fault_plan="") as runner:
            assert runner.warm(warm_spec(task, 3))
            # Idempotent: the same triple never broadcasts twice.
            assert not runner.warm(warm_spec(task, 3))
            list(runner.run(specs))
        reg = obs.registry()
        misses = sum(
            m.value
            for _, m in reg.select("repro_cache_misses_total", kind="sampler")
        )
        hits = sum(
            m.value
            for _, m in reg.select("repro_cache_hits_total", kind="sampler")
        )
        assert misses == workers
        assert hits == len(specs)
        assert reg.value("repro_warm_broadcasts_total") == 1

    def test_warm_is_noop_in_process(self):
        task = make_task()
        with ChunkRunner(workers=1) as runner:
            assert not runner.warm(warm_spec(task, 3))

    def test_warm_works_on_pickle_wire(self):
        """Warm payloads are whole pickled specs; the pool still
        compiles exactly once per worker."""
        obs.enable(tracing=False, metrics=True)
        task = make_task(max_shots=400, p=0.043)
        with ChunkRunner(workers=2, fault_plan="") as runner:
            assert runner.warm(warm_spec(task, 3))
            list(runner.run(plan_chunks(task, 3, 100)))
        misses = sum(
            m.value
            for _, m in obs.registry().select(
                "repro_cache_misses_total", kind="sampler"
            )
        )
        assert misses == 2
