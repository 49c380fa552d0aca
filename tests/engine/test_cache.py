"""SamplerCache LRU semantics and build-on-miss accounting."""

import numpy as np
import pytest

import repro.obs as obs
from repro.dem import ErrorMechanism, extract_dem
from repro.engine import SamplerCache, Task, collect
from repro.engine.cache import (
    cached_dem,
    cached_pass,
    cached_sampler,
    reset_shared_cache,
    shared_cache,
)
from repro.qec import surface_code_memory
from repro.tableau import TableauSimulator, reference_sample


class TestSamplerCache:
    def test_miss_builds_then_hit_reuses(self):
        cache = SamplerCache(capacity=4)
        builds = []

        def build():
            builds.append(1)
            return object()

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert len(builds) == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_lru_evicts_least_recently_used(self):
        cache = SamplerCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a; b is now LRU
        cache.get_or_build("c", lambda: "C")  # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_evicted_entry_rebuilds(self):
        cache = SamplerCache(capacity=1)
        cache.get_or_build("a", lambda: "first")
        cache.get_or_build("b", lambda: "B")
        assert cache.get_or_build("a", lambda: "rebuilt") == "rebuilt"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SamplerCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = SamplerCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestSharedCache:
    def test_process_global_singleton(self):
        reset_shared_cache()
        try:
            assert shared_cache() is shared_cache()
        finally:
            reset_shared_cache()

    def test_reset_drops_instance(self):
        first = shared_cache()
        reset_shared_cache()
        try:
            assert shared_cache() is not first
        finally:
            reset_shared_cache()


def _dem_view(dem):
    return [
        (m.probability.hex(), m.detectors, m.observables) for m in dem.mechanisms
    ], dem.groups


class TestCachedDem:
    """One Algorithm-1 pass per circuit whatever the sampler: the
    ``symbolic`` sampler is the cached pass, the frame samplers take
    their reference record from its constant column, and the DEM is
    read off it."""

    @pytest.fixture()
    def circuit(self):
        reset_shared_cache()
        yield surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        reset_shared_cache()

    def symbolic_passes(self):
        return sum(
            record.name == "core.symbolic_pass" for record in obs.drain_spans()
        )

    def test_symbolic_handle_runs_one_symbolic_pass(self, circuit):
        obs.enable(tracing=True, metrics=False)
        compiled = circuit.compile(sampler="symbolic")
        _ = compiled.sampler, compiled.decoder
        assert self.symbolic_passes() == 1
        assert compiled.dem.mechanisms[0].probability > 0
        assert _dem_view(compiled.dem) == _dem_view(extract_dem(circuit))

    def test_symbolic_collect_runs_one_symbolic_pass(self, circuit):
        obs.enable(tracing=True, metrics=False)
        task = Task(
            circuit, decoder="compiled-matching", sampler="symphase", max_shots=400
        )
        collect([task], base_seed=3, workers=1, chunk_shots=100)
        assert self.symbolic_passes() == 1

    @pytest.fixture()
    def no_tableau_run(self, monkeypatch):
        """The frame samplers' reference comes from the pass, not from a
        separate noiseless tableau run."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a tableau reference run")

        monkeypatch.setattr(TableauSimulator, "run", forbidden)

    @pytest.mark.parametrize("sampler", ["frame", "frame-interp"])
    def test_frame_handle_runs_one_symbolic_pass(
        self, circuit, sampler, no_tableau_run, monkeypatch
    ):
        obs.enable(tracing=True, metrics=False)
        compiled = circuit.compile(sampler=sampler)
        _ = compiled.sampler, compiled.decoder
        assert self.symbolic_passes() == 1
        assert _dem_view(compiled.dem) == _dem_view(extract_dem(circuit))
        monkeypatch.undo()
        assert np.array_equal(
            compiled.sampler.reference, reference_sample(circuit)
        )

    def test_frame_collect_runs_one_symbolic_pass(self, circuit, no_tableau_run):
        obs.enable(tracing=True, metrics=False)
        task = Task(
            circuit, decoder="compiled-matching", sampler="frame", max_shots=400
        )
        collect([task], base_seed=3, workers=1, chunk_shots=100)
        assert self.symbolic_passes() == 1

    @pytest.mark.parametrize("first", ["sampler", "decoder"])
    @pytest.mark.parametrize("sampler", ["frame", "frame-interp", "tableau"])
    def test_spent_pass_is_released(self, circuit, sampler, first):
        """Once a non-symbolic task's sampler and DEM are both built the
        pass is dropped, whichever was built first, after one pass."""
        obs.enable(tracing=True, metrics=False)
        compiled = circuit.compile(sampler=sampler)
        for artifact in (first, {"sampler": "decoder"}.get(first, "sampler")):
            getattr(compiled, artifact)
        assert self.symbolic_passes() == 1
        assert ("pass", compiled.fingerprint) not in shared_cache()
        assert len(shared_cache()) == 3  # sampler, dem, decoder

    def test_symbolic_reads_do_not_rerun_the_pass(self, circuit):
        """Only a build that completes the (sampler, DEM) pair drops the
        pass: a later ``sampler`` hit leaves the pass ``symbolic()``
        rebuilt in place, so the second ``symbolic()`` is a hit."""
        compiled = circuit.compile(sampler="frame")
        cache = shared_cache()
        _ = compiled.sampler, compiled.dem
        assert cache.stats()["misses"] == 3  # pass, sampler, dem
        first = compiled.symbolic()
        assert cache.stats()["misses"] == 4
        _ = compiled.sampler
        assert compiled.symbolic() is first
        assert cache.stats()["misses"] == 4

    def test_frame_task_setup_drops_the_pass(self, circuit):
        """A frame collect still releases the pass once its chunks have
        built both the sampler and the DEM."""
        task = Task(
            circuit, decoder="compiled-matching", sampler="frame", max_shots=300
        )
        collect([task], base_seed=3, workers=1, chunk_shots=100)
        fingerprint = task.circuit_fingerprint()
        cache = shared_cache()
        assert ("pass", fingerprint) not in cache
        assert ("dem", fingerprint) in cache
        assert ("sampler", fingerprint, "frame") in cache

    @pytest.mark.parametrize("sampler", ["frame", "frame-interp", "tableau"])
    def test_decoderless_frame_task_drops_the_pass(self, circuit, sampler):
        """A task that decodes nothing builds no DEM, so its pass is
        spent once the sampler is built: the cache keeps only the
        circuit and the sampler.  A later ``dem`` reruns the pass and
        reads the same DEM off it."""
        task = Task(circuit, decoder="none", sampler=sampler, max_shots=300)
        collect([task], base_seed=3, workers=1, chunk_shots=100)
        fingerprint = task.circuit_fingerprint()
        cache = shared_cache()
        assert len(cache) == 2
        assert ("circuit", fingerprint) in cache
        assert ("sampler", fingerprint, sampler) in cache
        compiled = circuit.compile(sampler=sampler, decoder="none")
        assert _dem_view(compiled.dem) == _dem_view(extract_dem(circuit))
        assert ("pass", fingerprint) not in cache

    def test_decoderless_handle_drops_the_pass(self, circuit):
        compiled = circuit.compile(sampler="frame", decoder="none")
        _ = compiled.sampler
        assert len(shared_cache()) == 1
        assert ("sampler", compiled.fingerprint, "frame") in shared_cache()

    def test_mixed_decoder_sweep_runs_one_pass(self, circuit):
        """A decoder-less task keeps its pass while a later task of the
        same collect decodes that circuit: the decoding task hits the
        sampler, reads its DEM off the kept pass, and Algorithm 1 runs
        once.  Its counts are those of the task run alone, and the pass
        is dropped once the DEM is built."""
        obs.enable(tracing=True, metrics=False)
        decoding = Task(
            circuit, decoder="compiled-matching", sampler="frame",
            max_shots=300,
        )
        alone = collect([decoding], base_seed=3, workers=1, chunk_shots=100)
        obs.drain_spans()
        reset_shared_cache()
        decoderless = Task(circuit, decoder="none", sampler="frame", max_shots=300)
        swept = collect(
            [decoderless, decoding], base_seed=3, workers=1, chunk_shots=100
        )
        assert (swept[1].shots, swept[1].errors) == (
            alone[0].shots, alone[0].errors
        )
        assert self.symbolic_passes() == 1
        assert ("pass", decoding.circuit_fingerprint()) not in shared_cache()

    @pytest.mark.parametrize("sampler", ["frame", "symbolic"])
    def test_setup_builds_no_error_mechanism(self, circuit, sampler, monkeypatch):
        """The engine's set-up hands the decoder the DEM's arrays: no
        per-mechanism object is built between the pass and the tables."""

        def forbidden(self):
            raise AssertionError("an ErrorMechanism was built")

        monkeypatch.setattr(ErrorMechanism, "__post_init__", forbidden)
        task = Task(
            circuit, decoder="compiled-matching", sampler=sampler, max_shots=300
        )
        (stats,) = collect([task], base_seed=3, workers=1, chunk_shots=100)
        assert stats.shots == 300

    def test_symbolic_task_keeps_the_pass(self, circuit):
        compiled = circuit.compile(sampler="symbolic")
        _ = compiled.sampler, compiled.decoder
        assert ("pass", compiled.fingerprint) in shared_cache()

    def test_every_sampler_shares_the_pass(self, circuit):
        fingerprint = circuit.fingerprint()
        dem = cached_dem(circuit, fingerprint, "symbolic")
        shared = cached_pass(circuit, fingerprint)
        assert ("pass", fingerprint) in shared_cache()
        assert _dem_view(dem) == _dem_view(extract_dem(circuit))
        assert cached_sampler(circuit, fingerprint, "symbolic") is shared
        frame = cached_sampler(circuit, fingerprint, "frame")
        assert np.array_equal(frame.reference, shared.reference())


class TestSerialCollectReusesTheCircuit:
    """A serial collect serializes its circuit once (for the chunk specs)
    and parses nothing while the compiled artifacts are cached."""

    def test_no_reparse_and_one_serialization(self, monkeypatch):
        from repro.circuit.circuit import Circuit

        reset_shared_cache()
        try:
            circuit = surface_code_memory(
                3, rounds=2, after_clifford_depolarization=0.01
            )
            compiled = circuit.compile(
                sampler="symbolic", decoder="compiled-matching"
            )
            _ = compiled.sampler, compiled.decoder
            texts, parses = [], []
            to_text, from_text = Circuit.to_text, Circuit.from_text.__func__
            monkeypatch.setattr(
                Circuit, "to_text",
                lambda self, *a: texts.append(1) or to_text(self, *a),
            )
            monkeypatch.setattr(
                Circuit, "from_text",
                classmethod(lambda cls, t: parses.append(1) or from_text(cls, t)),
            )
            task = compiled.task(max_shots=300)
            (stats,) = collect([task], base_seed=4, workers=1, chunk_shots=100)
            assert stats.chunks == 3
            assert (len(texts), len(parses)) == (1, 0)
        finally:
            reset_shared_cache()

    def test_cold_serial_chunk_parses_once(self):
        from repro.engine.workers import plan_chunks, run_chunk

        reset_shared_cache()
        try:
            circuit = surface_code_memory(
                3, rounds=2, after_clifford_depolarization=0.01
            )
            task = Task(circuit, decoder="compiled-matching", max_shots=200)
            for spec in plan_chunks(task, 1, 100):
                run_chunk(spec)
            cache = shared_cache()
            assert ("circuit", task.circuit_fingerprint()) in cache
            # circuit, pass, sampler (the pass itself), dem, decoder
            assert cache.stats()["misses"] == 5
        finally:
            reset_shared_cache()
