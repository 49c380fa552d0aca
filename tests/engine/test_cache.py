"""SamplerCache LRU semantics and build-on-miss accounting."""

import pytest

import repro.obs as obs
from repro.dem import extract_dem
from repro.engine import SamplerCache, Task, collect
from repro.engine.cache import cached_dem, reset_shared_cache, shared_cache
from repro.qec import surface_code_memory


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
    """One Algorithm-1 compile per symbolic task: the DEM is read off the
    task's cached ``symbolic`` sampler; other samplers compile the
    symbolic pass transiently and do not keep it."""

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

    def test_frame_task_compiles_transiently(self, circuit):
        fingerprint = circuit.fingerprint()
        dem = cached_dem(circuit, fingerprint, "frame")
        assert ("dem", fingerprint) in shared_cache()
        assert ("sampler", fingerprint, "symbolic") not in shared_cache()
        assert _dem_view(dem) == _dem_view(extract_dem(circuit))
        assert cached_dem(circuit, fingerprint, "symbolic") is dem


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
            assert cache.stats()["misses"] == 4  # circuit, sampler, dem, decoder
        finally:
            reset_shared_cache()
