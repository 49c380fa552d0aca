"""CompiledCircuit: lazy artifacts, cache sharing, pipeline equivalence."""

import numpy as np
import pytest

from repro.backends import compile_backend
from repro.circuit.circuit import Circuit
from repro.decoders import compile_decoder
from repro.dem import extract_dem
from repro.engine import ExecutionOptions, Task, collect
from repro.engine.cache import reset_shared_cache, shared_cache
from repro.qec import repetition_code_memory
from repro.study import CompiledCircuit

SEED = 7


def make_circuit(p=0.08):
    return repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )


@pytest.fixture(autouse=True)
def clean_cache():
    reset_shared_cache()
    yield
    reset_shared_cache()


class TestConstruction:
    def test_circuit_compile_returns_handle(self):
        compiled = make_circuit().compile()
        assert isinstance(compiled, CompiledCircuit)
        assert compiled.sampler_name == "symbolic"
        assert compiled.decoder_name == "compiled-matching"

    def test_aliases_resolve_to_canonical_names(self):
        compiled = make_circuit().compile(sampler="symphase", decoder="mwpm")
        assert compiled.sampler_name == "symbolic"
        assert compiled.decoder_name == "matching"

    def test_unknown_names_raise_descriptive_errors(self):
        with pytest.raises(ValueError, match="registered backend"):
            make_circuit().compile(sampler="nope")
        with pytest.raises(ValueError, match="registered decoder"):
            make_circuit().compile(decoder="nope")

    def test_construction_is_lazy(self):
        make_circuit().compile()
        assert len(shared_cache()) == 0


class TestCacheSharing:
    def test_equal_circuits_share_one_sampler(self):
        a = make_circuit().compile()
        b = make_circuit().compile()
        assert a.sampler is b.sampler
        assert a.dem is b.dem
        assert a.decoder is b.decoder

    def test_cache_keys_match_engine_workers(self):
        """A handle warmed interactively pre-pays the engine's cache."""
        compiled = make_circuit().compile()
        _ = compiled.sampler, compiled.dem, compiled.decoder
        cache = shared_cache()
        fp = compiled.fingerprint
        assert ("sampler", fp, "symbolic") in cache
        assert ("dem", fp) in cache
        assert ("decoder", fp, "compiled-matching") in cache


class TestSampling:
    def test_sample_accepts_seed_or_generator(self):
        compiled = make_circuit().compile()
        from_seed = compiled.sample(50, SEED)
        from_rng = compiled.sample(50, np.random.default_rng(SEED))
        assert np.array_equal(from_seed, from_rng)

    def test_detect_shapes(self):
        circuit = make_circuit()
        detectors, observables = circuit.compile().detect(20, SEED)
        assert detectors.shape == (20, circuit.num_detectors)
        assert observables.shape == (20, circuit.num_observables)

    @pytest.mark.parametrize("decoder", ["matching", "compiled-matching"])
    def test_decode_bitwise_matches_manual_pipeline(self, decoder):
        """`.decode()` == sample_detectors -> extract_dem ->
        compile_decoder -> decode_batch, bit for bit."""
        circuit = make_circuit()
        predictions, observables = circuit.compile(
            sampler="frame", decoder=decoder
        ).decode(300, SEED)

        sampler = compile_backend(circuit, "frame")
        det, obs = sampler.sample_detectors(300, np.random.default_rng(SEED))
        manual = compile_decoder(extract_dem(circuit), decoder).decode_batch(det)
        assert np.array_equal(predictions, manual)
        assert np.array_equal(observables, obs)

    def test_decoder_none_cannot_decode(self):
        compiled = make_circuit().compile(decoder="none")
        with pytest.raises(ValueError, match="decoder='none'"):
            _ = compiled.decoder


class TestEngineEquivalence:
    def test_logical_error_rate_matches_task_collect_path(self):
        """The acceptance contract: same counts as the pre-redesign
        Task/collect path for the same seed."""
        circuit = make_circuit()
        rate = circuit.compile().logical_error_rate(
            2_000, seed=SEED, chunk_shots=500
        )
        stats = collect(
            [Task(circuit, decoder="compiled-matching", sampler="symbolic",
                  max_shots=2_000)],
            base_seed=SEED, chunk_shots=500,
        )[0]
        assert rate == stats.error_rate

    def test_logical_error_rate_decoder_none_consistent_across_paths(self):
        """decoder='none' counts raw observable flips on both the
        engine (int-seed) and Generator paths."""
        circuit = repetition_code_memory(
            3, rounds=2,
            data_flip_probability=0.3, measure_flip_probability=0.3,
        )
        compiled = circuit.compile(sampler="frame", decoder="none")
        engine_rate = compiled.logical_error_rate(400, seed=SEED)
        stats = collect(
            [Task(circuit, decoder="none", sampler="frame", max_shots=400)],
            base_seed=SEED,
        )[0]
        assert engine_rate == stats.error_rate
        rng_rate = compiled.logical_error_rate(
            400, np.random.default_rng(SEED)
        )
        _, observables = compiled.detect(400, np.random.default_rng(SEED))
        assert rng_rate == float(observables.any(axis=1).mean())
        assert rng_rate > 0  # sanity: flips actually occurred

    def test_logical_error_rate_generator_path(self):
        """With an explicit Generator the shots come from that stream —
        one in-process batch, matching the manual pipeline."""
        circuit = make_circuit()
        compiled = circuit.compile(sampler="frame")
        rate = compiled.logical_error_rate(400, np.random.default_rng(SEED))
        predictions, observables = compiled.decode(
            400, np.random.default_rng(SEED)
        )
        expected = float((predictions != observables).any(axis=1).mean())
        assert rate == expected

    def test_logical_error_rate_accepts_seed_sequence(self):
        """A SeedSequence cannot thread into engine chunks; it takes the
        single-batch path, like a Generator."""
        compiled = make_circuit().compile(sampler="frame")
        rate = compiled.logical_error_rate(400, np.random.SeedSequence(SEED))
        predictions, observables = compiled.decode(
            400, np.random.SeedSequence(SEED)
        )
        expected = float((predictions != observables).any(axis=1).mean())
        assert rate == expected

    def test_generator_path_rejects_engine_only_limits(self):
        """max_errors/workers/chunk_shots cannot apply to a one-batch
        Generator draw — dropping them silently would be worse."""
        compiled = make_circuit().compile(sampler="frame")
        rng = np.random.default_rng(SEED)
        with pytest.raises(ValueError, match="int seed"):
            compiled.logical_error_rate(100, rng, max_errors=5)
        with pytest.raises(ValueError, match="int seed"):
            compiled.logical_error_rate(100, rng, workers=2)
        # Explicitly passing the *default* value still conflicts
        # (sentinel, not value comparison).
        with pytest.raises(ValueError, match="chunk_shots"):
            compiled.logical_error_rate(100, rng, chunk_shots=2_000)

    def test_task_shares_strong_id_with_manual_task(self):
        circuit = make_circuit()
        from_handle = circuit.compile(decoder="mwpm").task(max_shots=500)
        manual = Task(circuit, decoder="matching", sampler="symbolic",
                      max_shots=500)
        assert from_handle.strong_id() == manual.strong_id()

    def test_task_reuses_handle_fingerprint(self, monkeypatch):
        """The handle hashes its circuit once; tasks built from it, and
        the collections they drive, never hash it again."""
        calls = []
        original = Circuit.fingerprint

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(Circuit, "fingerprint", counting)
        compiled = make_circuit().compile()
        expected = compiled.fingerprint
        assert len(calls) == 1
        for budget in (100, 200):
            task = compiled.task(max_shots=budget)
            assert task.circuit_fingerprint() == expected
            task.strong_id()
        compiled.collect(ExecutionOptions(base_seed=SEED), max_shots=200)
        assert len(calls) == 1

    def test_tasks_share_the_handle_text(self, monkeypatch):
        """The handle serialises its circuit once; every task built from
        it carries that same text object to the chunk specs."""
        calls = []
        original = Circuit.to_text

        def counting(circuit):
            calls.append(circuit)
            return original(circuit)

        monkeypatch.setattr(Circuit, "to_text", counting)
        compiled = make_circuit().compile()
        first = compiled.task(max_shots=100)
        second = compiled.task(max_shots=200)
        assert first.circuit_text() is second.circuit_text()
        assert first.circuit_text() == original(compiled.circuit)
        compiled.collect(ExecutionOptions(base_seed=SEED), max_shots=200)
        assert len(calls) == 1

    def test_collect_applies_options_policy(self):
        """ExecutionOptions.max_errors is the default early-stop policy."""
        circuit = repetition_code_memory(
            3, rounds=2,
            data_flip_probability=0.2, measure_flip_probability=0.2,
        )
        stats = circuit.compile().collect(
            ExecutionOptions(base_seed=SEED, chunk_shots=200, max_errors=10),
            max_shots=5_000,
        )
        assert stats.errors >= 10
        assert stats.shots < 5_000

    def test_collect_kwarg_overrides_patch_options(self):
        stats = make_circuit().compile().collect(
            ExecutionOptions(base_seed=SEED), max_shots=400, chunk_shots=100
        )
        assert stats.shots == 400
        assert stats.chunks == 4


class TestPackedStudyPath:
    def test_detect_packed_is_packed_detect(self):
        from repro.gf2 import bitops

        compiled = make_circuit().compile(sampler="frame")
        det, obs = compiled.detect(300, SEED)
        det_p, obs_p = compiled.detect_packed(300, SEED)
        assert np.array_equal(bitops.pack_rows(det), det_p)
        assert np.array_equal(bitops.pack_rows(obs), obs_p)

    def test_decode_packed_matches_decode_bitwise(self):
        from repro.gf2 import bitops

        compiled = make_circuit().compile(
            sampler="frame", decoder="compiled-matching"
        )
        predictions, observables = compiled.decode(300, SEED)
        packed_pred, packed_obs = compiled.decode_packed(300, SEED)
        assert np.array_equal(bitops.pack_rows(predictions), packed_pred)
        assert np.array_equal(bitops.pack_rows(observables), packed_obs)

    @pytest.mark.parametrize("decoder", ["matching", "lookup"])
    def test_decode_packed_works_for_reference_decoders(self, decoder):
        from repro.gf2 import bitops

        compiled = make_circuit().compile(sampler="frame", decoder=decoder)
        predictions, observables = compiled.decode(200, SEED)
        packed_pred, packed_obs = compiled.decode_packed(200, SEED)
        assert np.array_equal(bitops.pack_rows(predictions), packed_pred)
        assert np.array_equal(bitops.pack_rows(observables), packed_obs)

    def test_generator_rate_unchanged_by_packed_rewire(self):
        """The packed Generator path must reproduce the historical
        unpacked estimate exactly (same stream, bitwise-equal views)."""
        compiled = make_circuit().compile(
            sampler="frame", decoder="compiled-matching"
        )
        rate = compiled.logical_error_rate(400, np.random.default_rng(SEED))
        predictions, observables = compiled.decode(
            400, np.random.default_rng(SEED)
        )
        expected = float((predictions != observables).any(axis=1).mean())
        assert rate == expected

    def test_generator_rate_decoder_none_packed(self):
        compiled = make_circuit().compile(sampler="frame", decoder="none")
        rate = compiled.logical_error_rate(400, np.random.default_rng(SEED))
        _, observables = compiled.detect(400, np.random.default_rng(SEED))
        assert rate == float(observables.any(axis=1).mean())
