"""Property-based packed/unpacked equivalence across the whole registry.

The packed wire format is only allowed to change *representation*,
never a single bit: for any circuit and seed,
``sample_detectors_packed`` must equal the row-packing of
``sample_detectors``, and ``decode_batch_packed`` must equal the
row-packing of ``decode_batch`` — including the zero-shot and
all-zero-syndrome edges the hot path short-circuits.  Every registered
decoder answers the packed entry, natively or through the registry's
pack-adapter.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import available_backends, compile_backend, get_backend
from repro.decoders import SyndromeDecoder, available_decoders, compile_decoder
from repro.gf2 import bitops
from repro.qec import repetition_code_memory, surface_code_dem
from tests.helpers import append_random_annotations, random_clifford_circuit


def random_annotated_circuit(seed: int, noise_strength: float = 0.3):
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(
        rng, int(rng.integers(2, 5)), depth=12,
        p_noise=0.25, p_measure=0.12, p_reset=0.06,
        noise_strength=noise_strength, final_measure=True,
    )
    return append_random_annotations(circuit, rng, n_detectors=3)


class TestSamplerPackedEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("noise_strength", [0.3, 0.01])
    def test_packed_equals_packing_unpacked_all_backends(
        self, noise_strength, seed
    ):
        circuit = random_annotated_circuit(seed, noise_strength)
        for name in available_backends():
            sampler = compile_backend(circuit, name)
            shots = 8 if get_backend(name).info.per_shot_cost == "shot" else 130
            unpacked = sampler.sample_detectors(
                shots, np.random.default_rng(seed)
            )
            packed = sampler.sample_detectors_packed(
                shots, np.random.default_rng(seed)
            )
            for side, (dense, words) in enumerate(zip(unpacked, packed)):
                assert words.dtype == np.uint64, name
                assert words.shape == (
                    shots, bitops.words_for(dense.shape[1])
                ), (name, side)
                assert np.array_equal(bitops.pack_rows(dense), words), (
                    f"{name} side {side} diverged for seed {seed}"
                )

    @pytest.mark.parametrize("shots", [1, 63, 64, 65])
    def test_word_boundary_shot_counts(self, shots):
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.1,
            measure_flip_probability=0.1,
        )
        for name in ("frame", "frame-interp", "symbolic"):
            sampler = compile_backend(circuit, name)
            dense = sampler.sample_detectors(shots, np.random.default_rng(3))
            words = sampler.sample_detectors_packed(
                shots, np.random.default_rng(3)
            )
            assert np.array_equal(bitops.pack_rows(dense[0]), words[0]), name
            assert np.array_equal(bitops.pack_rows(dense[1]), words[1]), name


class TestDecoderPackedEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_packed_equals_packing_unpacked(self, decoder_name, seed):
        dem = surface_code_dem(3, 2, 0.01)
        decoder = compile_decoder(dem, decoder_name)
        syndromes, _ = dem.sample(200, np.random.default_rng(seed))
        # Force the edges the packed path special-cases: all-zero rows
        # (short-circuited before dedupe) and duplicates.
        syndromes[:11] = 0
        syndromes[11:22] = syndromes[22:33]
        reference = decoder.decode_batch(syndromes)
        packed = decoder.decode_batch_packed(bitops.pack_rows(syndromes))
        assert np.array_equal(bitops.pack_rows(reference), packed)

    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_zero_shot_edge(self, decoder_name):
        dem = surface_code_dem(3, 2, 0.01)
        decoder = compile_decoder(dem, decoder_name)
        n_words = bitops.words_for(dem.n_detectors)
        out = decoder.decode_batch_packed(np.zeros((0, n_words), np.uint64))
        assert out.shape == (0, bitops.words_for(dem.n_observables))
        assert out.dtype == np.uint64

    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_all_zero_syndromes_edge(self, decoder_name):
        dem = surface_code_dem(3, 2, 0.01)
        decoder = compile_decoder(dem, decoder_name)
        n_words = bitops.words_for(dem.n_detectors)
        out = decoder.decode_batch_packed(np.zeros((37, n_words), np.uint64))
        assert out.shape[0] == 37 and not out.any()
        reference = decoder.decode_batch(
            np.zeros((37, dem.n_detectors), np.uint8)
        )
        assert np.array_equal(bitops.pack_rows(reference), out)

    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_wrong_width_rejected(self, decoder_name):
        dem = surface_code_dem(3, 2, 0.01)
        decoder = compile_decoder(dem, decoder_name)
        n_words = bitops.words_for(dem.n_detectors)
        with pytest.raises(ValueError, match="packed"):
            decoder.decode_batch_packed(
                np.zeros((4, n_words + 1), np.uint64)
            )

    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_every_decoder_answers_the_packed_protocol(self, decoder_name):
        decoder = compile_decoder(surface_code_dem(3, 2, 0.01), decoder_name)
        assert isinstance(decoder, SyndromeDecoder)
        assert callable(decoder.decode_batch_packed)


class TestChunkListEquivalence:
    """``decode_chunks_packed`` — the engine's decode-batch entry —
    predicts for each chunk what ``decode_batch_packed`` predicts for it
    alone, including empty, all-zero and cross-chunk duplicate chunks."""

    @staticmethod
    def chunks(dem, seed):
        syndromes, _ = dem.sample(300, np.random.default_rng(seed))
        packed = bitops.pack_rows(syndromes)
        return [
            packed[:120], packed[120:120], np.zeros_like(packed[:7]),
            packed[120:], packed[:40],
        ]

    @pytest.mark.parametrize("decoder_name", available_decoders())
    def test_each_chunk_decodes_as_alone(self, decoder_name):
        dem = surface_code_dem(3, 2, 0.02)
        decoder = compile_decoder(dem, decoder_name)
        chunks = self.chunks(dem, 5)
        batched = decoder.decode_chunks_packed(chunks)
        assert len(batched) == len(chunks)
        for chunk, predicted in zip(chunks, batched):
            assert np.array_equal(predicted, decoder.decode_batch_packed(chunk))
        assert decoder.decode_chunks_packed([]) == []

    def test_row_counters_count_each_chunk(self):
        """Dedupe stays per chunk, so the row counters keep their
        per-chunk meaning (a traced replay counts them chunk by chunk)."""
        import repro.obs as obs

        dem = surface_code_dem(3, 2, 0.02)
        decoder = compile_decoder(dem, "compiled-matching")
        chunks = self.chunks(dem, 6)
        nonzero = unique = 0
        for chunk in chunks:
            rows = bitops.nonzero_rows_packed(chunk)
            nonzero += rows.size
            if rows.size:
                unique += bitops.dedupe_rows_packed(chunk[rows])[0].shape[0]
        whole = np.concatenate(chunks)
        rows = bitops.nonzero_rows_packed(whole)
        assert bitops.dedupe_rows_packed(whole[rows])[0].shape[0] < unique
        obs.enable(tracing=False, metrics=True)
        decoder.decode_chunks_packed(chunks)
        registry = obs.registry()
        total = {
            name: sum(m.value for _, m in registry.select(name))
            for name in (
                "repro_decode_rows_total",
                "repro_decode_nonzero_rows_total",
                "repro_decode_unique_rows_total",
            )
        }
        assert total == {
            "repro_decode_rows_total": sum(c.shape[0] for c in chunks),
            "repro_decode_nonzero_rows_total": nonzero,
            "repro_decode_unique_rows_total": unique,
        }
