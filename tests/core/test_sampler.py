"""Tests for the compiled (Eq. 4) sampler."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.core.compiled_sampler import CompiledSampler
from repro.gf2 import bitops


def bell_with_noise(p=0.3):
    return Circuit.from_text(
        f"H 0\nCNOT 0 1\nX_ERROR({p}) 0\nX_ERROR({p}) 1\nM 0 1"
    )


class TestStrategiesAgree:
    def test_dense_and_sparse_same_distribution(self, rng):
        sampler = compile_sampler(bell_with_noise())
        dense = sampler.sample(30000, np.random.default_rng(1), strategy="dense")
        sparse = sampler.sample(30000, np.random.default_rng(2), strategy="sparse")
        assert np.allclose(dense.mean(axis=0), sparse.mean(axis=0), atol=0.02)
        xor_dense = (dense[:, 0] ^ dense[:, 1]).mean()
        xor_sparse = (sparse[:, 0] ^ sparse[:, 1]).mean()
        assert abs(xor_dense - xor_sparse) < 0.02

    def test_unknown_strategy_rejected(self):
        sampler = compile_sampler(bell_with_noise())
        with pytest.raises(ValueError):
            sampler.sample(10, strategy="magic")

    def test_zero_shots_rejected(self):
        with pytest.raises(ValueError):
            compile_sampler(bell_with_noise()).sample(0)


class TestEq4Replay:
    """``sample(shots, seed)`` is ``draw_symbols`` followed by Eq. 4:
    replaying Eq. 4 on the drawn ``B`` gives the same records bitwise."""

    @pytest.mark.parametrize("strategy", ["auto", "dense", "sparse"])
    @pytest.mark.parametrize("shots", [1, 64, 65, 700])
    def test_replay_matches_sample(self, strategy, shots):
        from repro.workloads.layered import layered_random_circuit

        circuit = layered_random_circuit(
            16, n_layers=12, cnot_pairs_per_layer=6,
            depolarize_probability=0.01, seed=3,
        )
        sampler = compile_sampler(circuit)
        direct = sampler.sample(shots, 41, strategy=strategy)
        symbols = sampler.draw_symbols(shots, 41)
        replay = sampler.sample(shots, strategy=strategy, symbol_values=symbols)
        assert np.array_equal(direct, replay)


class TestStatistics:
    def test_marginals_uniform_for_random_measurements(self):
        sampler = compile_sampler(bell_with_noise())
        records = sampler.sample(40000, np.random.default_rng(0))
        assert np.allclose(records.mean(axis=0), 0.5, atol=0.01)

    def test_xor_matches_theory(self):
        # m0 ^ m1 flips iff exactly one X fault fired: 2 p (1-p).
        p = 0.3
        sampler = compile_sampler(bell_with_noise(p))
        records = sampler.sample(60000, np.random.default_rng(0))
        xor_rate = (records[:, 0] ^ records[:, 1]).mean()
        assert abs(xor_rate - 2 * p * (1 - p)) < 0.01

    def test_deterministic_circuit_constant_samples(self):
        sampler = compile_sampler(Circuit().x(0).cx(0, 1).m(0, 1))
        records = sampler.sample(100, np.random.default_rng(0))
        assert np.array_equal(records, np.ones((100, 2), dtype=np.uint8))

    def test_y_error_flips_z_measurement(self):
        sampler = compile_sampler(
            Circuit.from_text("Y_ERROR(1) 0\nM 0")
        )
        records = sampler.sample(50, np.random.default_rng(0))
        assert records.all()


class TestShapes:
    def test_sample_shape(self):
        sampler = compile_sampler(bell_with_noise())
        assert sampler.sample(17, np.random.default_rng(0)).shape == (17, 2)

    def test_no_measurement_circuit(self):
        sampler = compile_sampler(Circuit().h(0))
        assert sampler.sample(5, np.random.default_rng(0)).shape == (5, 0)

    def test_detector_shapes(self):
        c = Circuit().x_error(0.5, 0).m(0).detector(-1).observable_include(0, -1)
        sampler = compile_sampler(c)
        det, obs = sampler.sample_detectors(23, np.random.default_rng(0))
        assert det.shape == (23, 1)
        assert obs.shape == (23, 1)
        assert np.array_equal(det, obs)  # same single measurement


class TestDetectorSampling:
    def test_detector_fires_at_error_rate(self):
        p = 0.2
        c = Circuit().x_error(p, 0).mr(0).mr(0).detector(-1, -2)
        sampler = compile_sampler(c)
        det, _ = sampler.sample_detectors(50000, np.random.default_rng(0))
        # Detector = m0 ^ m1 = first X flip only.
        assert abs(det.mean() - p) < 0.01

    def test_noiseless_detectors_silent(self):
        c = Circuit().mr(0).mr(0).detector(-1, -2)
        det, _ = compile_sampler(c).sample_detectors(
            500, np.random.default_rng(0)
        )
        assert not det.any()

    def test_shared_randomness_between_detectors_and_observables(self):
        # Observable == detector here, so they must agree shot by shot.
        c = (
            Circuit()
            .x_error(0.5, 0)
            .mr(0)
            .detector(-1)
            .observable_include(0, -1)
        )
        det, obs = compile_sampler(c).sample_detectors(
            1000, np.random.default_rng(0)
        )
        assert np.array_equal(det[:, 0], obs[:, 0])


class TestStrategySelection:
    def test_small_width_picks_dense(self):
        sampler = compile_sampler(bell_with_noise())
        assert sampler.choose_strategy() == "dense"

    def test_sparse_circuit_picks_sparse(self):
        c = Circuit()
        for q in range(80):
            c.x_error(0.01, q).mr(q)
        sampler = compile_sampler(c)
        assert sampler.symbols.width > 64
        assert sampler.choose_strategy() == "sparse"
        assert sampler.average_support() <= 3

    def test_supports_cached(self):
        sampler = compile_sampler(bell_with_noise())
        assert sampler.supports() is sampler.supports()


class TestSupportsFromPackedWords:
    """``_compute_supports`` reads the nonzero packed words; it must give
    exactly the per-row ``np.nonzero`` of the unpacked matrix."""

    @staticmethod
    def reference(matrix, n_cols):
        return [np.nonzero(row)[0] for row in bitops.unpack_rows(matrix, n_cols)]

    @pytest.mark.parametrize("n_cols", [63, 64, 65, 300])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.5])
    def test_matches_unpack_nonzero(self, rng, n_cols, density):
        dense = (rng.random((40, n_cols)) < density).astype(np.uint8)
        dense[::7] = 0  # all-zero rows, including the first and last
        dense[-1] = 0
        matrix = bitops.pack_rows(dense)
        supports = CompiledSampler._compute_supports(matrix)
        expected = self.reference(matrix, n_cols)
        assert len(supports) == len(expected) == 40
        for got, want in zip(supports, expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_words", [0, 1, 3])
    def test_zero_rows_give_zero_supports(self, n_words):
        matrix = np.zeros((0, n_words), dtype=np.uint64)
        assert CompiledSampler._compute_supports(matrix) == []

    def test_single_zero_row(self):
        supports = CompiledSampler._compute_supports(
            np.zeros((1, 2), dtype=np.uint64)
        )
        assert len(supports) == 1 and supports[0].size == 0

    def test_average_support_is_mean_support_size(self):
        c = Circuit()
        for q in range(80):
            c.depolarize1(0.01, q).h(q).cx(q, (q + 1) % 80).mr(q)
        sampler = compile_sampler(c)
        sizes = [s.size for s in sampler.supports()]
        assert sampler.average_support() == pytest.approx(np.mean(sizes))

    def test_zero_row_observable_matrix(self):
        sampler = compile_sampler(
            Circuit.from_text("X_ERROR(0.1) 0\nM 0\nDETECTOR rec[-1]")
        )
        assert sampler.n_observables == 0
        assert sampler._supports_for(sampler.observable_matrix) == []
        derived = sampler._supports_for(sampler._derived())
        assert [s.tolist() for s in derived] == [[1]]
