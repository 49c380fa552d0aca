"""Tests for the compiled (Eq. 4) sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.core.compiled_sampler import CompiledSampler
from repro.core.symbols import SymbolTable
from repro.gf2 import bitops
from repro.qec import surface_code_memory
from repro.workloads.layered import layered_random_circuit
from tests.helpers import random_clifford_circuit


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


def _fan_out_circuit() -> Circuit:
    """One X fault on qubit 0 copied onto 69 more qubits: its symbol
    feeds 70 measurements, across two packed words of a shot's row."""
    lines = ["X_ERROR(0.2) 0"]
    lines += [f"CX 0 {q}" for q in range(1, 70)]
    lines.append("M " + " ".join(str(q) for q in range(70)))
    return Circuit.from_text("\n".join(lines))


RECORD_CIRCUITS = {
    "fig3c_family": lambda: layered_random_circuit(
        16, n_layers=12, cnot_pairs_per_layer=6,
        depolarize_probability=0.02, seed=3,
    ),
    "noiseless": lambda: layered_random_circuit(
        12, n_layers=8, cnot_pairs_per_layer=4, seed=5,
    ),
    "no_random_measurements": lambda: Circuit.from_text(
        "X_ERROR(0.1) 0 1\nCX 0 1\nDEPOLARIZE1(0.05) 1\nM 0 1 1"
    ),
    "constant_ones": lambda: Circuit.from_text(
        "X 0 1 2\nX_ERROR(0.3) 1\nH 3\nM 0 1 2 3"
    ),
    "fan_out": _fan_out_circuit,
    "no_measurements": lambda: Circuit.from_text("H 0\nX_ERROR(0.1) 0"),
    "channels": lambda: Circuit.from_text(
        """
        R 0 1 2 3
        H 0
        CX 0 1 2 3
        DEPOLARIZE2(0.02) 0 1 2 3
        PAULI_CHANNEL_2(0.001,0.002,0.003,0.004,0.005,0.006,0.007,0.001,0.002,0.003,0.004,0.005,0.006,0.007,0.008) 1 2
        CORRELATED_ERROR(0.03) X0 Z2 Y3
        X_ERROR(0.02) 1 1 3 1
        M 0 1 2 3 1
        """
    ),
}


class TestMeasurementScatter:
    """``sample(strategy="scatter")`` builds no ``B``; for every seed it
    must give the bits of Eq. 4 (sparse and dense) and of the
    ``draw_symbols`` replay."""

    @pytest.fixture(scope="class", params=sorted(RECORD_CIRCUITS))
    def sampler(self, request):
        return compile_sampler(RECORD_CIRCUITS[request.param]())

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 700, 70000])
    def test_all_strategies_and_replay_agree(self, sampler, shots):
        for seed in range(2):
            scatter = sampler.sample(shots, seed, strategy="scatter")
            assert scatter.shape == (shots, sampler.n_measurements)
            assert scatter.dtype == np.uint8
            for strategy in ("sparse", "dense", "auto"):
                assert np.array_equal(
                    sampler.sample(shots, seed, strategy=strategy), scatter
                ), strategy
            replay = sampler.sample(
                shots, symbol_values=sampler.draw_symbols(shots, seed)
            )
            assert np.array_equal(replay, scatter)

    def test_circuits_cover_their_cases(self):
        def plan(name):
            return compile_sampler(RECORD_CIRCUITS[name]())._record_plan

        assert not plan("noiseless").noise_indptr[-1]
        assert plan("noiseless").coin_indices.size
        assert not plan("no_random_measurements").coin_indices.size
        assert plan("constant_ones").constants[[0, 1, 2]].all()
        assert np.diff(plan("fan_out").noise_indptr).max() == 70
        assert plan("no_measurements").constants.size == 0

    def test_constant_ones(self):
        records = compile_sampler(RECORD_CIRCUITS["constant_ones"]()).sample(
            500, 1, strategy="scatter"
        )
        assert records[:, [0, 2]].all()
        assert 0.2 < 1 - records[:, 1].mean() < 0.4

    def test_fan_out_flips_every_copy(self):
        records = compile_sampler(_fan_out_circuit()).sample(
            300, 2, strategy="scatter"
        )
        assert (records == records[:, :1]).all()
        assert 0.1 < records[:, 0].mean() < 0.3

    def test_symbol_values_never_scatter(self):
        sampler = compile_sampler(RECORD_CIRCUITS["fig3c_family"]())
        with pytest.raises(ValueError, match="symbol_values"):
            sampler.sample(
                5, strategy="scatter", symbol_values=sampler.draw_symbols(5, 0)
            )

    def test_zero_shots_rejected(self):
        sampler = compile_sampler(RECORD_CIRCUITS["channels"]())
        with pytest.raises(ValueError):
            sampler.sample(0, strategy="scatter")

    def test_auto_at_qec_noise_builds_no_b(self, monkeypatch):
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.002,
            before_measure_flip_probability=0.002,
        ))
        expected = sampler.sample(512, 7, strategy="sparse")

        def refuse(*args, **kwargs):
            raise AssertionError("auto built the dense B")

        monkeypatch.setattr(SymbolTable, "sample_symbol_major", refuse)
        for shots in (512, 5000):
            assert sampler.record_strategy(shots) == "scatter"
        assert np.array_equal(sampler.sample(512, 7), expected)
        sampler.sample(5000, 7)

    def test_auto_keeps_eq4_at_high_noise(self):
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.05,
            before_measure_flip_probability=0.05,
        ))
        matrix = sampler.measurement_matrix
        for shots in (512, 5000):
            assert sampler.scatter_cost_ratio(shots, matrix) > 1.0
            assert sampler.record_strategy(shots) == sampler.choose_strategy()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    shots=st.sampled_from([1, 7, 64, 200]),
)
def test_fuzz_record_scatter_equals_eq4(seed, shots):
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(
        rng, int(rng.integers(1, 6)), depth=20,
        p_noise=0.35, p_measure=0.15, p_reset=0.05,
        noise_strength=float(rng.choice([0.01, 0.1, 0.4])),
    )
    sampler = compile_sampler(circuit)
    scatter = sampler.sample(shots, seed, strategy="scatter")
    assert np.array_equal(scatter, sampler.sample(shots, seed, strategy="sparse"))
    assert np.array_equal(scatter, sampler.sample(shots, seed, strategy="dense"))
    assert np.array_equal(scatter, sampler.sample(shots, seed))
