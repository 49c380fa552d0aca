"""Cross-backend equivalence: every sampler draws the same physics.

Three tiers of agreement:

* **bitwise** — ``frame`` and ``frame-interp`` share an RNG stream
  (``BackendInfo.rng_stream``), so identical seeds must give identical
  samples, detectors, and engine collection counts;
* **distributional** — ``frame`` vs ``symbolic`` detector/observable
  distributions on random Clifford+noise circuits, checked with a
  two-sample chi-square homogeneity test;
* **oracle** — both fast backends against the brute-force statevector
  simulator, and the tableau backend against ``symbolic``.
"""

import numpy as np
import pytest

from repro.backends import compile_backend
from repro.circuit import Circuit
from repro.engine import Task, collect
from repro.frame import FrameSimulator
from repro.qec import repetition_code_memory
from repro.reference.statevector import sample_records
from tests.helpers import (
    append_random_annotations,
    chi_square_two_sample,
    counts_by_record,
    random_clifford_circuit,
)


def random_annotated_circuit(seed: int, n_qubits=(2, 4)) -> Circuit:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(*n_qubits))
    circuit = random_clifford_circuit(
        rng, n, depth=14,
        p_noise=0.25, p_measure=0.1, p_reset=0.08,
        final_measure=True,
    )
    while circuit.num_measurements > 7:
        circuit = random_clifford_circuit(
            rng, n, depth=14,
            p_noise=0.25, p_measure=0.05, p_reset=0.05,
            final_measure=True,
        )
    return append_random_annotations(circuit, rng)


def detector_counts(sampler, shots, seed) -> dict[int, int]:
    detectors, observables = sampler.sample_detectors(
        shots, np.random.default_rng(seed)
    )
    return counts_by_record(np.concatenate([detectors, observables], axis=1))


#: Multi-qubit CORRELATED_ERROR sites, a repeated qubit within one
#: instruction (an unsafe scatter), a biased Pauli channel and every
#: channel family, at low noise strengths (p <= 0.03).  Every
#: detector is deterministic without noise (two Bell pairs read out in
#: the Z and X bases, two |0> qubits), so each one sees the noise.
LOW_NOISE_MIXED = """
H 0 4
CX 0 1 4 5
DEPOLARIZE2(0.03) 0 1 4 5
CORRELATED_ERROR(0.03) X1 Z4 Y2
DEPOLARIZE1(0.03) 0 0 1 2 3 5
X_ERROR(0.03) 2
PAULI_CHANNEL_1(0.005, 0.01, 0.02) 3 5
CORRELATED_ERROR(0.02) Z5 X0 X3
CX 2 3
M 0 1 2 3
MX 4 5
DETECTOR rec[-5] rec[-6]
DETECTOR rec[-4]
DETECTOR rec[-3]
DETECTOR rec[-1] rec[-2]
OBSERVABLE_INCLUDE(0) rec[-3] rec[-4]
"""


class TestBitwiseFrameModes:
    @pytest.mark.parametrize("noise_strength", [0.3, 0.01])
    @pytest.mark.parametrize("seed", range(10))
    def test_samples_identical(self, seed, noise_strength):
        rng = np.random.default_rng(3000 + seed)
        circuit = random_clifford_circuit(
            rng, int(rng.integers(2, 6)), depth=25,
            p_noise=0.2, p_measure=0.15, p_reset=0.1, p_feedback=0.1,
            noise_strength=noise_strength, final_measure=True,
        )
        compiled = compile_backend(circuit, "frame")
        interpreted = compile_backend(circuit, "frame-interp")
        a = compiled.sample(193, np.random.default_rng(seed))
        b = interpreted.sample(193, np.random.default_rng(seed))
        assert np.array_equal(a, b)

    def test_detectors_identical(self):
        circuit = repetition_code_memory(
            5, rounds=3, data_flip_probability=0.02,
            measure_flip_probability=0.02,
        )
        a = compile_backend(circuit, "frame").sample_detectors(
            1000, np.random.default_rng(9)
        )
        b = compile_backend(circuit, "frame-interp").sample_detectors(
            1000, np.random.default_rng(9)
        )
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("shots", [1, 63, 64, 65, 2000])
    def test_correlated_error_low_noise_identical(self, shots):
        circuit = Circuit.from_text(LOW_NOISE_MIXED)
        for seed in range(3):
            a = compile_backend(circuit, "frame").sample_detectors(
                shots, np.random.default_rng(seed)
            )
            b = compile_backend(circuit, "frame-interp").sample_detectors(
                shots, np.random.default_rng(seed)
            )
            assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_mode_survives_odd_batch_sizes(self):
        circuit = Circuit().h(0).cx(0, 1).depolarize1(0.1, 0, 1).m(0, 1)
        for shots in (1, 63, 64, 65, 129):
            a = FrameSimulator(circuit, mode="compiled").sample(
                shots, np.random.default_rng(shots)
            )
            b = FrameSimulator(circuit, mode="interpreted").sample(
                shots, np.random.default_rng(shots)
            )
            assert np.array_equal(a, b), shots


class TestEngineBitwiseAcrossBackends:
    def test_collection_counts_identical_for_shared_stream(self):
        """Backends advertising the same rng_stream must yield identical
        engine collection results for the same seed."""
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.08,
            measure_flip_probability=0.08,
        )
        results = {}
        for backend in ("frame", "frame-interp"):
            stats = collect(
                [Task(circuit, decoder="none", sampler=backend,
                      max_shots=2000)],
                base_seed=11, chunk_shots=500,
            )[0]
            results[backend] = (stats.shots, stats.errors)
        assert results["frame"] == results["frame-interp"]


class TestDistributionalAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_frame_vs_symbolic_detector_distribution(self, seed):
        circuit = random_annotated_circuit(4000 + seed)
        frame = compile_backend(circuit, "frame")
        symbolic = compile_backend(circuit, "symbolic")
        counts_frame = detector_counts(frame, 20_000, 100 + seed)
        counts_symbolic = detector_counts(symbolic, 20_000, 200 + seed)
        statistic, threshold = chi_square_two_sample(
            counts_frame, counts_symbolic
        )
        assert statistic < threshold, (
            f"frame vs symbolic detector distributions diverged: "
            f"chi2={statistic:.1f} >= {threshold:.1f}"
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_fast_backends_vs_statevector_records(self, seed):
        rng = np.random.default_rng(5000 + seed)
        circuit = random_clifford_circuit(
            rng, int(rng.integers(2, 4)), depth=12,
            p_noise=0.3, p_measure=0.08, p_reset=0.05,
            final_measure=True,
        )
        while circuit.num_measurements > 6:
            circuit = random_clifford_circuit(
                rng, 2, depth=12,
                p_noise=0.3, p_measure=0.04, p_reset=0.04,
                final_measure=True,
            )
        oracle = counts_by_record(
            sample_records(circuit, 3000, np.random.default_rng(seed))
        )
        for backend in ("frame", "symbolic"):
            fast = counts_by_record(
                compile_backend(circuit, backend).sample(
                    20_000, np.random.default_rng(300 + seed)
                )
            )
            statistic, threshold = chi_square_two_sample(fast, oracle)
            assert statistic < threshold, (
                f"{backend} vs statevector diverged: "
                f"chi2={statistic:.1f} >= {threshold:.1f}"
            )

    def test_tableau_vs_symbolic_detector_distribution(self):
        circuit = (
            Circuit()
            .h(0)
            .cx(0, 1)
            .depolarize1(0.15, 0, 1)
            .m(0, 1)
            .detector(-1, -2)
            .observable_include(0, -1)
        )
        tableau = detector_counts(
            compile_backend(circuit, "tableau"), 2500, 17
        )
        symbolic = detector_counts(
            compile_backend(circuit, "symbolic"), 25_000, 18
        )
        statistic, threshold = chi_square_two_sample(tableau, symbolic)
        assert statistic < threshold

    def test_low_noise_vs_tableau_oracle(self):
        """The sparse-hit draw against the per-shot oracle, which keeps
        drawing one pattern per site and shot."""
        circuit = Circuit.from_text(LOW_NOISE_MIXED)
        oracle = detector_counts(compile_backend(circuit, "tableau"), 4000, 21)
        for backend in ("frame", "symbolic"):
            fast = detector_counts(
                compile_backend(circuit, backend), 40_000, 22
            )
            statistic, threshold = chi_square_two_sample(fast, oracle)
            assert statistic < threshold, (
                f"{backend} vs tableau diverged: "
                f"chi2={statistic:.1f} >= {threshold:.1f}"
            )
