"""Algorithm 1 against an exact oracle, with no sampling error.

The paper's claim is that one symbolic pass captures the whole record
distribution: every outcome is the constant bit XOR a GF(2) form in
independent symbols.  Folding each symbol's joint pattern distribution
through the measurement matrix therefore gives the exact probability of
every record (:func:`tests.helpers.symbolic_record_distribution`).  The
oracle (:func:`tests.helpers.exact_record_distribution`) evolves density
matrices with the dense unitaries instead, branching on each outcome.
The two must agree to rounding on every record, so a wrong sign, a lost
correlation or a mis-weighted fault shows up even where a sampled
comparison would need many shots to see it.
"""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.core import SymPhaseSimulator
from tests.helpers import (
    assert_distributions_equal,
    exact_record_distribution,
    random_clifford_circuit,
    symbolic_record_distribution,
)

_MAX_MEASUREMENTS = 9


def _circuit(seed: int, depth: int, **probabilities) -> Circuit:
    """A random circuit on 1-4 qubits with at most ``_MAX_MEASUREMENTS``
    outcomes (redrawn from the same generator until it fits)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    while True:
        circuit = random_clifford_circuit(rng, n, depth=depth, **probabilities)
        if circuit.num_measurements <= _MAX_MEASUREMENTS:
            return circuit


def _assert_exact(circuit: Circuit) -> None:
    symbolic = symbolic_record_distribution(SymPhaseSimulator.from_circuit(circuit))
    assert_distributions_equal(symbolic, exact_record_distribution(circuit))


class TestHandPicked:
    def test_bell_pair(self):
        circuit = Circuit.from_text("H 0\nCX 0 1\nM 0 1")
        assert exact_record_distribution(circuit) == pytest.approx({0: 0.5, 3: 0.5})
        _assert_exact(circuit)

    def test_depolarized_bell_pair(self):
        circuit = Circuit.from_text("H 0\nCX 0 1\nDEPOLARIZE1(0.3) 0 1\nM 0 1")
        # Each qubit flips with probability 2p/3 = 0.2, independently, so
        # the outcomes disagree with probability 2 * 0.2 * 0.8.
        flip = 0.2 * 0.8
        assert exact_record_distribution(circuit) == pytest.approx(
            {0: 0.5 - flip, 3: 0.5 - flip, 1: flip, 2: flip}
        )
        _assert_exact(circuit)

    def test_y_basis_measurement_of_s_h(self):
        circuit = Circuit.from_text("H 0\nS 0\nMY 0\nS_DAG 0\nMX 0")
        assert exact_record_distribution(circuit) == pytest.approx({0: 1.0})
        _assert_exact(circuit)

    def test_reset_then_feedback(self):
        circuit = Circuit.from_text(
            "H 0\nM 0\nCX rec[-1] 1\nRX 0\nMX 0\nM 1\nDEPOLARIZE2(0.15) 0 1\nM 0 1"
        )
        _assert_exact(circuit)

    def test_oracle_rejects_channels_it_cannot_expand(self):
        circuit = Circuit.from_text("E(0.1) X0 Z1\nM 0 1")
        with pytest.raises(ValueError, match="no exact mixture"):
            exact_record_distribution(circuit)


@pytest.mark.parametrize("seed", range(250))
def test_noiseless_circuits(seed):
    circuit = _circuit(
        10_000 + seed, depth=20, p_two_qubit=0.3, p_measure=0.15, p_reset=0.08
    )
    _assert_exact(circuit)


@pytest.mark.parametrize("seed", range(250))
def test_noisy_circuits(seed):
    circuit = _circuit(
        20_000 + seed, depth=16, p_noise=0.25, p_measure=0.12, p_reset=0.08,
        noise_strength=0.2,
    )
    _assert_exact(circuit)


@pytest.mark.parametrize("seed", range(120))
def test_noisy_feedback_circuits(seed):
    circuit = _circuit(
        30_000 + seed, depth=18, p_noise=0.2, p_measure=0.15, p_reset=0.05,
        p_feedback=0.15, noise_strength=0.25,
    )
    _assert_exact(circuit)
