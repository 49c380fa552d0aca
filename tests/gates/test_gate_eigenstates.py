"""Every gate, every Pauli, through every simulator.

For a Clifford ``U`` and a Pauli ``P``, the state ``U|ψ⟩`` with
``P|ψ⟩ = |ψ⟩`` is a ``+1`` eigenstate of ``U P U† = s Q``.  Measuring the
factors of ``Q`` one qubit at a time (``M``/``MX``/``MY``) therefore gives
a record whose parity is exactly ``s = -1``.  Each test prepares the
eigenstate of one Pauli (qubit by qubit), applies one gate, measures the
image, and checks that parity on the symbolic, compiled frame and tableau
samplers and on the exact density-matrix oracle.  ``U P U†`` comes from
the dense unitary, so a wrong conjugation table, ANF kernel or phase
update in any simulator shows up on the (gate, Pauli) case it breaks.
"""

import itertools

import numpy as np
import pytest

from repro.backends import compile_backend
from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.frame import FrameSimulator
from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q
from tests.helpers import exact_record_distribution

_DENSE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Gates taking |0> to the +1 eigenstate of each letter.
_PREPARE = {"I": (), "X": ("H",), "Y": ("H", "S"), "Z": ()}
_MEASURE = {"X": "MX", "Y": "MY", "Z": "M"}

_CASES_1Q = [(name, p) for name in sorted(UNITARIES_1Q) for p in "XYZ"]
_CASES_2Q = [
    (name, a + b)
    for name in sorted(UNITARIES_2Q)
    for a, b in itertools.product("IXYZ", repeat=2)
    if a + b != "II"
]


def _dense(letters: str) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for letter in letters:
        out = np.kron(out, _DENSE[letter])
    return out


def _image(unitary: np.ndarray, letters: str) -> tuple[int, str]:
    """``(sign bit, letters)`` of ``U P U†`` as ``±Q``."""
    conjugated = unitary @ _dense(letters) @ unitary.conj().T
    size = conjugated.shape[0]
    for candidate in itertools.product("IXYZ", repeat=len(letters)):
        overlap = np.trace(_dense("".join(candidate)).conj().T @ conjugated) / size
        if abs(abs(overlap) - 1) < 1e-9:
            assert abs(overlap.imag) < 1e-9, "Clifford image must be Hermitian"
            return int(overlap.real < 0), "".join(candidate)
    raise AssertionError(f"{letters} does not map to a Pauli")


def _circuit(gate: str, letters: str, image: str) -> Circuit:
    circuit = Circuit()
    for qubit, letter in enumerate(letters):
        for prep in _PREPARE[letter]:
            circuit.append(prep, [qubit])
    circuit.append(gate, list(range(len(letters))))
    for qubit, letter in enumerate(image):
        if letter != "I":
            circuit.append(_MEASURE[letter], [qubit])
    return circuit


def _check(gate: str, letters: str, unitary: np.ndarray) -> None:
    sign, image = _image(unitary, letters)
    circuit = _circuit(gate, letters, image)
    samplers = {
        "symbolic": compile_sampler(circuit).sample(32, np.random.default_rng(1)),
        "frame": FrameSimulator(circuit).sample(32, np.random.default_rng(2)),
        "tableau": compile_backend(circuit, "tableau").sample(
            8, np.random.default_rng(3)
        ),
    }
    for backend, records in samplers.items():
        parities = records.sum(axis=1) % 2
        assert np.all(parities == sign), (
            f"{backend}: {gate} maps {letters} to {'-' if sign else '+'}{image}, "
            f"but measured parities {parities}"
        )
    for key, probability in exact_record_distribution(circuit).items():
        if probability > 1e-12:
            assert bin(key).count("1") % 2 == sign, (gate, letters, key)


@pytest.mark.parametrize("gate, letters", _CASES_1Q)
def test_single_qubit_gate(gate, letters):
    _check(gate, letters, UNITARIES_1Q[gate])


@pytest.mark.parametrize("gate, letters", _CASES_2Q)
def test_two_qubit_gate(gate, letters):
    _check(gate, letters, UNITARIES_2Q[gate])
