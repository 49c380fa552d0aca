"""Brute-force statevector simulation of noisy stabilizer circuits.

Exponential in qubit count — strictly a test oracle.  Noise channels are
sampled concretely per run (Monte Carlo over Pauli faults), so comparing
*distributions* of measurement records against the fast samplers
validates the whole pipeline end to end.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import Instruction
from repro.gates.database import get_gate
from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q
from repro.noise.channels import noise_channel, sample_patterns_batch
from repro.rng import as_generator

_MAX_QUBITS = 12

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_BASIS_CONJUGATION = {"X": "H", "Y": "H_YZ"}


class StatevectorSimulator:
    """One-shot dense simulation; qubit 0 is the most significant bit."""

    def __init__(
        self, n_qubits: int, rng: int | np.random.Generator | None = None
    ):
        if n_qubits > _MAX_QUBITS:
            raise ValueError(
                f"statevector oracle is capped at {_MAX_QUBITS} qubits"
            )
        self.n = max(n_qubits, 1)
        self.rng = as_generator(rng)
        self.state = np.zeros(2**self.n, dtype=complex)
        self.state[0] = 1.0
        self.record: list[int] = []

    # -- gate application ---------------------------------------------------

    def _apply_1q(self, unitary: np.ndarray, qubit: int) -> None:
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, qubit, 0)
        psi = np.tensordot(unitary, psi, axes=([1], [0]))
        self.state = np.moveaxis(psi, 0, qubit).reshape(-1)

    def _apply_2q(self, unitary: np.ndarray, a: int, b: int) -> None:
        psi = self.state.reshape([2] * self.n)
        psi = np.moveaxis(psi, (a, b), (0, 1))
        psi = np.tensordot(
            unitary.reshape(2, 2, 2, 2), psi, axes=([2, 3], [0, 1])
        )
        self.state = np.moveaxis(psi, (0, 1), (a, b)).reshape(-1)

    def apply_gate(self, name: str, targets: tuple[int, ...]) -> None:
        canonical = get_gate(name).name
        if canonical in UNITARIES_1Q:
            for qubit in targets:
                self._apply_1q(UNITARIES_1Q[canonical], qubit)
        elif canonical in UNITARIES_2Q:
            for a, b in zip(targets[0::2], targets[1::2]):
                self._apply_2q(UNITARIES_2Q[canonical], a, b)
        else:
            raise ValueError(f"{name} is not a unitary gate")

    # -- measurement / reset --------------------------------------------------

    def _measure_z(self, qubit: int) -> int:
        psi = np.moveaxis(self.state.reshape([2] * self.n), qubit, 0)
        p0 = float(np.linalg.norm(psi[0]) ** 2)
        outcome = 0 if self.rng.random() < p0 else 1
        keep = psi[outcome]
        norm = np.linalg.norm(keep)
        collapsed = np.zeros_like(psi)
        collapsed[outcome] = keep / norm
        self.state = np.moveaxis(collapsed, 0, qubit).reshape(-1)
        return outcome

    def _measure(self, qubit: int, basis: str) -> int:
        conj = _BASIS_CONJUGATION.get(basis)
        if conj:
            self.apply_gate(conj, (qubit,))
        outcome = self._measure_z(qubit)
        if conj:
            self.apply_gate(conj, (qubit,))
        return outcome

    def _flip_after_measure(self, qubit: int, basis: str) -> None:
        flip = {"Z": "X", "X": "Z", "Y": "X"}[basis]
        self.apply_gate(flip, (qubit,))

    # -- full runs ---------------------------------------------------------------

    def do_instruction(self, instruction: Instruction) -> None:
        from repro.circuit.instructions import RecTarget

        gate = instruction.gate
        if gate.is_unitary:
            if any(isinstance(t, RecTarget) for t in instruction.targets):
                letter = {"CX": "X", "CY": "Y", "CZ": "Z"}[gate.name]
                targets = instruction.targets
                for control, qubit in zip(targets[0::2], targets[1::2]):
                    if isinstance(control, RecTarget):
                        if self.record[len(self.record) + control.offset]:
                            self._apply_1q(_PAULI[letter], qubit)
                    else:
                        self.apply_gate(gate.name, (control, qubit))
            else:
                self.apply_gate(gate.name, instruction.targets)
        elif gate.kind == "measure":
            for qubit in instruction.targets:
                self.record.append(self._measure(qubit, gate.basis))
        elif gate.kind == "reset":
            for qubit in instruction.targets:
                if self._measure(qubit, gate.basis):
                    self._flip_after_measure(qubit, gate.basis)
        elif gate.kind == "measure_reset":
            for qubit in instruction.targets:
                outcome = self._measure(qubit, gate.basis)
                self.record.append(outcome)
                if outcome:
                    self._flip_after_measure(qubit, gate.basis)
        elif gate.kind == "noise":
            channel = noise_channel(instruction)
            patterns = sample_patterns_batch(
                channel.probabilities, (channel.n_sites,), self.rng
            )
            for site, pattern in enumerate(patterns.tolist()):
                for j, action in enumerate(channel.actions(site)):
                    if (pattern >> j) & 1:
                        for letter, qubit in action:
                            self._apply_1q(_PAULI[letter], qubit)
        elif gate.kind == "annotation":
            pass
        else:
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")

    def run(self, circuit: Circuit) -> np.ndarray:
        for instruction in circuit.flattened():
            self.do_instruction(instruction)
        return np.array(self.record, dtype=np.uint8)


def sample_records(
    circuit: Circuit, shots: int, rng: int | np.random.Generator | None = None
) -> np.ndarray:
    """Monte-Carlo sample measurement records with the dense oracle."""
    rng = as_generator(rng)
    n = max(circuit.n_qubits, 1)
    out = np.zeros((shots, circuit.num_measurements), dtype=np.uint8)
    for shot in range(shots):
        sim = StatevectorSimulator(n, rng)
        out[shot] = sim.run(circuit)
    return out
