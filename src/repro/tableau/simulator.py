"""Single-shot circuit execution on the A-G tableau.

This is the classic Monte-Carlo way to sample a noisy stabilizer circuit
(one full circuit traversal per shot).  It doubles as:

* the correctness oracle for the fast samplers (shot-for-shot agreement
  when driven by the same fault patterns), and
* the producer of the *reference sample* the Pauli-frame simulator needs
  (noiseless execution with random outcomes pinned to 0) when no caller
  hands it Algorithm 1's constant column, which holds the same bits.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import Instruction, RecTarget
from repro.circuit.transforms import record_index
from repro.gates.database import BASIS_CONJUGATION, FEEDBACK_LETTER
from repro.noise.channels import noise_channel, sample_patterns_batch
from repro.rng import as_generator
from repro.tableau.tableau import Tableau



class TableauSimulator:
    """Stateful single-shot simulator over a Tableau."""

    def __init__(
        self, n_qubits: int, rng: int | np.random.Generator | None = None
    ):
        self.tableau = Tableau(n_qubits)
        self.rng = as_generator(rng)
        self.record: list[int] = []

    # -- instruction dispatch ---------------------------------------------

    def do_instruction(
        self,
        instruction: Instruction,
        force_random_outcomes: int | None = None,
        disable_noise: bool = False,
    ) -> None:
        gate = instruction.gate
        if gate.is_unitary:
            self._apply_unitary(instruction)
        elif gate.kind == "measure":
            for qubit in instruction.targets:
                self.record.append(
                    self._measure(qubit, gate.basis, force_random_outcomes)
                )
        elif gate.kind == "reset":
            for qubit in instruction.targets:
                self._reset(qubit, gate.basis, force_random_outcomes)
        elif gate.kind == "measure_reset":
            for qubit in instruction.targets:
                outcome = self._measure(qubit, gate.basis, force_random_outcomes)
                self.record.append(outcome)
                if outcome:
                    self._flip_after_measure(qubit, gate.basis)
        elif gate.kind == "noise":
            if not disable_noise:
                self._apply_noise(instruction)
        elif gate.kind == "annotation":
            pass
        else:
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")

    def run(
        self,
        circuit: Circuit,
        force_random_outcomes: int | None = None,
        disable_noise: bool = False,
    ) -> np.ndarray:
        """Execute a circuit; returns the measurement record as uint8."""
        for instruction in circuit.flattened():
            self.do_instruction(instruction, force_random_outcomes, disable_noise)
        return np.array(self.record, dtype=np.uint8)

    def _apply_unitary(self, instruction: Instruction) -> None:
        gate = instruction.gate
        targets = instruction.targets
        if not any(isinstance(t, RecTarget) for t in targets):
            self.tableau.apply_gate(gate.name, targets)
            return
        # Classically-controlled Pauli: apply when the recorded bit is 1.
        letter = FEEDBACK_LETTER[gate.name]
        for control, qubit in zip(targets[0::2], targets[1::2]):
            if isinstance(control, RecTarget):
                if self.record[record_index(len(self.record), control)]:
                    self.tableau.apply_gate(letter, (qubit,))
            else:
                self.tableau.apply_gate(gate.name, (control, qubit))

    # -- measurement / reset -------------------------------------------------

    def _measure(
        self, qubit: int, basis: str, forced: int | None
    ) -> int:
        conj = BASIS_CONJUGATION.get(basis)
        if conj:
            self.tableau.apply_gate(conj, (qubit,))
        outcome, _ = self.tableau.measure(qubit, self.rng, forced)
        if conj:
            self.tableau.apply_gate(conj, (qubit,))
        return outcome

    def _flip_after_measure(self, qubit: int, basis: str) -> None:
        """Return the post-measurement +1 eigenstate (used by MR/R)."""
        flip_gate = {"Z": "X", "X": "Z", "Y": "X"}[basis]
        self.tableau.apply_gate(flip_gate, (qubit,))

    def _reset(self, qubit: int, basis: str, forced: int | None) -> None:
        outcome = self._measure(qubit, basis, forced)
        if outcome:
            self._flip_after_measure(qubit, basis)

    # -- noise -------------------------------------------------------------------

    def _apply_noise(self, instruction: Instruction) -> None:
        channel = noise_channel(instruction)
        # One uniform per site, in site order, as per-site draws took.
        patterns = sample_patterns_batch(
            channel.probabilities, (channel.n_sites,), self.rng
        )
        for site, pattern in enumerate(patterns.tolist()):
            self.apply_fault_pattern(channel.actions(site), pattern)

    def apply_fault_pattern(self, actions, pattern: int) -> None:
        """Apply the Paulis a joint bit pattern selects: ``actions[j]``
        (a site's ``NoiseChannel.actions``) when bit ``j`` is set."""
        for j, action in enumerate(actions):
            if pattern >> j & 1:
                for letter, qubit in action:
                    self.tableau.apply_gate(letter, (qubit,))


def reference_sample(circuit: Circuit) -> np.ndarray:
    """A valid noiseless sample with all random outcomes pinned to 0.

    The baseline record a Pauli-frame simulator XORs its frame flips
    into, computed by a concrete traversal; it equals the constant
    column of Algorithm 1's measurement matrix
    (:meth:`~repro.core.compiled_sampler.CompiledSampler.reference`),
    which the engine's cache hands the frame samplers instead.
    """
    sim = TableauSimulator(max(circuit.n_qubits, 1))
    return sim.run(circuit, force_random_outcomes=0, disable_noise=True)
