"""Algorithm 1: the tableau simulator with symbolic phases.

One forward traversal of the circuit executes the three initialization
rules of §3.2.2:

* **Init-C** — Clifford gates update the X/Z bit blocks exactly as in
  Aaronson–Gottesman, evaluated as the gate's ANF kernel
  (:mod:`repro.gates.anf`) on the gathered columns of every target at
  once; the XOR of the per-target sign flips lands in the constant
  column of the phase matrix.
* **Init-P** — a noise instruction allocates one record of fresh
  bit-symbols for all of its sites and XORs one column block into the
  phase matrix: each symbol's column marks the rows its Pauli
  anticommutes with.
* **Init-M** — measurements run A-G's control flow (which never inspects
  phases — Fact 2); random outcomes mint a fresh fair-coin symbol ``s``
  and apply ``X^s``, determinate outcomes are read off as the XOR of
  stabilizer-row phase vectors.

Resets use the paper's §6 extension: a conditional Pauli whose exponent
is the *symbolic* measurement expression.

Only the n stabilizer rows carry symbolic phases.  In A-G the
destabilizer signs are write-only: every rowsum takes its source from a
stabilizer row, a determinate outcome is a product of stabilizer rows,
and the collapse copies a stabilizer row into a destabilizer row, never
back.  So no destabilizer phase can reach an outcome, and the pass skips
them (the X/Z bits of all 2n rows still drive the control flow).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import Instruction, RecTarget, disjoint_runs
from repro.circuit.transforms import RecordAnnotations, record_index
from repro.core.phase_matrix import PhaseMatrix
from repro.core.symbols import SymbolTable
from repro.gates.anf import gate_kernel
from repro.gates.database import BASIS_CONJUGATION, FEEDBACK_LETTER, get_gate
from repro.gf2 import bitops
from repro.noise.channels import noise_channel
from repro.tableau.tableau import g_exponents


class SymPhaseSimulator:
    """Builds symbolic measurement expressions in one circuit traversal."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        n = n_qubits
        self.n = n
        self.xs = np.zeros((2 * n, n), dtype=np.uint8)
        self.zs = np.zeros((2 * n, n), dtype=np.uint8)
        idx = np.arange(n)
        self.xs[idx, idx] = 1
        self.zs[n + idx, idx] = 1
        self.phases = PhaseMatrix(n, first_row=n)  # stabilizer rows only
        self.symbols = SymbolTable()
        self.measurements: list[np.ndarray] = []  # packed bit-vectors
        self.annotations = RecordAnnotations()

    # -- public API ------------------------------------------------------

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "SymPhaseSimulator":
        """Run the Initialization procedure of Algorithm 1 on a circuit."""
        sim = cls(max(circuit.n_qubits, 1))
        sim.run(circuit)
        return sim

    def run(self, circuit: Circuit) -> None:
        for instruction in circuit.flattened():
            self.do_instruction(instruction)

    @property
    def detectors(self) -> list[np.ndarray]:
        """Absolute measurement indices of every DETECTOR, in order."""
        return self.annotations.detectors

    @property
    def observables(self) -> list[list[int]]:
        """Absolute measurement indices of every observable, ordered by
        OBSERVABLE_INCLUDE index."""
        return self.annotations.observables

    @property
    def num_measurements(self) -> int:
        return len(self.measurements)

    def measurement_support(self, index: int) -> np.ndarray:
        """Symbol indices appearing in measurement ``index``'s expression."""
        vec = self.measurements[index]
        bits = bitops.unpack_bits(vec, min(self.symbols.width, vec.size * 64))
        return np.nonzero(bits)[0]

    def measurement_expression(self, index: int) -> str:
        """Human-readable symbolic expression, e.g. ``"X3 ^ m5(q0)"``."""
        return self.symbols.expression(self.measurements[index])

    def expression(self, index: int):
        """Measurement ``index`` as a :class:`SymbolicExpression` object."""
        from repro.core.expression import SymbolicExpression

        return SymbolicExpression(self.measurements[index].copy(), self.symbols)

    def detector_expression(self, index: int):
        """Detector ``index`` as a :class:`SymbolicExpression` object."""
        from repro.core.expression import SymbolicExpression

        out = SymbolicExpression.zero(self.symbols)
        for measurement in self.detectors[index]:
            out = out ^ self.expression(int(measurement))
        return out

    # -- instruction dispatch ------------------------------------------------

    def do_instruction(self, instruction: Instruction) -> None:
        gate = instruction.gate
        if gate.is_unitary:
            if gate.name in FEEDBACK_LETTER and any(
                isinstance(t, RecTarget) for t in instruction.targets[0::2]
            ):
                self._apply_feedback(instruction)
            else:
                self._apply_gate(gate.name, instruction.targets)
        elif gate.kind == "measure":
            for qubit in instruction.targets:
                self.measurements.append(self._measure(qubit, gate.basis))
        elif gate.kind == "reset":
            for qubit in instruction.targets:
                self._reset(qubit, gate.basis, record=False)
        elif gate.kind == "measure_reset":
            for qubit in instruction.targets:
                self._reset(qubit, gate.basis, record=True)
        elif gate.kind == "noise":
            self._apply_noise(instruction)
        elif gate.kind == "annotation":
            # TICK / QUBIT_COORDS / SHIFT_COORDS resolve to nothing.
            self.annotations.add(instruction, len(self.measurements))
        else:
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")

    # -- Init-C: Clifford gates --------------------------------------------

    def _apply_gate(self, name: str, targets: tuple[int, ...]) -> None:
        kernel = gate_kernel(get_gate(name).name)
        arity = kernel.n_qubits
        for run in disjoint_runs(targets, arity):
            sites = np.asarray(run, dtype=np.int64).reshape(-1, arity)
            columns = [sites[:, slot] for slot in range(arity)]
            inputs = []
            for qubits in columns:
                inputs += [self.xs[:, qubits], self.zs[:, qubits]]
            *outputs, flip = kernel.evaluate(inputs)
            for slot, qubits in enumerate(columns):
                self.xs[:, qubits] = outputs[2 * slot]
                self.zs[:, qubits] = outputs[2 * slot + 1]
            flipped = np.nonzero(np.bitwise_xor.reduce(flip[self.n:], axis=1))[0]
            if flipped.size:
                self.phases.xor_constant(flipped + self.n)

    def _apply_feedback(self, instruction: Instruction) -> None:
        """Classically-controlled Pauli: ``P^m`` with a *symbolic* exponent.

        This is exactly the paper's §6 extension — the recorded outcome is
        a bit-vector expression, and the conditional Pauli XORs that whole
        vector into every anticommuting row's phase.
        """
        letter = FEEDBACK_LETTER[instruction.name]
        targets = instruction.targets
        for control, qubit in zip(targets[0::2], targets[1::2]):
            if isinstance(control, RecTarget):
                vector = self.measurements[
                    record_index(len(self.measurements), control)
                ]
                rows = self._anticommuting_stabilizers(letter, qubit)
                if rows.size:
                    self.phases.xor_vector(rows, vector)
            else:
                self._apply_gate(instruction.name, (control, qubit))

    # -- Init-P: symbolic Pauli faults ----------------------------------------

    def _anticommuting_mask(self, letter: str, qubits) -> np.ndarray:
        """0/1 mask of the stabilizer rows anticommuting with ``letter``
        on ``qubits`` (one column per qubit when ``qubits`` is an array)."""
        stabilizers = slice(self.n, None)
        if letter == "X":
            return self.zs[stabilizers, qubits]
        if letter == "Z":
            return self.xs[stabilizers, qubits]
        if letter == "Y":
            return self.xs[stabilizers, qubits] ^ self.zs[stabilizers, qubits]
        raise ValueError(f"invalid Pauli letter {letter!r}")

    def _anticommuting_stabilizers(self, letter: str, qubit: int) -> np.ndarray:
        """Tableau indices of the stabilizer rows ``letter_qubit`` flips."""
        return np.nonzero(self._anticommuting_mask(letter, qubit))[0] + self.n

    def _apply_noise(self, instruction: Instruction) -> None:
        """Apply ``P^s`` for every symbol of every site in one block XOR.

        Noise leaves the X/Z bits alone, so every site reads the same
        tableau and repeated targets need no ordering."""
        channel = noise_channel(instruction)
        if not channel.n_sites:
            return
        first = self.symbols.allocate_noise(channel)
        block = np.zeros(
            (self.n, channel.n_sites, len(channel.columns)), dtype=np.uint8
        )
        for j, column in enumerate(channel.columns):
            for letter, slot in column:
                block[:, :, j] ^= self._anticommuting_mask(
                    letter, channel.qubits[:, slot]
                )
        self.phases.xor_block(first, block.reshape(self.n, -1))

    # -- Init-M: measurements --------------------------------------------------

    def _rowsum_many(
        self, destabilizers: np.ndarray, stabilizers: np.ndarray, src: int
    ) -> None:
        """Symbolic rowsum of stabilizer row ``src`` into the given rows:
        the X/Z bits of every row, and for the stabilizer rows the phase
        XOR plus the deterministic g-phase (destabilizer phases are not
        kept)."""
        if stabilizers.size:
            g_sum = g_exponents(
                self.xs[stabilizers], self.zs[stabilizers],
                self.xs[src], self.zs[src],
            ).sum(axis=1, dtype=np.int64)
            g_mod4 = g_sum % 4
            if np.any(g_mod4 & 1):
                raise AssertionError("odd i-exponent on a stabilizer row")
            self.phases.xor_rows(stabilizers, src)
            const_rows = stabilizers[(g_mod4 >> 1) & 1 == 1]
            if const_rows.size:
                self.phases.xor_constant(const_rows)
        rows = np.concatenate((destabilizers, stabilizers))
        self.xs[rows] ^= self.xs[src]
        self.zs[rows] ^= self.zs[src]

    def _measure_z(self, qubit: int) -> np.ndarray:
        """Measure qubit in Z; returns the outcome's packed bit-vector."""
        n = self.n
        stab_hits = np.nonzero(self.xs[n:, qubit])[0] + n
        if stab_hits.size:
            p = int(stab_hits[0])
            self._rowsum_many(
                np.nonzero(self.xs[:n, qubit])[0], stab_hits[1:], p
            )
            # A-G copies row p into destabilizer p - n; its phase is not
            # kept, so only the X/Z bits move.
            self.xs[p - n] = self.xs[p]
            self.zs[p - n] = self.zs[p]
            self.xs[p] = 0
            self.zs[p] = 0
            self.zs[p, qubit] = 1
            self.phases.clear_row(p)
            symbol = self.symbols.allocate_measurement(
                len(self.measurements), qubit
            )
            # The symbolic analogue of A-G's coin flip is r_p := s — only
            # the freshly collapsed stabilizer row carries the new symbol.
            # (The paper words this as "apply X^s", but a literal Pauli
            # would also flip every other row containing Z_qubit, which
            # contradicts both the paper's own §3.1 tableau and the true
            # post-measurement state.)
            self.phases.xor_symbol(np.array([p]), symbol)
            vector = np.zeros(bitops.words_for(self.symbols.width), dtype=np.uint64)
            bitops.set_bit(vector, symbol, 1)
            return vector

        # Determinate outcome: product of the stabilizer rows selected by
        # the destabilizer X column (A-G), with symbolic phases XORed.
        hits = np.nonzero(self.xs[:n, qubit])[0] + n
        vector = self.phases.xor_reduce(hits)
        if hits.size > 1:
            # The g-phase of multiplying each row onto the product of the
            # rows before it (the first row's is 0): the running products
            # are a prefix XOR, so one g_exponents call covers them all.
            xs, zs = self.xs[hits], self.zs[hits]
            g_sum = g_exponents(
                np.bitwise_xor.accumulate(xs[:-1], axis=0),
                np.bitwise_xor.accumulate(zs[:-1], axis=0),
                xs[1:], zs[1:],
            ).sum(axis=1, dtype=np.int64)
            if np.any(g_sum & 1):
                raise AssertionError("odd i-exponent in determinate product")
            if int(g_sum.sum()) & 2:
                vector[0] ^= np.uint64(1)
        return vector

    def _measure(self, qubit: int, basis: str) -> np.ndarray:
        conj = BASIS_CONJUGATION.get(basis)
        if conj:
            self._apply_gate(conj, (qubit,))
        vector = self._measure_z(qubit)
        if conj:
            self._apply_gate(conj, (qubit,))
        return vector

    def _reset(self, qubit: int, basis: str, record: bool) -> None:
        """Measure, optionally record, then apply the symbolic-exponent
        conditional Pauli that forces the +1 eigenstate (§6 extension)."""
        conj = BASIS_CONJUGATION.get(basis)
        if conj:
            self._apply_gate(conj, (qubit,))
        vector = self._measure_z(qubit)
        if record:
            self.measurements.append(vector)
        rows = self._anticommuting_stabilizers("X", qubit)
        if rows.size:
            self.phases.xor_vector(rows, vector)
        if conj:
            self._apply_gate(conj, (qubit,))

