"""Algorithm 1: the tableau simulator with symbolic phases.

One forward traversal of the circuit executes the three initialization
rules of §3.2.2:

* **Init-C** — Clifford gates update the X/Z bit blocks exactly as in
  Aaronson–Gottesman, evaluated as the gate's ANF kernel
  (:mod:`repro.gates.anf`) on the gathered rows of every target at
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

**Two layouts of the X/Z bits** (the paper's Fig. 2 idea; the layouts
alone are ablated in :mod:`repro.layout`).  Between measurements the
bits are *qubit-major* uint8 blocks ``xs[q, g]``, ``zs[q, g]`` (qubit
``q``, generator ``g``; destabilizers ``0 .. n-1``, stabilizers
``n .. 2n-1``), so Init-C gathers and scatters contiguous rows and
Init-P reads one contiguous row per noise site.  Each measurement or
reset instruction runs as one *segment* on a packed generator-major
table ``T = [X words | Z words | q word]`` (one uint64 row per
generator), built once before the instruction's first target and
unpacked once after its last, so every rowsum is a whole-row XOR.  A
basis measurement or reset conjugates the instruction's distinct
targets once before the segment and once after (the conjugations are
self-inverse, and a single-qubit Clifford on qubit ``b`` commutes with
a Z measurement or reset of qubit ``a != b``).

**Sign convention inside a segment.**  An A-G row with sign bit ``c``
is ``P = (-1)^c i^|x∧z| X^x Z^z`` (each ``Y`` is ``iXZ``).  The segment
writes it ``P = i^φ X^x Z^z`` with ``φ = 2c + |x∧z| (mod 4)``, storing
``q = bit0(φ) = |x∧z| mod 2`` in ``T``'s last word and
``c' = bit1(φ) = c ⊕ bit1(|x∧z| mod 4)`` in the phase matrix's
constant column (the conversion is applied at entry and undone with the
new bits at exit; symbolic columns are untouched).  Moving ``Z^z_r``
past ``X^x_p`` gives ``(i^φr X^xr Z^zr)(i^φp X^xp Z^zp) =
i^(φr + φp + 2 z_r·x_p) X^(xr⊕xp) Z^(zr⊕zp)``; the q bits add with a
carry, so a rowsum flips ``c'`` by ``parity(z_r·x_p) ⊕ (q_r ∧ q_p)``
(one masked popcount, :func:`rowsum_sign_flips`) and XORs ``q`` with
the rest of the row.  ``q`` stays equal to ``parity(|x∧z|)`` exactly
when every product is of commuting rows, so one check at segment exit
replaces A-G's per-rowsum "odd i-exponent" test.  A determinate
outcome's product of ordered rows ``k`` has
``φ = Σφ_k + 2 Σ_{i<j} z_i·x_j``; it is ``±Z``, so ``Σq_k`` is even and
its sign bit is ``Σq_k / 2 + Σc'_k + Σ_{i<j} z_i·x_j (mod 2)``, the last
sum a prefix XOR of the Z words.
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

_ONE = np.uint64(1)


def pack_generators(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Qubit-major 0/1 blocks -> the segment table ``[X | Z | q]``: one
    packed row per generator, ``q`` the parity of its ``|x∧z|``."""
    n, w = xs.shape[0], bitops.words_for(xs.shape[0])
    table = np.zeros((xs.shape[1], 2 * w + 1), dtype=np.uint64)
    octets = table.view(np.uint8)
    n_bytes = (n + 7) // 8
    for block, first in ((xs, 0), (zs, 8 * w)):
        octets[:, first: first + n_bytes] = np.packbits(
            np.ascontiguousarray(block.T), axis=1, bitorder="little"
        )
    table[:, 2 * w] = y_counts(table) & 1
    return table


def y_counts(table: np.ndarray) -> np.ndarray:
    """``|x∧z|`` (the number of Y factors) of every row of a segment table."""
    w = table.shape[1] // 2
    return np.bitwise_count(table[:, :w] & table[:, w: 2 * w]).sum(
        axis=1, dtype=np.int64
    )


def rowsum_sign_flips(rows: np.ndarray, src: np.ndarray) -> np.ndarray:
    """0/1 flip of ``c'`` for each of ``rows`` (segment-table rows) when
    multiplied by ``src``: ``parity(z_r·x_p) ⊕ (q_r ∧ q_p)``, as one
    popcount of ``[Z_r | q_r] & [X_p | q_p]``."""
    w = rows.shape[1] // 2
    mask = np.concatenate((src[:w], src[2 * w:]))
    return bitops.parity_words(rows[:, w:] & mask, axis=1)


class SymPhaseSimulator:
    """Builds symbolic measurement expressions in one circuit traversal."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        n = n_qubits
        self.n = n
        # Qubit-major: xs[q, g] is generator g's X bit on qubit q.
        self.xs = np.zeros((n, 2 * n), dtype=np.uint8)
        self.zs = np.zeros((n, 2 * n), dtype=np.uint8)
        idx = np.arange(n)
        self.xs[idx, idx] = 1
        self.zs[idx, n + idx] = 1
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
        elif gate.kind in ("measure", "reset", "measure_reset"):
            self._measure_segment(
                instruction.targets, gate.basis,
                record=gate.kind != "reset", reset=gate.kind != "measure",
            )
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
                inputs += [self.xs[qubits], self.zs[qubits]]
            *outputs, flip = kernel.evaluate(inputs)
            for slot, qubits in enumerate(columns):
                self.xs[qubits] = outputs[2 * slot]
                self.zs[qubits] = outputs[2 * slot + 1]
            flipped = np.flatnonzero(np.bitwise_xor.reduce(flip[:, self.n:], axis=0))
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
                rows = np.flatnonzero(self._anticommuting_mask(letter, qubit))
                if rows.size:
                    self.phases.xor_vector(rows + self.n, vector)
            else:
                self._apply_gate(instruction.name, (control, qubit))

    # -- Init-P: symbolic Pauli faults ----------------------------------------

    def _anticommuting_mask(self, letter: str, qubits) -> np.ndarray:
        """0/1 mask of the stabilizer rows anticommuting with ``letter``
        on ``qubits`` (one row per qubit when ``qubits`` is an array)."""
        stabilizers = slice(self.n, None)
        if letter == "X":
            return self.zs[qubits, stabilizers]
        if letter == "Z":
            return self.xs[qubits, stabilizers]
        if letter == "Y":
            return self.xs[qubits, stabilizers] ^ self.zs[qubits, stabilizers]
        raise ValueError(f"invalid Pauli letter {letter!r}")

    def _apply_noise(self, instruction: Instruction) -> None:
        """Apply ``P^s`` for every symbol of every site in one block XOR.

        Noise leaves the X/Z bits alone, so every site reads the same
        tableau and repeated targets need no ordering."""
        channel = noise_channel(instruction)
        if not channel.n_sites:
            return
        first = self.symbols.allocate_noise(channel)
        block = np.zeros(
            (channel.n_sites, len(channel.columns), self.n), dtype=np.uint8
        )
        for j, column in enumerate(channel.columns):
            for letter, slot in column:
                block[:, j] ^= self._anticommuting_mask(
                    letter, channel.qubits[:, slot]
                )
        self.phases.xor_block(first, block.reshape(-1, self.n).T)

    # -- Init-M: one segment per measurement or reset instruction -------------

    def _measure_segment(
        self, targets: tuple[int, ...], basis: str, record: bool, reset: bool
    ) -> None:
        """Z-measure every target in order on one packed generator-major
        table, recording each outcome (``record``) and/or applying the §6
        conditional Pauli that forces the +1 eigenstate (``reset``)."""
        conj = BASIS_CONJUGATION.get(basis)
        distinct = tuple(dict.fromkeys(targets))
        if conj:
            self._apply_gate(conj, distinct)
        table = self._enter_segment()
        n, w = self.n, table.shape[1] // 2
        for qubit in targets:
            word, mask = bitops.bit_to_word(qubit)
            vector = self._collapse(table, qubit, word, mask)
            if record:
                self.measurements.append(vector)
            if reset:
                rows = np.flatnonzero(table[n:, w + word] & mask)
                if rows.size:
                    self.phases.xor_vector(rows + n, vector)
        self._leave_segment(table)
        if conj:
            self._apply_gate(conj, distinct)

    def _flip_signs_by_y(self, y: np.ndarray) -> None:
        """``c ↔ c'``: flip the constant of every stabilizer row whose
        ``|x∧z| mod 4`` has bit 1 set (its own inverse)."""
        flipped = np.flatnonzero(y[self.n:] & 2)
        if flipped.size:
            self.phases.xor_constant(flipped + self.n)

    def _enter_segment(self) -> np.ndarray:
        table = pack_generators(self.xs, self.zs)
        self._flip_signs_by_y(y_counts(table))
        return table

    def _leave_segment(self, table: np.ndarray) -> None:
        n, w = self.n, table.shape[1] // 2
        y = y_counts(table)
        if np.any(table[:, 2 * w] != (y & 1)):
            raise AssertionError(
                "odd i-exponent: a rowsum multiplied anticommuting rows"
            )
        self._flip_signs_by_y(y)
        octets = table.view(np.uint8)
        for block, first in ((self.xs, 0), (self.zs, 8 * w)):
            block[:] = np.unpackbits(
                octets[:, first: first + 8 * w], axis=1, count=n,
                bitorder="little",
            ).T

    def _collapse(
        self, table: np.ndarray, qubit: int, word: int, mask: np.uint64
    ) -> np.ndarray:
        """Z-measure ``qubit`` (bit ``mask`` of word ``word``) on the
        segment table; returns the outcome's packed bit-vector."""
        n, w = self.n, table.shape[1] // 2
        hits = np.flatnonzero(table[:, word] & mask)
        first = int(np.searchsorted(hits, n))
        if first < hits.size:
            p = int(hits[first])
            others = hits[first + 1:]
            src = table[p].copy()
            self.phases.xor_rows(others, p, rowsum_sign_flips(table[others], src))
            # Every row with X on the qubit times row p; row p zeroes
            # itself, becomes Z_qubit, and its old value moves to
            # destabilizer p - n (whose phase is not kept).
            table[hits] ^= src
            table[p - n] = src
            table[p, w + word] = mask
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
            self.phases.xor_symbol(p, symbol)
            vector = np.zeros(bitops.words_for(self.symbols.width), dtype=np.uint64)
            bitops.set_bit(vector, symbol, 1)
            return vector

        # Determinate outcome: product of the stabilizer rows selected by
        # the destabilizer X column (A-G), with symbolic phases XORed.
        rows = hits + n
        vector = self.phases.xor_reduce(rows)
        if rows.size == 1:
            return vector
        factors = table[rows]
        y_total = int(factors[:, 2 * w].sum())
        if y_total & 1:
            raise AssertionError("odd i-exponent in determinate product")
        # Σ_{i<j} z_i·x_j: each factor's X against the XOR of the Z words
        # of the factors before it.
        swaps = bitops.parity_words(
            np.bitwise_xor.accumulate(factors[:-1, w: 2 * w], axis=0)
            & factors[1:, :w]
        )
        if ((y_total >> 1) ^ int(swaps)) & 1:
            vector[0] ^= _ONE
        return vector
