"""Compile-once vectorized frame programs.

:class:`FrameProgram` lowers a flattened :class:`~repro.circuit.circuit.
Circuit` **once** into a short list of fused, batch-vectorized ops; the
``run`` loop then executes a shot batch with no per-qubit Python
dispatch.  This is the frame-backend counterpart of
:class:`~repro.core.compiled_sampler.CompiledSampler`'s one-time
Initialization: all circuit analysis — symplectic actions, record
layout, noise-channel decomposition, detector lookback resolution — is
paid at compile time, and sampling reduces to a handful of packed GF(2)
kernel calls per op.

Lowering performs these fusions:

* consecutive unitary instructions with the same gate collapse into one
  op whose precomputed symplectic action is applied to *all* targets at
  once via fancy-indexed packed-row gathers (targets are split into
  maximal disjoint runs so sequential semantics are preserved when a
  qubit repeats);
* unitaries whose symplectic action is the identity (Pauli gates) are
  dropped entirely — they cannot move a frame;
* measurement / reset instructions become one op that records into a
  **preallocated** packed record buffer (no ``list.append`` + ``copy``),
  zeroes reset qubits with one scatter, and re-randomizes all measured
  ``Z`` rows with a single batched draw;
* noise instructions carry XOR-scatter plans built from whole target
  columns, so each channel costs one hit draw
  (:func:`~repro.noise.channels.sample_hits`, proportional to the
  non-identity outcomes) plus at most ``n_symbols`` packed scatters.

The op stream consumes the RNG in exactly the same order as the
interpreted :class:`~repro.frame.frame_simulator.FrameSimulator` path,
so compiled and interpreted sampling are **bitwise identical** for the
same seed (covered by ``tests/backends/test_equivalence.py``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import Instruction, RecTarget, disjoint_runs
from repro.circuit.transforms import resolve_record_annotations
from repro.gates.database import BASIS_CONJUGATION, FEEDBACK_LETTER, get_gate
from repro.gf2 import bitops
from repro.noise.channels import HitPlan, hit_plan, noise_channel, sample_hits
from repro.rng import as_generator

_U64 = np.uint64


@lru_cache(maxsize=None)
def _symplectic(name: str) -> tuple[np.ndarray, int]:
    table = get_gate(name).table
    return table.symplectic_matrix(), table.n_qubits


class _RunState:
    """Mutable per-batch execution state threaded through the ops."""

    __slots__ = ("x", "z", "record", "shots", "n_words", "rng")

    def __init__(self, x, z, record, shots, n_words, rng):
        self.x = x
        self.z = z
        self.record = record
        self.shots = shots
        self.n_words = n_words
        self.rng = rng


class Unitary1QOp:
    """One single-qubit symplectic action applied to a batch of qubits."""

    __slots__ = ("idx", "s00", "s01", "s10", "s11")

    def __init__(self, sym: np.ndarray, qubits):
        self.idx = np.asarray(qubits, dtype=np.intp)
        self.s00 = bool(sym[0, 0])
        self.s01 = bool(sym[0, 1])
        self.s10 = bool(sym[1, 0])
        self.s11 = bool(sym[1, 1])

    def run(self, st: _RunState) -> None:
        idx = self.idx
        x = st.x[idx]
        z = st.z[idx]
        # An invertible 1q symplectic has at least one term per row.
        new_x = (x ^ z if self.s01 else x) if self.s00 else z
        new_z = (x ^ z if self.s11 else x) if self.s10 else z
        st.x[idx] = new_x
        st.z[idx] = new_z


class Unitary2QOp:
    """One two-qubit symplectic action applied to a batch of pairs."""

    __slots__ = ("a", "b", "rows")

    def __init__(self, sym: np.ndarray, targets):
        self.a = np.asarray(targets[0::2], dtype=np.intp)
        self.b = np.asarray(targets[1::2], dtype=np.intp)
        # rows[i] = input indices feeding output i of (xa, za, xb, zb).
        self.rows = tuple(
            tuple(np.nonzero(sym[i])[0]) for i in range(4)
        )

    def run(self, st: _RunState) -> None:
        vec = (st.x[self.a], st.z[self.a], st.x[self.b], st.z[self.b])
        outs = []
        for terms in self.rows:
            acc = vec[terms[0]]
            for j in terms[1:]:
                acc = acc ^ vec[j]
            outs.append(acc)
        st.x[self.a], st.z[self.a] = outs[0], outs[1]
        st.x[self.b], st.z[self.b] = outs[2], outs[3]


class MeasureResetOp:
    """Batched measurement / reset over a disjoint run of qubits.

    Semantics per qubit (matching the interpreter): basis conjugation,
    record the X row, zero the X row on reset, re-randomize the Z row,
    conjugate back.  All five steps are whole-run array operations; the
    re-randomization is a single packed draw for the whole run.
    """

    __slots__ = ("idx", "conj", "rec_start", "rec_stop", "reset", "produce")

    def __init__(self, qubits, conj_name, rec_start, produce, reset):
        self.idx = np.asarray(qubits, dtype=np.intp)
        self.conj = (
            Unitary1QOp(_symplectic(conj_name)[0], qubits)
            if conj_name else None
        )
        self.produce = produce
        self.rec_start = rec_start
        self.rec_stop = rec_start + (len(qubits) if produce else 0)
        self.reset = reset

    def run(self, st: _RunState) -> None:
        if self.conj is not None:
            self.conj.run(st)
        if self.produce:
            st.record[self.rec_start:self.rec_stop] = st.x[self.idx]
        if self.reset:
            st.x[self.idx] = 0
        st.z[self.idx] = bitops.random_packed(
            (len(self.idx), st.n_words), st.shots, st.rng
        )
        if self.conj is not None:
            self.conj.run(st)


class NoiseOp:
    """One noise instruction with its channel and pre-built scatter plans.

    ``plans[j]`` drives symbol ``j`` of every site at once: the packed
    fault rows (one per site) are gathered by site index and XOR-scattered
    into the frame rows named by qubit index (each ``(letter, slot)`` of
    the symbol's column adds every site against that slot's qubits).
    ``safe`` marks scatters whose qubit indices are unique, allowing the
    fast fancy-``^=`` path instead of ``np.bitwise_xor.at``.
    """

    __slots__ = ("hit_plan", "n_sites", "plans")

    def __init__(self, instruction: Instruction):
        channel = noise_channel(instruction)
        self.n_sites = channel.n_sites
        self.hit_plan = hit_plan(channel.probabilities)
        self.plans = tuple(
            (
                self._plan(channel.qubits, column, ("X", "Y")),
                self._plan(channel.qubits, column, ("Z", "Y")),
            )
            for column in channel.columns
        )

    @staticmethod
    def _plan(qubits, column, letters):
        slots = [slot for letter, slot in column if letter in letters]
        if not slots:
            return None
        qubit_arr = qubits[:, slots].T.reshape(-1).astype(np.intp)
        sites = np.tile(np.arange(qubits.shape[0], dtype=np.intp), len(slots))
        safe = np.unique(qubit_arr).size == qubit_arr.size
        return sites, qubit_arr, safe

    @staticmethod
    def _scatter(frame, plan, packed):
        sites, qubits, safe = plan
        rows = packed[sites]
        if safe:
            frame[qubits] ^= rows
        else:
            np.bitwise_xor.at(frame, qubits, rows)

    def run(self, st: _RunState) -> None:
        faults = fault_rows(
            self.hit_plan, len(self.plans), self.n_sites,
            st.shots, st.rng,
        )
        for j in np.flatnonzero(faults.any(axis=(1, 2))):
            x_plan, z_plan = self.plans[j]
            if x_plan is not None:
                self._scatter(st.x, x_plan, faults[j])
            if z_plan is not None:
                self._scatter(st.z, z_plan, faults[j])


def fault_rows(
    plan: HitPlan, n_symbols: int, n_sites: int, shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Packed per-symbol fault rows of ``n_sites`` equal-channel sites.

    ``out[j, s]`` holds, bit per shot, whether site ``s`` sets symbol
    ``j``: one :func:`~repro.noise.channels.sample_hits` draw from the
    channel's ``plan``, so the compiled and interpreted frame paths
    consume the RNG identically.
    """
    out = np.zeros((n_symbols, n_sites, bitops.words_for(shots)), dtype=_U64)
    for sites, shot_indices, patterns in sample_hits(
        plan, n_sites, shots, rng
    ):
        word_sites, word_cols, words = bitops.pack_sorted_bits(
            sites, shot_indices, patterns, n_symbols
        )
        out[:, word_sites, word_cols] = words
    return out


class FeedbackOp:
    """Classically-controlled Pauli (``CX rec[-k] q`` and friends).

    Record lookbacks are resolved to absolute record-buffer rows at
    compile time; at run time the control is a single packed row XORed
    into the target frame.  Plain (qubit, qubit) pairs interleaved in
    the same instruction keep their sequential position.
    """

    __slots__ = ("actions",)

    def __init__(self, instruction: Instruction, measured: int):
        letter = FEEDBACK_LETTER[instruction.name]
        sym = _symplectic(instruction.name)[0]
        targets = instruction.targets
        actions = []
        for control, qubit in zip(targets[0::2], targets[1::2]):
            if isinstance(control, RecTarget):
                actions.append((
                    measured + control.offset,
                    qubit,
                    letter in ("X", "Y"),
                    letter in ("Z", "Y"),
                ))
            else:
                actions.append(Unitary2QOp(sym, (control, qubit)))
        self.actions = tuple(actions)

    def run(self, st: _RunState) -> None:
        for action in self.actions:
            if isinstance(action, Unitary2QOp):
                action.run(st)
                continue
            rec_index, qubit, flip_x, flip_z = action
            flips = st.record[rec_index]
            if flip_x:
                st.x[qubit] ^= flips
            if flip_z:
                st.z[qubit] ^= flips


class FrameProgram:
    """A circuit lowered once into fused, batch-vectorized frame ops.

    ``run(shots, rng)`` executes the op list for one shot batch and
    returns the **packed flip rows** — a ``(n_records, words_for(shots))``
    uint64 matrix whose bit ``k`` of row ``m`` says whether shot ``k``
    flips recorded outcome ``m`` relative to the reference sample.
    """

    def __init__(self, circuit: Circuit, instructions=None):
        if instructions is None:
            instructions = list(circuit.flattened())
        self.n_qubits = max(circuit.n_qubits, 1)
        self.detectors, self.observables = resolve_record_annotations(
            instructions
        )
        self.ops: list = []
        measured = 0
        pending_name: str | None = None
        pending_targets: list = []

        def flush() -> None:
            nonlocal pending_name, pending_targets
            if pending_name is not None:
                self._emit_unitary(pending_name, pending_targets)
            pending_name, pending_targets = None, []

        for instruction in instructions:
            gate = instruction.gate
            if gate.is_unitary:
                if any(isinstance(t, RecTarget) for t in instruction.targets):
                    flush()
                    self.ops.append(FeedbackOp(instruction, measured))
                elif instruction.name == pending_name:
                    pending_targets.extend(instruction.targets)
                else:
                    flush()
                    pending_name = instruction.name
                    pending_targets = list(instruction.targets)
            elif gate.kind in ("measure", "reset", "measure_reset"):
                flush()
                measured = self._emit_measure(gate, instruction, measured)
            elif gate.kind == "noise":
                flush()
                op = NoiseOp(instruction)
                if op.n_sites:
                    self.ops.append(op)
            elif gate.kind == "annotation":
                continue
            else:
                raise ValueError(
                    f"unhandled instruction kind {gate.kind!r}"
                )
        flush()
        self.n_records = measured

    # -- lowering --------------------------------------------------------

    def _emit_unitary(self, name: str, targets: list) -> None:
        sym, n_qubits = _symplectic(name)
        if np.array_equal(sym, np.eye(2 * n_qubits, dtype=sym.dtype)):
            return  # Pauli/identity: no action on frames
        for run in disjoint_runs(targets, arity=n_qubits):
            if n_qubits == 1:
                self.ops.append(Unitary1QOp(sym, run))
            else:
                self.ops.append(Unitary2QOp(sym, run))

    def _emit_measure(self, gate, instruction: Instruction, measured: int) -> int:
        conj_name = BASIS_CONJUGATION.get(gate.basis)
        produce = gate.produces_record
        reset = gate.kind in ("reset", "measure_reset")
        for run in disjoint_runs(instruction.targets):
            self.ops.append(
                MeasureResetOp(run, conj_name, measured, produce, reset)
            )
            if produce:
                measured += len(run)
        return measured

    # -- execution -------------------------------------------------------

    def run(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Execute one shot batch; returns packed flip rows."""
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = as_generator(rng)
        n_words = bitops.words_for(shots)
        state = _RunState(
            x=np.zeros((self.n_qubits, n_words), dtype=_U64),
            z=bitops.random_packed((self.n_qubits, n_words), shots, rng),
            record=np.zeros((self.n_records, n_words), dtype=_U64),
            shots=shots,
            n_words=n_words,
            rng=rng,
        )
        for op in self.ops:
            op.run(state)
        return state.record


def compile_frame_program(circuit: Circuit) -> FrameProgram:
    """Lower ``circuit`` once into a reusable :class:`FrameProgram`."""
    return FrameProgram(circuit)
