"""Batch Pauli-frame propagation, vectorized across shots.

Frames are stored bit-packed: ``x_frame[q]`` / ``z_frame[q]`` are uint64
word rows where bit ``k`` belongs to shot ``k``.  One uint64 word
processes 64 shots at a time, mirroring Stim's SIMD batching.

Correctness model (Rall et al. 2019; Gidney 2021):

* a *reference sample* is produced once by a noiseless tableau run with
  random outcomes pinned to 0 (Stim's way, and the independent baseline
  whose init time Fig. 3 compares against SymPhase's).  It equals the
  constant column of Algorithm 1's measurement matrix
  (:meth:`~repro.core.compiled_sampler.CompiledSampler.reference`), so
  a caller that already holds the circuit's pass (the engine's cache)
  passes that in as ``reference`` and skips the tableau run;
* frames start as a uniformly random Z string (valid: Z stabilizes
  |0...0>), are conjugated through every Clifford gate, XOR-accumulate
  sampled Pauli faults, and flip recorded outcomes via their X part;
* after each measurement or reset the measured qubit's Z frame is
  re-randomized, which reproduces the uniform distribution of
  intrinsically random outcomes.

Two execution modes share this model:

* ``mode="compiled"`` (default) lowers the circuit **once** into a
  :class:`~repro.frame.program.FrameProgram` — a fused op list executed
  with no per-qubit Python dispatch;
* ``mode="interpreted"`` re-dispatches every instruction through Python
  on every ``sample`` call (the pre-compilation baseline, kept for
  benchmarking and as a differential-testing oracle).

Both modes consume the RNG in the same order, so their samples are
bitwise identical for the same seed.  Detector and observable
derivation happens in the packed domain for both: an XOR of packed
record rows via precomputed index lists
(:func:`repro.gf2.bitops.xor_select_rows`), never an unpack-and-sum.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import Instruction, RecTarget, disjoint_runs
from repro.circuit.transforms import resolve_record_annotations
from repro.frame.program import (
    FrameProgram,
    _symplectic,
    fault_rows,
)
from repro.gates.database import BASIS_CONJUGATION, FEEDBACK_LETTER
from repro.gf2 import bitops
from repro.noise.channels import hit_plan, noise_channel
from repro.rng import as_generator
from repro.tableau.simulator import reference_sample

_U64 = np.uint64

_MODES = ("compiled", "interpreted")


class FrameSimulator:
    """Samples a noisy circuit by per-batch Pauli-frame propagation.

    ``reference`` is the circuit's reference record (uint8, one entry
    per measurement); without one, a noiseless tableau run computes it.
    """

    def __init__(
        self,
        circuit: Circuit,
        reference: np.ndarray | None = None,
        mode: str = "compiled",
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.circuit = circuit
        self.mode = mode
        self.n_qubits = max(circuit.n_qubits, 1)
        # Initialization-time analysis: one noiseless tableau run.
        self.reference = (
            reference if reference is not None else reference_sample(circuit)
        )
        self.instructions = list(circuit.flattened())
        # Only the compiled mode pays the lowering pass; the interpreted
        # baseline resolves annotations directly so its init time really
        # is the pre-compilation cost (bench_frame.py tracks both).
        if mode == "compiled":
            self.program = FrameProgram(circuit, self.instructions)
            self.detectors = self.program.detectors
            self.observables = self.program.observables
        else:
            self.program = None
            self.detectors, self.observables = resolve_record_annotations(
                self.instructions
            )
        # Reference parities per derived row: detector i fires when the
        # XOR of its referenced *outcomes* is 1, i.e. (XOR of flips) ^
        # (XOR of reference bits).  The reference part is a constant.
        self._detector_reference = self._reference_parity(self.detectors)
        self._observable_reference = self._reference_parity(self.observables)

    def _reference_parity(self, index_lists) -> np.ndarray:
        return np.array(
            [
                int(self.reference[indices].sum() & 1) if len(indices) else 0
                for indices in index_lists
            ],
            dtype=np.uint8,
        )

    # -- sampling --------------------------------------------------------

    def sample_packed_flips(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Packed flip rows: uint64 array of shape (n_records, n_words).

        Bit ``k`` of row ``m`` says whether shot ``k`` flips recorded
        outcome ``m`` relative to the reference sample.  This is the
        native output of frame propagation; ``sample`` and
        ``sample_detectors`` are thin views over it.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = as_generator(rng)
        if self.mode == "compiled":
            return self.program.run(shots, rng)
        return self._run_interpreted(shots, rng)

    def sample(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Sample measurement records: uint8 array of shape (shots, n_m).

        ``rng`` may be an int seed, a Generator, or ``None``.
        """
        packed = self.sample_packed_flips(shots, rng)
        if packed.shape[0] == 0:
            return np.zeros((shots, 0), dtype=np.uint8)
        flips = bitops.unpack_rows(packed, shots).T  # (shots, n_m)
        # The transpose is F-ordered and the XOR ufunc preserves that
        # layout; force C order so row-wise consumers get dense rows.
        return np.ascontiguousarray(flips ^ self.reference[None, :])

    def sample_detectors(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Detector and observable samples, derived in the packed domain.

        Each derived row is an XOR of packed record rows (precomputed
        index lists), plus the constant reference parity.
        """
        packed = self.sample_packed_flips(shots, rng)
        detectors = self._derive(packed, self.detectors,
                                 self._detector_reference, shots)
        observables = self._derive(packed, self.observables,
                                   self._observable_reference, shots)
        return detectors, observables

    def sample_detectors_packed(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed detector and observable samples, shot-major.

        The fully packed-domain path: derived rows are XORs of packed
        record rows, the shot-major layout comes from a bit-level
        transpose, and the constant reference parity is one packed-row
        XOR — no uint8 matrix is ever materialized.  Consumes the RNG
        exactly like :meth:`sample_detectors` (one
        ``sample_packed_flips`` draw), so for any seed
        ``unpack_rows(packed_view) == unpacked_view`` bitwise.
        """
        packed = self.sample_packed_flips(shots, rng)
        detectors = self._derive_packed(packed, self.detectors,
                                        self._detector_reference, shots)
        observables = self._derive_packed(packed, self.observables,
                                          self._observable_reference, shots)
        return detectors, observables

    @staticmethod
    def _derive(packed, index_lists, reference_parity, shots) -> np.ndarray:
        derived = bitops.xor_select_rows(packed, index_lists)
        bits = bitops.unpack_rows(derived, shots).T  # (shots, n_rows)
        # Force C order: the transposed unpack is F-ordered and the XOR
        # preserves input layout, but consumers iterate rows (shots).
        return np.ascontiguousarray(bits ^ reference_parity[None, :])

    @staticmethod
    def _derive_packed(packed, index_lists, reference_parity, shots):
        from repro.gf2.transpose import transpose_bitmatrix

        derived = bitops.xor_select_rows(packed, index_lists)
        shot_major = transpose_bitmatrix(derived, len(index_lists), shots)
        reference = bitops.pack_bits(reference_parity)
        if reference.size:
            shot_major ^= reference[None, :]
        return shot_major

    # -- interpreted mode ------------------------------------------------

    def _run_interpreted(
        self, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        n_words = bitops.words_for(shots)
        x_frame = np.zeros((self.n_qubits, n_words), dtype=_U64)
        z_frame = bitops.random_packed((self.n_qubits, n_words), shots, rng)
        record_rows: list[np.ndarray] = []
        for instruction in self.instructions:
            self._do(instruction, x_frame, z_frame, record_rows, shots, rng)
        if not record_rows:
            return np.zeros((0, n_words), dtype=_U64)
        return np.stack(record_rows)

    # -- instruction handlers -----------------------------------------------

    def _do(
        self,
        instruction: Instruction,
        x_frame: np.ndarray,
        z_frame: np.ndarray,
        record_rows: list[np.ndarray],
        shots: int,
        rng: np.random.Generator,
    ) -> None:
        gate = instruction.gate
        if gate.is_unitary:
            if any(isinstance(t, RecTarget) for t in instruction.targets):
                self._apply_feedback(instruction, x_frame, z_frame, record_rows)
            else:
                _apply_unitary(gate.name, instruction.targets, x_frame, z_frame)
        elif gate.kind in ("measure", "reset", "measure_reset"):
            conj = BASIS_CONJUGATION.get(gate.basis)
            reset = gate.kind in ("reset", "measure_reset")
            # One packed draw per disjoint run of targets (normally one
            # per instruction) instead of one per qubit.
            for run in disjoint_runs(instruction.targets):
                if conj:
                    _apply_unitary(conj, tuple(run), x_frame, z_frame)
                if gate.produces_record:
                    for qubit in run:
                        record_rows.append(x_frame[qubit].copy())
                idx = np.asarray(run, dtype=np.intp)
                if reset:
                    x_frame[idx] = 0
                z_frame[idx] = bitops.random_packed(
                    (len(run), z_frame.shape[1]), shots, rng
                )
                if conj:
                    _apply_unitary(conj, tuple(run), x_frame, z_frame)
        elif gate.kind == "noise":
            self._apply_noise(instruction, x_frame, z_frame, shots, rng)
        elif gate.kind == "annotation":
            pass
        else:
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")

    def _apply_feedback(
        self,
        instruction: Instruction,
        x_frame: np.ndarray,
        z_frame: np.ndarray,
        record_rows: list[np.ndarray],
    ) -> None:
        """Classically-controlled Pauli under frame semantics.

        The true control bit is ``reference ^ frame_flip``; the reference
        part was already applied during the noiseless reference run, so
        only the recorded *flip* row conditions the frame update — a
        word-wise XOR per shot batch.
        """
        letter = FEEDBACK_LETTER[instruction.name]
        targets = instruction.targets
        for control, qubit in zip(targets[0::2], targets[1::2]):
            if isinstance(control, RecTarget):
                flips = record_rows[len(record_rows) + control.offset]
                if letter in ("X", "Y"):
                    x_frame[qubit] = x_frame[qubit] ^ flips
                if letter in ("Z", "Y"):
                    z_frame[qubit] = z_frame[qubit] ^ flips
            else:
                _apply_unitary(
                    instruction.name, (control, qubit), x_frame, z_frame
                )

    def _apply_noise(
        self,
        instruction: Instruction,
        x_frame: np.ndarray,
        z_frame: np.ndarray,
        shots: int,
        rng: np.random.Generator,
    ) -> None:
        channel = noise_channel(instruction)
        # All sites of one instruction share the same joint distribution,
        # so one draw covers them (the compiled NoiseOp's call).
        faults = fault_rows(
            hit_plan(channel.probabilities), len(channel.columns),
            channel.n_sites, shots, rng,
        )
        for site in range(channel.n_sites):
            for j, action in enumerate(channel.actions(site)):
                packed = faults[j, site]
                if not packed.any():
                    continue
                for letter, qubit in action:
                    if letter in ("X", "Y"):
                        x_frame[qubit] ^= packed
                    if letter in ("Z", "Y"):
                        z_frame[qubit] ^= packed


def _apply_unitary(
    name: str, targets: tuple[int, ...], x_frame: np.ndarray, z_frame: np.ndarray
) -> None:
    """Conjugate the frames through a Clifford gate (phase-free action).

    Interpreted-mode kernel: loops per qubit / per pair in Python, which
    is exactly the per-batch dispatch cost the compiled
    :class:`~repro.frame.program.FrameProgram` removes.
    """
    sym, n_qubits = _symplectic(name)
    if n_qubits == 1:
        for qubit in targets:
            x, z = x_frame[qubit], z_frame[qubit]
            new_x = (x if sym[0, 0] else 0) ^ (z if sym[0, 1] else 0)
            new_z = (x if sym[1, 0] else 0) ^ (z if sym[1, 1] else 0)
            x_frame[qubit] = new_x
            z_frame[qubit] = new_z
    else:
        for a, b in zip(targets[0::2], targets[1::2]):
            vec = (x_frame[a], z_frame[a], x_frame[b], z_frame[b])
            new = []
            for i in range(4):
                acc = np.zeros_like(vec[0])
                for j in range(4):
                    if sym[i, j]:
                        acc = acc ^ vec[j]
                new.append(acc)
            x_frame[a], z_frame[a] = new[0], new[1]
            x_frame[b], z_frame[b] = new[2], new[3]
