"""Circuit transformations: inversion, noise stripping, remapping.

These are the utility passes a circuit library is expected to ship.
Gate inverses are *derived* from the conjugation tables (a gate's
inverse is the registered gate whose symplectic action and signs undo
it), so the inverse map can never drift from the unitaries.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import (
    Instruction,
    PauliTarget,
    RecTarget,
    RepeatBlock,
)
from repro.gates.database import GATES
from repro.gates.tables import conjugation_table


@lru_cache(maxsize=None)
def inverse_gate_name(name: str) -> str:
    """The registered gate undoing ``name`` (exact, including signs)."""
    table = conjugation_table(name)
    outputs, flips = table.outputs, table.flips
    for candidate, data in GATES.items():
        if not data.is_unitary:
            continue
        other = conjugation_table(candidate)
        if other.n_qubits != table.n_qubits:
            continue
        if _composes_to_identity(outputs, flips, other.outputs, other.flips):
            return candidate
    raise LookupError(f"no registered inverse for {name}")


def _composes_to_identity(out_a, flip_a, out_b, flip_b) -> bool:
    """Does applying table A then table B fix every basis Pauli with +sign?"""
    n_entries, width = out_a.shape
    for index in range(n_entries):
        bits = [(index >> (width - 1 - j)) & 1 for j in range(width)]
        mid = out_a[index]
        mid_index = 0
        for b in mid:
            mid_index = (mid_index << 1) | int(b)
        final = out_b[mid_index]
        if not np.array_equal(final, np.array(bits, dtype=np.uint8)):
            return False
        if (flip_a[index] ^ flip_b[mid_index]) != 0:
            return False
    return True


def inverse_circuit(circuit: Circuit) -> Circuit:
    """The inverse of a purely unitary circuit (gates reversed+inverted)."""
    out = Circuit()
    for entry in reversed(circuit.entries):
        if isinstance(entry, RepeatBlock):
            out.entries.append(
                RepeatBlock(entry.count, inverse_circuit(entry.body))
            )
            continue
        gate = entry.gate
        if gate.kind == "annotation":
            continue
        if not gate.is_unitary:
            raise ValueError(
                f"cannot invert non-unitary instruction {entry.name}"
            )
        if any(isinstance(t, RecTarget) for t in entry.targets):
            raise ValueError("cannot invert feedback instructions")
        inverse_name = inverse_gate_name(gate.name)
        if gate.targets_per_op == 2:
            # Reverse the pair order too (pairs act left to right).
            pairs = list(zip(entry.targets[0::2], entry.targets[1::2]))
            targets: list[int] = []
            for a, b in reversed(pairs):
                targets.extend((a, b))
            out.append(inverse_name, targets)
        else:
            out.append(inverse_name, tuple(reversed(entry.targets)))
    return out


def without_noise(circuit: Circuit) -> Circuit:
    """A copy with every noise instruction removed (records unchanged)."""
    out = Circuit()
    for entry in circuit.entries:
        if isinstance(entry, RepeatBlock):
            out.entries.append(RepeatBlock(entry.count, without_noise(entry.body)))
        elif entry.gate.kind != "noise":
            out.entries.append(entry)
    return out


def remap_qubits(circuit: Circuit, mapping: dict[int, int]) -> Circuit:
    """Relabel qubits; unmapped indices stay put."""
    def map_target(target):
        if isinstance(target, int):
            return mapping.get(target, target)
        if isinstance(target, PauliTarget):
            return PauliTarget(target.pauli, mapping.get(target.qubit, target.qubit))
        return target

    out = Circuit()
    for entry in circuit.entries:
        if isinstance(entry, RepeatBlock):
            out.entries.append(
                RepeatBlock(entry.count, remap_qubits(entry.body, mapping))
            )
        else:
            remapped = Instruction(
                entry.name,
                tuple(map_target(t) for t in entry.targets),
                entry.args,
            )
            remapped.validate()
            out.entries.append(remapped)
    return out


def record_index(measured: int, target: RecTarget) -> int:
    """The absolute record index ``target`` names after ``measured``
    records; a lookback past the start of the record is a
    :class:`ValueError`, never a wrap-around."""
    index = measured + target.offset
    if index < 0:
        raise ValueError(
            f"lookback {target} reaches before the first measurement"
        )
    return index


class RecordAnnotations:
    """DETECTOR / OBSERVABLE_INCLUDE lookbacks resolved to absolute
    measurement-record indices, one instruction at a time.

    ``detectors`` holds one int64 index array per DETECTOR in order;
    ``observables`` one index list per observable, ordered by the
    OBSERVABLE_INCLUDE index (the indices need not be contiguous).  Every
    backend resolves its annotations through :meth:`add` — the symbolic
    pass as its record grows, the others via
    :func:`resolve_record_annotations` — so detector semantics, and the
    error for a lookback past the start of the record, can never drift
    between backends.
    """

    def __init__(self) -> None:
        self.detectors: list[np.ndarray] = []
        self.observables: list[list[int]] = []
        self._observable_ids: list[int] = []

    def add(self, instruction: Instruction, measured: int) -> None:
        """Resolve ``instruction``'s ``rec[-k]`` targets after ``measured``
        records.  Any instruction may come here: the record controls of a
        classically controlled gate are only checked."""
        indices = [
            record_index(measured, t)
            for t in instruction.targets
            if isinstance(t, RecTarget)
        ]
        if instruction.name == "DETECTOR":
            self.detectors.append(np.array(indices, dtype=np.int64))
        elif instruction.name == "OBSERVABLE_INCLUDE":
            ident = int(instruction.args[0])
            slot = bisect_left(self._observable_ids, ident)
            if slot == len(self._observable_ids) or self._observable_ids[slot] != ident:
                self._observable_ids.insert(slot, ident)
                self.observables.insert(slot, [])
            self.observables[slot].extend(indices)


def resolve_record_annotations(
    instructions,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Resolve DETECTOR / OBSERVABLE_INCLUDE lookbacks to absolute indices.

    ``instructions`` is a flattened instruction stream (REPEATs already
    expanded).  Returns ``(detectors, observables)`` where each entry is
    an int64 array of absolute measurement-record indices; observables
    are ordered by their OBSERVABLE_INCLUDE index.  The record controls
    of classically controlled gates are checked on the way, so an
    out-of-range lookback anywhere fails here, before any shot.
    """
    measured = 0
    annotations = RecordAnnotations()
    for instruction in instructions:
        if instruction.gate.produces_record:
            measured += len(instruction.targets)
        else:
            annotations.add(instruction, measured)
    observables = [
        np.array(indices, dtype=np.int64) for indices in annotations.observables
    ]
    return annotations.detectors, observables


def moments(circuit: Circuit) -> list[list[Instruction]]:
    """Greedy scheduling of instructions into parallel layers.

    Instructions land in the earliest layer where none of their qubits
    are busy.  Noise/annotation entries ride along with the previous
    layer's constraints (they share their targets' slots).  REPEAT blocks
    are expanded.
    """
    layers: list[list[Instruction]] = []
    busy_until: dict[int, int] = {}
    record_layer = 0  # feedback must come after the measurement layer
    for instruction in circuit.flattened():
        qubits = [
            t.qubit if isinstance(t, PauliTarget) else t
            for t in instruction.targets
            if isinstance(t, (int, PauliTarget))
        ]
        earliest = max((busy_until.get(q, 0) for q in qubits), default=0)
        if any(isinstance(t, RecTarget) for t in instruction.targets):
            earliest = max(earliest, record_layer)
        while len(layers) <= earliest:
            layers.append([])
        layers[earliest].append(instruction)
        for q in qubits:
            busy_until[q] = earliest + 1
        if instruction.gate.produces_record:
            record_layer = earliest + 1
    return layers


def depth(circuit: Circuit) -> int:
    """Number of parallel layers under greedy scheduling."""
    return len(moments(circuit))
