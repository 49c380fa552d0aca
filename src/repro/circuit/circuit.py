"""The Circuit container and its builder interface."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.circuit.instructions import (
    Instruction,
    PauliTarget,
    RecTarget,
    RepeatBlock,
    Target,
)
from repro.gates.database import get_gate


class Circuit:
    """An ordered list of instructions with REPEAT blocks.

    Builder usage::

        c = Circuit()
        c.append("H", [0])
        c.append("CX", [0, 1])
        c.append("DEPOLARIZE1", [0, 1], 0.001)
        c.append("M", [0, 1])

    or the shorthand methods (``c.h(0)``, ``c.cx(0, 1)``, ``c.m(0, 1)``).
    """

    def __init__(self, entries: Iterable[Instruction | RepeatBlock] | None = None):
        self.entries: list[Instruction | RepeatBlock] = list(entries or [])

    # -- construction ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        """Parse the Stim-dialect text format."""
        from repro.circuit.parser import parse_circuit

        return parse_circuit(text)

    def append(
        self,
        name: str,
        targets: Sequence[Target] = (),
        args: float | Sequence[float] = (),
    ) -> "Circuit":
        """Append one instruction; returns self for chaining."""
        canonical = get_gate(name).name
        if isinstance(args, (int, float)):
            args = (float(args),)
        instruction = Instruction(canonical, tuple(targets), tuple(float(a) for a in args))
        instruction.validate()
        self.entries.append(instruction)
        return self

    def append_repeat(self, count: int, body: "Circuit") -> "Circuit":
        """Append a ``REPEAT count { body }`` block."""
        self.entries.append(RepeatBlock(count, body))
        return self

    def __iadd__(self, other: "Circuit") -> "Circuit":
        self.entries.extend(other.entries)
        return self

    def __add__(self, other: "Circuit") -> "Circuit":
        return Circuit(self.entries + other.entries)

    def __mul__(self, count: int) -> "Circuit":
        """``circuit * k`` wraps the circuit in a REPEAT block."""
        if count < 1:
            raise ValueError("repetition count must be at least 1")
        if count == 1:
            return self.copy()
        return Circuit([RepeatBlock(count, self.copy())])

    def copy(self) -> "Circuit":
        out = Circuit()
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                out.entries.append(RepeatBlock(entry.count, entry.body.copy()))
            else:
                out.entries.append(entry)
        return out

    # -- shorthand builders ----------------------------------------------

    def h(self, *qubits: int) -> "Circuit":
        return self.append("H", qubits)

    def s(self, *qubits: int) -> "Circuit":
        return self.append("S", qubits)

    def x(self, *qubits: int) -> "Circuit":
        return self.append("X", qubits)

    def y(self, *qubits: int) -> "Circuit":
        return self.append("Y", qubits)

    def z(self, *qubits: int) -> "Circuit":
        return self.append("Z", qubits)

    def cx(self, *qubits: int) -> "Circuit":
        return self.append("CX", qubits)

    def cz(self, *qubits: int) -> "Circuit":
        return self.append("CZ", qubits)

    def swap(self, *qubits: int) -> "Circuit":
        return self.append("SWAP", qubits)

    def m(self, *qubits: int) -> "Circuit":
        return self.append("M", qubits)

    def r(self, *qubits: int) -> "Circuit":
        return self.append("R", qubits)

    def mr(self, *qubits: int) -> "Circuit":
        return self.append("MR", qubits)

    def x_error(self, p: float, *qubits: int) -> "Circuit":
        return self.append("X_ERROR", qubits, p)

    def z_error(self, p: float, *qubits: int) -> "Circuit":
        return self.append("Z_ERROR", qubits, p)

    def depolarize1(self, p: float, *qubits: int) -> "Circuit":
        return self.append("DEPOLARIZE1", qubits, p)

    def depolarize2(self, p: float, *qubits: int) -> "Circuit":
        return self.append("DEPOLARIZE2", qubits, p)

    def detector(self, *lookbacks: int) -> "Circuit":
        return self.append("DETECTOR", [RecTarget(k) for k in lookbacks])

    def observable_include(self, index: int, *lookbacks: int) -> "Circuit":
        return self.append(
            "OBSERVABLE_INCLUDE", [RecTarget(k) for k in lookbacks], float(index)
        )

    def tick(self) -> "Circuit":
        return self.append("TICK")

    # -- traversal and statistics ------------------------------------------

    def flattened(self) -> Iterator[Instruction]:
        """Yield instructions in execution order with REPEATs expanded."""
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                for _ in range(entry.count):
                    yield from entry.body.flattened()
            else:
                yield entry

    @property
    def n_qubits(self) -> int:
        """1 + highest qubit index mentioned anywhere (0 when empty)."""
        highest = -1
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                highest = max(highest, entry.body.n_qubits - 1)
            else:
                highest = max(highest, _highest_qubit(entry.targets))
        return highest + 1

    @property
    def num_measurements(self) -> int:
        """Total measurement-record bits produced by one execution."""
        total = 0
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                total += entry.count * entry.body.num_measurements
            elif entry.gate.produces_record:
                total += len(entry.targets)
        return total

    @property
    def num_detectors(self) -> int:
        total = 0
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                total += entry.count * entry.body.num_detectors
            elif entry.name == "DETECTOR":
                total += 1
        return total

    @property
    def num_observables(self) -> int:
        highest = -1
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                highest = max(highest, entry.body.num_observables - 1)
            elif entry.name == "OBSERVABLE_INCLUDE":
                highest = max(highest, int(entry.args[0]))
        return highest + 1

    def count_operations(self) -> dict[str, int]:
        """Instruction applications by kind (gates count per target pair)."""
        counts = {"gates": 0, "measurements": 0, "noise_sites": 0, "resets": 0}
        for instruction in self.flattened():
            gate = instruction.gate
            arity = max(gate.targets_per_op, 1)
            n_ops = len(instruction.targets) // arity if arity else 1
            if gate.is_unitary:
                counts["gates"] += n_ops
            elif gate.kind in ("measure", "measure_reset"):
                counts["measurements"] += len(instruction.targets)
                if gate.kind == "measure_reset":
                    counts["resets"] += len(instruction.targets)
            elif gate.kind == "reset":
                counts["resets"] += len(instruction.targets)
            elif gate.kind == "noise":
                counts["noise_sites"] += n_ops
        return counts

    # -- compilation --------------------------------------------------------

    def compile(
        self,
        *,
        sampler: str = "symbolic",
        decoder: str = "compiled-matching",
    ) -> "CompiledCircuit":
        """Bind this circuit to a sampler backend and a decoder, once.

        Returns a :class:`~repro.study.CompiledCircuit`: one handle
        whose backend sampler, detector error model and compiled decoder
        are built lazily on first use and memoized through the engine's
        fingerprint-keyed cache.  ``sampler`` is any registered
        :mod:`repro.backends` name, ``decoder`` any registered
        :mod:`repro.decoders` name (or ``"none"``)::

            compiled = circuit.compile(sampler="frame")
            detectors, observables = compiled.detect(100_000, seed_or_rng=0)
            rate = compiled.logical_error_rate(100_000, seed=0)

        Do not mutate the circuit after compiling it (identity is
        fingerprint-cached).
        """
        from repro.study import CompiledCircuit

        return CompiledCircuit(self, sampler=sampler, decoder=decoder)

    # -- identity -----------------------------------------------------------

    _COSMETIC = frozenset({"TICK", "QUBIT_COORDS", "SHIFT_COORDS"})

    def canonical_text(self) -> str:
        """Canonical serialization: the flattened execution stream.

        REPEAT blocks are expanded and purely cosmetic annotations (TICK,
        QUBIT_COORDS, SHIFT_COORDS — none of which carry simulation
        semantics) are dropped, so two circuits with the same canonical
        text are consumed identically by every simulator in this package.
        Instruction grouping is preserved: ``H 0 1`` and ``H 0`` + ``H 1``
        serialize differently (they interleave RNG streams differently).
        """
        return "\n".join(
            str(instruction)
            for instruction in self.flattened()
            if instruction.name not in self._COSMETIC
        )

    def fingerprint(self) -> str:
        """Stable content hash of :meth:`canonical_text` (sha256 hex).

        Circuits that flatten to the same execution stream — e.g. a
        ``REPEAT 3 {...}`` block versus its unrolled form, or a parsed
        round-trip of a builder-constructed circuit — share a
        fingerprint; any differing gate, target, argument or ordering
        changes it.  The engine keys its sampler cache and result store
        on this value.
        """
        import hashlib

        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    # -- formatting ---------------------------------------------------------

    def to_text(self, indent: str = "") -> str:
        """Serialize back to the text format (round-trips with the parser)."""
        lines: list[str] = []
        for entry in self.entries:
            if isinstance(entry, RepeatBlock):
                lines.append(f"{indent}REPEAT {entry.count} {{")
                lines.append(entry.body.to_text(indent + "    "))
                lines.append(f"{indent}}}")
            else:
                lines.append(f"{indent}{entry}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        stats = self.count_operations()
        return (
            f"Circuit(n_qubits={self.n_qubits}, gates={stats['gates']}, "
            f"measurements={stats['measurements']}, "
            f"noise_sites={stats['noise_sites']})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.to_text() == other.to_text()

    def __len__(self) -> int:
        return len(self.entries)


def _highest_qubit(targets: tuple[Target, ...]) -> int:
    """Highest qubit index among ``targets`` (-1 if none).  Qubit-index
    targets, the common case, take one C-level ``max``; ``rec[-k]``
    targets name no qubit and Pauli targets count their qubit."""
    if targets and type(targets[0]) is int:
        try:
            return max(targets)
        except TypeError:  # a rec[-k] or Pauli target further on
            pass
    return max(
        (t.qubit if isinstance(t, PauliTarget) else t
         for t in targets if not isinstance(t, RecTarget)),
        default=-1,
    )
