"""Instruction and target types for the circuit IR."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from repro.gates.database import GateData, get_gate


@dataclass(frozen=True)
class RecTarget:
    """A measurement-record lookback target, ``rec[-k]`` (offset < 0)."""

    offset: int

    def __post_init__(self) -> None:
        if self.offset >= 0:
            raise ValueError("record lookback offsets must be negative")

    def __str__(self) -> str:
        return f"rec[{self.offset}]"


@dataclass(frozen=True)
class PauliTarget:
    """A Pauli-on-qubit target such as ``X3`` (used by CORRELATED_ERROR)."""

    pauli: str
    qubit: int

    def __post_init__(self) -> None:
        if self.pauli not in ("X", "Y", "Z"):
            raise ValueError(f"invalid Pauli target letter {self.pauli!r}")
        if self.qubit < 0:
            raise ValueError("qubit indices must be non-negative")

    def __str__(self) -> str:
        return f"{self.pauli}{self.qubit}"


Target = Union[int, RecTarget, PauliTarget]


def disjoint_runs(targets, arity: int = 1) -> list:
    """Split a flat target list into maximal runs with no repeated qubit.

    Gather-compute-scatter application is only equivalent to sequential
    per-target application when no qubit appears twice, so a repeated
    qubit starts a new run.  ``arity=2`` treats targets as (a, b) pairs
    and keeps pairs intact.  Runs are slices of ``targets`` (the list
    itself when no qubit repeats); an empty list has no runs.
    """
    if len(set(targets)) == len(targets):
        return [targets] if targets else []
    runs, seen, start = [], set(), 0
    for index in range(0, len(targets), arity):
        operation = targets[index:index + arity]
        if seen.intersection(operation):
            runs.append(targets[start:index])
            seen, start = set(), index
        seen.update(operation)
    runs.append(targets[start:])
    return runs


@dataclass(frozen=True)
class Instruction:
    """One instruction: canonical gate name, targets, float arguments."""

    name: str
    targets: tuple[Target, ...] = ()
    args: tuple[float, ...] = ()

    @property
    def gate(self) -> GateData:
        return get_gate(self.name)

    def validate(self) -> None:
        """Raise ValueError if targets/args are malformed for this gate."""
        gate = self.gate
        if not all(math.isfinite(a) for a in self.args):
            raise ValueError(
                f"{self.name} arguments must be finite, got {self.args}"
            )
        if gate.n_args >= 0 and len(self.args) != gate.n_args:
            raise ValueError(
                f"{self.name} expects {gate.n_args} argument(s), "
                f"got {len(self.args)}"
            )
        if gate.kind == "noise":
            if not 0.0 <= sum(self.args) <= 1.0 + 1e-12:
                raise ValueError(
                    f"{self.name} probabilities must lie in [0, 1] "
                    f"and sum to at most 1, got {self.args}"
                )
        if gate.name == "CORRELATED_ERROR":
            if not all(isinstance(t, PauliTarget) for t in self.targets):
                raise ValueError("CORRELATED_ERROR takes Pauli targets only")
            return
        if gate.name in ("DETECTOR", "OBSERVABLE_INCLUDE"):
            if not all(isinstance(t, RecTarget) for t in self.targets):
                raise ValueError(f"{gate.name} takes rec[-k] targets only")
            return
        if gate.name in ("QUBIT_COORDS", "SHIFT_COORDS", "TICK"):
            return
        if gate.targets_per_op == 2 and len(self.targets) % 2 != 0:
            raise ValueError(
                f"{self.name} is a two-qubit operation and needs an even "
                f"number of targets, got {len(self.targets)}"
            )
        if gate.targets_per_op == 2:
            feedback_ok = gate.name in ("CX", "CY", "CZ")
            for a, b in zip(self.targets[0::2], self.targets[1::2]):
                if isinstance(a, RecTarget):
                    # Classically-controlled Pauli: control is a recorded
                    # measurement bit (the paper's §6 conditional P^e).
                    if not feedback_ok:
                        raise ValueError(
                            f"{self.name} does not support rec[] controls"
                        )
                    if not isinstance(b, int) or b < 0:
                        raise ValueError(
                            "feedback target must be a qubit index"
                        )
                    continue
                if not isinstance(a, int) or not isinstance(b, int):
                    raise ValueError(f"{self.name} takes qubit targets only")
                if a < 0 or b < 0:
                    raise ValueError("qubit indices must be non-negative")
                if a == b:
                    raise ValueError(
                        f"{self.name} applied to a repeated qubit {a}"
                    )
            return
        if not all(isinstance(t, int) and t >= 0 for t in self.targets):
            raise ValueError(f"{self.name} takes qubit targets only")

    def __str__(self) -> str:
        parts = [self.name]
        if self.args:
            formatted = ", ".join(_format_float(a) for a in self.args)
            parts[0] += f"({formatted})"
        parts.extend(str(t) for t in self.targets)
        return " ".join(parts)


@dataclass(frozen=True)
class RepeatBlock:
    """``REPEAT count { body }`` — body is a Circuit (import-cycle-free)."""

    count: int
    body: "object"  # repro.circuit.circuit.Circuit

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("REPEAT count must be at least 1")


def _format_float(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)
