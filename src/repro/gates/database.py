"""Registry of all instruction names understood by the circuit parser.

Unitary gates carry their conjugation table; measurement / reset / noise
/ annotation instructions carry structural metadata the simulators need
(arity of qubit targets, number of probability arguments, measurement
basis, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.gates.tables import ConjugationTable, conjugation_table
from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q


@dataclass(frozen=True)
class GateData:
    """Static description of one instruction type."""

    name: str
    kind: str  # "unitary" | "measure" | "reset" | "measure_reset" | "noise" | "annotation"
    targets_per_op: int = 1  # qubits consumed per application (0 = free-form)
    basis: str = "Z"  # measurement/reset basis
    n_args: int = 0  # required parens arguments (-1 = variable)
    produces_record: bool = False

    @property
    def is_unitary(self) -> bool:
        return self.kind == "unitary"

    @property
    def table(self) -> ConjugationTable:
        if not self.is_unitary:
            raise ValueError(f"{self.name} is not a unitary gate")
        return conjugation_table(self.name)


def _build_registry() -> dict[str, GateData]:
    registry: dict[str, GateData] = {}
    for name in UNITARIES_1Q:
        registry[name] = GateData(name, "unitary", targets_per_op=1)
    for name in UNITARIES_2Q:
        registry[name] = GateData(name, "unitary", targets_per_op=2)

    for basis in ("Z", "X", "Y"):
        suffix = "" if basis == "Z" else basis
        registry[f"M{suffix}"] = GateData(
            f"M{suffix}", "measure", basis=basis, produces_record=True
        )
        registry[f"R{suffix}"] = GateData(f"R{suffix}", "reset", basis=basis)
        registry[f"MR{suffix}"] = GateData(
            f"MR{suffix}", "measure_reset", basis=basis, produces_record=True
        )

    registry["X_ERROR"] = GateData("X_ERROR", "noise", n_args=1)
    registry["Y_ERROR"] = GateData("Y_ERROR", "noise", n_args=1)
    registry["Z_ERROR"] = GateData("Z_ERROR", "noise", n_args=1)
    registry["DEPOLARIZE1"] = GateData("DEPOLARIZE1", "noise", n_args=1)
    registry["DEPOLARIZE2"] = GateData(
        "DEPOLARIZE2", "noise", targets_per_op=2, n_args=1
    )
    registry["PAULI_CHANNEL_1"] = GateData("PAULI_CHANNEL_1", "noise", n_args=3)
    registry["PAULI_CHANNEL_2"] = GateData(
        "PAULI_CHANNEL_2", "noise", targets_per_op=2, n_args=15
    )
    registry["CORRELATED_ERROR"] = GateData(
        "CORRELATED_ERROR", "noise", targets_per_op=0, n_args=1
    )

    registry["TICK"] = GateData("TICK", "annotation", targets_per_op=0)
    registry["DETECTOR"] = GateData("DETECTOR", "annotation", targets_per_op=0, n_args=-1)
    registry["OBSERVABLE_INCLUDE"] = GateData(
        "OBSERVABLE_INCLUDE", "annotation", targets_per_op=0, n_args=1
    )
    registry["QUBIT_COORDS"] = GateData(
        "QUBIT_COORDS", "annotation", targets_per_op=0, n_args=-1
    )
    registry["SHIFT_COORDS"] = GateData(
        "SHIFT_COORDS", "annotation", targets_per_op=0, n_args=-1
    )
    return registry


GATES: dict[str, GateData] = _build_registry()

GATE_ALIASES: dict[str, str] = {
    "CNOT": "CX",
    "ZCX": "CX",
    "ZCY": "CY",
    "ZCZ": "CZ",
    "MZ": "M",
    "RZ": "R",
    "MRZ": "MR",
    "E": "CORRELATED_ERROR",
}

#: The gate that maps a measurement/reset basis onto Z (``X`` via ``H``,
#: ``Y`` via ``H_YZ``; ``Z`` needs none), so simulators measure in Z only.
BASIS_CONJUGATION: dict[str, str] = {"X": "H", "Y": "H_YZ"}

#: The Pauli a classically controlled ``CX``/``CY``/``CZ`` applies.
FEEDBACK_LETTER: dict[str, str] = {"CX": "X", "CY": "Y", "CZ": "Z"}


@lru_cache(maxsize=None)
def get_gate(name: str) -> GateData:
    """Look up an instruction by name or alias (case-insensitive)."""
    canonical = name.upper()
    canonical = GATE_ALIASES.get(canonical, canonical)
    if canonical not in GATES:
        raise KeyError(f"unknown instruction {name!r}")
    return GATES[canonical]
