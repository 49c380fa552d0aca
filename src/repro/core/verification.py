"""Concrete replay: the executable form of the paper's central claim.

Phase symbolization asserts that for *any* assignment of bit values to
the symbols, substituting into the symbolic measurement expressions
yields exactly the record a concrete simulation would produce when

* every noise site applies the Pauli pattern selected by its symbols, and
* every random measurement returns its symbol's value.

:func:`concrete_replay` performs that concrete simulation (single shot,
A-G tableau) and :func:`substituted_record` performs the substitution;
equality of the two, for all assignments, is the linearity property the
test suite checks exhaustively on random circuits.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.core.simulator import SymPhaseSimulator
from repro.gf2 import bitops
from repro.noise.channels import noise_channel
from repro.tableau.simulator import TableauSimulator


def substituted_record(
    simulator: SymPhaseSimulator, assignment: np.ndarray
) -> np.ndarray:
    """Evaluate every measurement expression at a symbol assignment.

    ``assignment`` is a uint8 vector of length ``simulator.symbols.width``
    whose entry 0 (the constant) must be 1.
    """
    assignment = np.asarray(assignment, dtype=np.uint8) & 1
    if assignment.size != simulator.symbols.width:
        raise ValueError(
            f"assignment length {assignment.size} != width "
            f"{simulator.symbols.width}"
        )
    if assignment[0] != 1:
        raise ValueError("assignment[0] is the constant symbol and must be 1")
    out = np.zeros(simulator.num_measurements, dtype=np.uint8)
    for k, vector in enumerate(simulator.measurements):
        bits = bitops.unpack_bits(vector, min(assignment.size, vector.size * 64))
        out[k] = int(bits @ assignment[: bits.size]) & 1
    return out


def concrete_replay(
    circuit: Circuit,
    simulator: SymPhaseSimulator,
    assignment: np.ndarray,
) -> np.ndarray:
    """Single-shot concrete simulation pinned to a symbol assignment.

    Fault patterns and random-measurement outcomes are read from
    ``assignment`` in the same order Algorithm 1 allocated the symbols
    (valid because A-G's control flow is phase-independent — Fact 2).
    """
    assignment = np.asarray(assignment, dtype=np.uint8) & 1
    sites = simulator.symbols.sites()

    def next_site(kind: str) -> int:
        offset, _, _, site_kind = next(sites)
        if site_kind != kind:
            raise AssertionError(
                "symbol allocation order diverged between symbolic and "
                "concrete execution"
            )
        return offset

    def random_outcome() -> int:
        return int(assignment[next_site("measurement")])

    concrete = TableauSimulator(max(circuit.n_qubits, 1))
    for instruction in circuit.flattened():
        gate = instruction.gate
        if gate.kind == "noise":
            channel = noise_channel(instruction)
            for site in range(channel.n_sites):
                offset = next_site("noise")
                pattern = 0
                for j in range(len(channel.columns)):
                    pattern |= int(assignment[offset + j]) << j
                concrete.apply_fault_pattern(channel.actions(site), pattern)
        else:
            concrete.do_instruction(instruction, force_random_outcomes=random_outcome)
    return np.array(concrete.record, dtype=np.uint8)


def random_assignment(
    simulator: SymPhaseSimulator, rng: np.random.Generator
) -> np.ndarray:
    """A uniformly random symbol assignment (constant bit forced to 1)."""
    assignment = rng.integers(
        0, 2, size=simulator.symbols.width, dtype=np.uint8
    )
    assignment[0] = 1
    return assignment
