"""The paper's contribution: phase symbolization (Algorithm 1).

:class:`SymPhaseSimulator` traverses a noisy stabilizer circuit **once**,
accumulating every potential Pauli fault and every random-measurement
coin as a bit-symbol in the phases of the stabilizer tableau.  Each
measurement outcome comes out as a bit-vector over those symbols;
:class:`CompiledSampler` then draws any number of samples as a GF(2)
matrix product (Eq. 4) without touching the circuit again.
"""

from repro.core.compiled_sampler import CompiledSampler, compile_sampler
from repro.core.expression import SymbolicExpression
from repro.core.phase_matrix import PhaseMatrix
from repro.core.simulator import SymPhaseSimulator
from repro.core.symbols import SymbolRecord, SymbolTable
from repro.core.verification import (
    concrete_replay,
    random_assignment,
    substituted_record,
)

__all__ = [
    "concrete_replay",
    "random_assignment",
    "substituted_record",
    "CompiledSampler",
    "PhaseMatrix",
    "SymbolicExpression",
    "SymbolRecord",
    "SymbolTable",
    "SymPhaseSimulator",
    "compile_sampler",
]
