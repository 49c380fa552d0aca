"""Algebraic-normal-form gate kernels for word-parallel tableau updates.

A conjugation table maps input bits ``(x, z)`` (or ``(x1, z1, x2, z2)``)
to output bits plus a sign flip.  Each output bit is a boolean function
of the inputs; its ANF — XOR of AND-monomials — evaluates *word
parallel*: with inputs as packed uint64 vectors over 64 tableau rows,
one monomial is a few ANDs and the function a few XORs, updating 64 rows
per word op.  This is how SIMD tableau simulators (Stim, SymPhase.jl)
implement gates; here it is derived automatically from the tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.gates.tables import conjugation_table


def moebius_transform(values: np.ndarray) -> np.ndarray:
    """Truth table (indexed by input bits) -> ANF monomial coefficients.

    ``values[i]`` is the function value where input bit ``j`` of ``i``
    is the ``j``-th input variable; the returned ``coeffs[m]`` is the
    coefficient of the monomial multiplying exactly the variables in the
    bit-set ``m``.
    """
    coeffs = np.asarray(values, dtype=np.uint8).copy()
    n = coeffs.size
    if n & (n - 1):
        raise ValueError("truth table length must be a power of two")
    step = 1
    while step < n:
        for start in range(0, n, 2 * step):
            coeffs[start + step: start + 2 * step] ^= coeffs[start: start + step]
        step *= 2
    return coeffs


@dataclass(frozen=True)
class GateKernel:
    """Word-parallel update rule for one gate.

    ``monomials[k]`` lists, for output ``k``, the input-variable index
    tuples whose AND-monomials XOR into that output.  Outputs are ordered
    ``(x', z', flip)`` for 1-qubit gates and
    ``(x1', z1', x2', z2', flip)`` for 2-qubit gates; input variables are
    ordered the same way (x₁ is variable 0).
    """

    n_qubits: int
    monomials: tuple[tuple[tuple[int, ...], ...], ...]

    def evaluate(self, inputs: list[np.ndarray]) -> list[np.ndarray]:
        """Apply the kernel to input bit arrays (packed words or 0/1
        bytes, any shape); returns output arrays of the same dtype."""
        outputs = []
        for terms in self.monomials:
            acc = np.zeros_like(inputs[0])
            for term in terms:
                prod = inputs[term[0]]
                for var in term[1:]:
                    prod = prod & inputs[var]
                acc ^= prod
            outputs.append(acc)
        return outputs


@lru_cache(maxsize=None)
def gate_kernel(name: str) -> GateKernel:
    """Derive (and cache) the ANF kernel of a named unitary gate."""
    table = conjugation_table(name)
    n_vars = 2 * table.n_qubits
    n_entries = 1 << n_vars

    # Truth tables per output, indexed with variable j at bit j.  The
    # conjugation table instead indexes with x1 at the HIGH bit, so
    # remap: table index has variable 0 (x1) at bit n_vars-1.
    truth = np.zeros((n_vars + 1, n_entries), dtype=np.uint8)
    for i in range(n_entries):
        table_index = 0
        for var in range(n_vars):
            bit = (i >> var) & 1
            table_index |= bit << (n_vars - 1 - var)
        truth[: n_vars, i] = table.outputs[table_index]
        truth[n_vars, i] = table.flips[table_index]

    monomials = []
    for output in range(n_vars + 1):
        coeffs = moebius_transform(truth[output])
        terms = []
        for monomial in range(n_entries):
            if coeffs[monomial]:
                term = tuple(
                    var for var in range(n_vars) if (monomial >> var) & 1
                )
                terms.append(term)
        monomials.append(tuple(terms))
    if any(() in terms for terms in monomials):
        # A Clifford maps I to +I, so no output has a constant term, and
        # evaluate() relies on that.
        raise AssertionError(f"{name} conjugation table has a constant term")
    return GateKernel(table.n_qubits, tuple(monomials))
