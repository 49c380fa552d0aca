"""Aaronson–Gottesman stabilizer tableau (concrete phases).

:class:`Tableau` implements the improved tableau algorithm of
Aaronson & Gottesman (2004): n destabilizer rows + n stabilizer rows,
O(n) Clifford gates and O(n^2) computational-basis measurements.
:class:`TableauSimulator` executes whole circuits on it, sampling noise
concretely (one shot per run) — the classic way to sample, and the
source of the *reference sample* for a standalone Pauli-frame simulator
(the engine's cache reads the same record off Algorithm 1's constant
column instead).
"""

from repro.tableau.clifford_map import CliffordMap
from repro.tableau.sampler import TableauSampler
from repro.tableau.simulator import TableauSimulator, reference_sample
from repro.tableau.tableau import Tableau

__all__ = [
    "CliffordMap",
    "Tableau",
    "TableauSampler",
    "TableauSimulator",
    "reference_sample",
]
