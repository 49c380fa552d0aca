"""SymPhase reproduction: phase symbolization for fast stabilizer sampling.

The front door is :mod:`repro.study` — one fluent, compile-once path
from circuit to threshold curve:

- :meth:`repro.circuit.Circuit.compile` — bind a circuit to a sampler
  backend and a decoder; the returned
  :class:`~repro.study.CompiledCircuit` handle answers ``sample``,
  ``detect``, ``decode`` and ``logical_error_rate``.
- :class:`repro.study.Sweep` — a declarative (code x distance x noise)
  task grid; :meth:`~repro.study.Sweep.collect` runs it through the
  parallel engine under an :class:`~repro.study.ExecutionOptions`
  policy and returns a typed :class:`~repro.study.SweepResult`.

The layers underneath remain public for direct use:

- :class:`repro.circuit.Circuit` — circuit IR + Stim-dialect parser.
- :class:`repro.core.SymPhaseSimulator` — Algorithm 1 (symbolic phases).
- :class:`repro.core.CompiledSampler` — Eq. 4 matmul sampler.
- :class:`repro.frame.FrameSimulator` — Pauli-frame baseline (Stim's
  sampling algorithm), the comparison target of the paper's evaluation.
- :func:`repro.backends.compile_backend` — one protocol over every
  sampler backend, selected by registry name.
- :class:`repro.tableau.Tableau` — Aaronson–Gottesman tableau.
- :func:`repro.engine.collect` / :class:`repro.engine.Task` — the
  collection engine machinery (``python -m repro collect``).
"""

from repro.backends import available_backends, compile_backend
from repro.circuit import Circuit
from repro.core import CompiledSampler, SymPhaseSimulator, compile_sampler
from repro.frame import FrameSimulator
from repro.rng import as_generator
from repro.study import (
    CompiledCircuit,
    ExecutionOptions,
    Sweep,
    SweepResult,
)
from repro.tableau import Tableau

__version__ = "1.3.0"

__all__ = [
    "Circuit",
    "CompiledCircuit",
    "CompiledSampler",
    "ExecutionOptions",
    "FrameSimulator",
    "Sweep",
    "SweepResult",
    "SymPhaseSimulator",
    "Tableau",
    "as_generator",
    "available_backends",
    "compile_backend",
    "compile_sampler",
    "__version__",
]
