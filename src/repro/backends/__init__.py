"""Unified sampler backend protocol + registry.

Compile once, sample anywhere: every backend exposes
``compile(circuit) -> Sampler`` and every sampler answers
``sample(shots, rng)`` and ``sample_detectors(shots, rng)``.  Built-in
backends:

``frame``
    Compiled vectorized frame program
    (:class:`~repro.frame.program.FrameProgram`): one lowering pass,
    then batch propagation with no per-qubit Python dispatch.  The
    fastest general-purpose backend for QEC-scale circuits.
``frame-interp``
    The per-instruction interpreted frame baseline.  Bitwise-identical
    samples to ``frame`` for the same seed (shared ``rng_stream``);
    kept for benchmarking and differential testing.
``symbolic`` (alias ``symphase``)
    The paper's Algorithm 1: phases symbolized once, sampling is a
    GF(2) matrix product (Eq. 4) that never re-traverses the circuit.
    Sampling cost is independent of gate count — it wins on deep
    circuits sampled many times.
``tableau``
    Per-shot Aaronson–Gottesman Monte Carlo.  Exact and
    assumption-free but one full traversal per shot; an oracle for
    validation, not for sweeps.

Selecting by name::

    from repro.backends import compile_backend

    sampler = compile_backend(circuit, "frame")
    detectors, observables = sampler.sample_detectors(10_000, rng)
"""

from repro.backends.protocol import (
    BackendInfo,
    Sampler,
    pack_detector_samples,
    packed_detector_samples,
)
from repro.backends.registry import (
    Backend,
    available_backends,
    backend_choices,
    canonical_name,
    compile_backend,
    get_backend,
    register_backend,
)

__all__ = [
    "Backend",
    "BackendInfo",
    "Sampler",
    "available_backends",
    "backend_choices",
    "canonical_name",
    "compile_backend",
    "get_backend",
    "pack_detector_samples",
    "packed_detector_samples",
    "register_backend",
]


def _frame(circuit, symbolic, mode):
    from repro.frame import FrameSimulator

    reference = None if symbolic is None else symbolic.reference()
    return FrameSimulator(circuit, reference=reference, mode=mode)


def _compile_frame(circuit, symbolic):
    return _frame(circuit, symbolic, "compiled")


def _compile_frame_interp(circuit, symbolic):
    return _frame(circuit, symbolic, "interpreted")


def _compile_symbolic(circuit, symbolic):
    from repro.core import compile_sampler

    return compile_sampler(circuit) if symbolic is None else symbolic


def _compile_tableau(circuit):
    from repro.tableau import TableauSampler

    return TableauSampler(circuit)


register_backend(
    BackendInfo(
        name="frame",
        description=(
            "compile-once vectorized Pauli-frame program (fused op list, "
            "packed record buffer, no per-qubit dispatch)"
        ),
        rng_stream="frame-hits-v2",
        packed_native=True,
        reads_pass=True,
    ),
    _compile_frame,
)

register_backend(
    BackendInfo(
        name="frame-interp",
        description=(
            "per-instruction interpreted Pauli frames (pre-compilation "
            "baseline; bitwise-identical samples to 'frame')"
        ),
        rng_stream="frame-hits-v2",
        compile_once=False,
        packed_native=True,
        reads_pass=True,
    ),
    _compile_frame_interp,
)

register_backend(
    BackendInfo(
        name="symbolic",
        description=(
            "phase symbolization + Eq. 4 GF(2) matmul sampling (the "
            "paper's Algorithm 1; cost independent of gate count)"
        ),
        rng_stream="symbolic-hits-v2",
        reads_pass=True,
    ),
    _compile_symbolic,
    aliases=("symphase",),
)

register_backend(
    BackendInfo(
        name="tableau",
        description=(
            "per-shot Aaronson-Gottesman Monte Carlo (exact oracle; one "
            "full traversal per shot)"
        ),
        rng_stream="tableau",
        compile_once=False,
        per_shot_cost="shot",
        oracle=True,
    ),
    _compile_tableau,
)
