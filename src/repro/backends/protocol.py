"""The sampler backend protocol and capability metadata.

Every sampling engine in this package — the compiled frame program, the
interpreted frame baseline, the symbolic Eq. 4 sampler, the per-shot
tableau oracle — is exposed to the engine, experiments, CLI and
examples through one structural interface: ``compile(circuit)`` returns
a :class:`Sampler`, and a :class:`Sampler` answers ``sample`` and
``sample_detectors``.  Capability flags live in :class:`BackendInfo` so
callers can *ask* instead of hard-coding backend names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

import repro.obs as obs


@runtime_checkable
class Sampler(Protocol):
    """What every compiled sampler must answer.

    ``rng`` may be an int seed, a ``numpy.random.Generator``, or
    ``None`` (fresh OS entropy) at every entry point.
    """

    def sample(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Measurement records: uint8 array of shape (shots, n_m)."""
        ...

    def sample_detectors(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(detectors, observables) uint8 arrays of shape (shots, n)."""
        ...

    def sample_detectors_packed(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(detectors, observables) as packed uint64 matrices.

        The packed wire format: shot-major rows — shape
        ``(shots, words_for(n_detectors))`` and
        ``(shots, words_for(n_observables))`` — little-endian bit order
        within each uint64 word (bit ``i`` of a row is word ``i // 64``,
        position ``i % 64``), padding bits beyond the logical width all
        zero.  Must consume the RNG exactly like ``sample_detectors``,
        so the two views of one seed are bit-for-bit the same sample.
        """
        ...


def pack_detector_samples(
    sampler: Sampler, shots: int, rng: int | np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Generic pack-adapter: unpacked ``sample_detectors`` + row packing.

    Backends whose samplers do not natively work in the packed domain
    (the per-shot tableau oracle, the symbolic Eq. 4 sampler) implement
    ``sample_detectors_packed`` with this helper; it consumes the RNG
    identically to the unpacked call by construction.
    """
    from repro.gf2.bitops import pack_rows

    detectors, observables = sampler.sample_detectors(shots, rng)
    # The adapter's packing pass is pure overhead a packed-native
    # backend never pays — make it visible so profiles can say "this
    # backend is packing after the fact" instead of hiding it in
    # sample time.
    with obs.span("pack.adapter", shots=shots):
        packed = pack_rows(detectors), pack_rows(observables)
    if obs.is_metrics():
        obs.counter(
            "repro_pack_adapter_shots_total", pid=str(os.getpid())
        ).inc(shots)
    return packed


def packed_detector_samples(
    sampler: Sampler, shots: int, rng: int | np.random.Generator | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Packed samples from *any* sampler, old-protocol ones included.

    Calls ``sample_detectors_packed`` when the sampler answers it and
    falls back to the :func:`pack_detector_samples` adapter otherwise
    (identical RNG draws either way).  Every registered sampler answers
    the protocol method, and the engine and study layers call it
    directly; this wrapper stays because ``perfbench/traced.py``
    imports it.
    """
    native = getattr(sampler, "sample_detectors_packed", None)
    if native is not None:
        return native(shots, rng)
    return pack_detector_samples(sampler, shots, rng)


@dataclass(frozen=True)
class BackendInfo:
    """Static capability description of one sampler backend.

    ``rng_stream`` names the RNG consumption scheme: two backends with
    the same non-``None`` token draw from the generator in the same
    order and therefore produce **bitwise-identical** samples for the
    same seed (e.g. compiled and interpreted frame programs).  Distinct
    tokens mean only *distributional* agreement can be expected.  A
    change to a backend's consumption order gets a new token; the token
    is part of :meth:`repro.engine.Task.strong_id`, so a result store
    never mixes rows drawn by two schemes.

    ``per_shot_cost`` is ``"batch"`` when sampling is vectorized across
    shots and ``"shot"`` when every shot is a full circuit traversal
    (the tableau oracle).  ``oracle`` marks backends meant for
    validation rather than production collection sweeps.

    ``packed_native`` means ``sample_detectors_packed`` never
    materializes unpacked uint8 matrices (the frame backends derive
    detectors in the packed domain end to end); ``False`` means the
    generic :func:`pack_detector_samples` adapter packs an unpacked
    sample.  Either way the packed and unpacked views of one seed are
    bitwise the same sample.

    ``reads_pass`` means the compile reads Algorithm 1's symbolic pass
    (a :class:`~repro.core.compiled_sampler.CompiledSampler`): the
    ``symbolic`` sampler *is* that pass, and the frame samplers take
    their reference record from its constant column.  A caller that
    already holds the circuit's pass hands it to
    :meth:`~repro.backends.registry.Backend.compile` as ``symbolic`` (the
    engine's cache does), so the circuit is traversed once whatever the
    backend.  Without one each backend does its own analysis: the
    ``symbolic`` one runs the pass, the frame ones a tableau reference
    run.
    """

    name: str
    description: str
    compile_once: bool = True
    per_shot_cost: str = "batch"
    rng_stream: str | None = None
    oracle: bool = False
    packed_native: bool = False
    reads_pass: bool = False
