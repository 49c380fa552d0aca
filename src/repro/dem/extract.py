"""DEM extraction from the symbolic-phase sampler."""

from __future__ import annotations

import numpy as np

from repro.circuit.circuit import Circuit
from repro.core.compiled_sampler import CompiledSampler, compile_sampler
from repro.dem.model import DetectorErrorModel, ErrorMechanism
from repro.gf2 import bitops


def extract_dem(
    source: Circuit | CompiledSampler,
    min_probability: float = 0.0,
    merge: bool = True,
) -> DetectorErrorModel:
    """Build the detector error model of a noisy circuit.

    For every noise site and every non-identity joint pattern of its
    symbols, the mechanism's syndrome is the XOR of the pattern's symbol
    columns in the detector matrix — read directly off the compiled
    sampler, no simulation.  Patterns with probability at or
    below ``min_probability`` are dropped.

    Distinct fault patterns frequently share one (detectors,
    observables) signature — e.g. the X and Y legs of a depolarizing
    site, or a final-round data flip and the measurement flip it
    shadows.  With ``merge`` (the default) such duplicates are collapsed
    via :meth:`DetectorErrorModel.merged` so each signature carries its
    true combined flip probability; emitting them as independent entries
    would skew every downstream decoder's edge weights.  Pass
    ``merge=False`` for the raw per-pattern, per-noise-site view (one
    group per site; exact joint sampling).
    """
    if isinstance(source, Circuit):
        sampler = compile_sampler(source)
    else:
        sampler = source

    table = sampler.symbols
    width = sampler.width
    detector_bits = bitops.unpack_rows(sampler.detector_matrix, width)
    observable_bits = bitops.unpack_rows(sampler.observable_matrix, width)

    dem = DetectorErrorModel(sampler.n_detectors, sampler.n_observables)
    for offset, n_symbols, probabilities, kind in table.sites():
        if kind != "noise":
            continue
        mechanisms = []
        for pattern, probability in enumerate(probabilities):
            if pattern == 0 or probability <= min_probability:
                continue
            det = np.zeros(dem.n_detectors, dtype=np.uint8)
            obs = np.zeros(dem.n_observables, dtype=np.uint8)
            for j in range(n_symbols):
                if (pattern >> j) & 1:
                    det ^= detector_bits[:, offset + j]
                    obs ^= observable_bits[:, offset + j]
            mechanisms.append(
                ErrorMechanism(
                    probability=float(probability),
                    detectors=tuple(np.nonzero(det)[0].tolist()),
                    observables=tuple(np.nonzero(obs)[0].tolist()),
                )
            )
        if mechanisms:
            dem.add_group(mechanisms)
    return dem.merged() if merge else dem
