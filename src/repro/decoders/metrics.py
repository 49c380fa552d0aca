"""End-to-end logical-error-rate estimation: sample, decode, score.

:func:`count_chunk_errors` is the one scoring step every caller —
the engine's decode batches, and through :func:`count_logical_errors`
``CompiledCircuit.logical_error_rate`` and :func:`logical_error_rate` —
runs on packed samples.

Also the statistics used by the collection engine's aggregation:
:func:`wilson_interval` (score confidence interval on a binomial
proportion — well-behaved at zero counts, unlike the normal
approximation) and :func:`shots_per_error` (the quantity that sets how
long a Monte-Carlo run must be to resolve a rate).
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuit.circuit import Circuit
from repro.core import compile_sampler
from repro.gf2 import bitops
from repro.rng import as_generator


def wilson_interval(
    errors: int, shots: int, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for an observed ``errors / shots`` proportion.

    Returns ``(low, high)``; ``z`` is the normal quantile (1.96 for the
    conventional 95% interval).  With zero shots the proportion is
    unconstrained and the full ``(0, 1)`` interval is returned.
    """
    if errors < 0 or shots < 0 or errors > shots:
        raise ValueError(f"need 0 <= errors <= shots, got {errors}/{shots}")
    if shots == 0:
        return (0.0, 1.0)
    p_hat = errors / shots
    z2 = z * z
    denominator = 1.0 + z2 / shots
    center = (p_hat + z2 / (2 * shots)) / denominator
    half_width = (
        z
        * math.sqrt(p_hat * (1.0 - p_hat) / shots + z2 / (4.0 * shots * shots))
        / denominator
    )
    # At the extremes the bound is exactly the point estimate; clamp the
    # floating-point residue (center - half_width ~ 1e-19, not 0).
    low = 0.0 if errors == 0 else max(0.0, center - half_width)
    high = 1.0 if errors == shots else min(1.0, center + half_width)
    return (low, high)


def shots_per_error(errors: int, shots: int) -> float:
    """Average shots consumed per observed logical error.

    ``inf`` when no errors have been seen yet — the run has not resolved
    the rate, which is exactly the signal the engine's early-stopping
    logic needs.
    """
    if shots < 0 or errors < 0:
        raise ValueError("errors and shots must be non-negative")
    if errors == 0:
        return math.inf
    return shots / errors


def count_logical_errors(decoder, detectors, observables) -> int:
    """Shots whose decoded prediction misses the observable flips.

    ``detectors`` and ``observables`` are packed uint64 rows (the
    ``sample_detectors_packed`` wire format), and a shot fails when its
    prediction row differs from its observable row.  ``decoder=None``
    skips decoding: any raw observable flip counts as an error (the
    engine's ``none`` decoder).  Equal to the unpacked count
    ``(decode_batch(det) != obs).any(axis=1).sum()``, bit for bit.
    :func:`count_chunk_errors` on one chunk.
    """
    return count_chunk_errors(decoder, [(detectors, observables)])[0]


def count_chunk_errors(decoder, chunks) -> list[int]:
    """:func:`count_logical_errors` of each ``(detectors, observables)``
    chunk, with every chunk decoded by one
    ``decoder.decode_chunks_packed`` call (the engine's decode batch).
    Each count is the chunk's own: decoding chunks together predicts
    what decoding each alone does."""
    if decoder is None:
        return [
            int(bitops.nonzero_rows_packed(observables).size)
            for _, observables in chunks
        ]
    predictions = decoder.decode_chunks_packed(
        [detectors for detectors, _ in chunks]
    )
    return [
        int(np.count_nonzero(bitops.xor_rows_any(predicted, observables)))
        for predicted, (_, observables) in zip(predictions, chunks)
    ]


def logical_error_rate(
    circuit: Circuit,
    decoder,
    shots: int,
    seed_or_rng: int | np.random.Generator | None = None,
) -> float:
    """Fraction of shots where the decoder's predicted observable flips
    disagree with the true ones.

    Uses the compiled symbolic sampler, so the circuit is analyzed once
    regardless of ``shots`` — exactly the workflow the paper's
    introduction describes for evaluating fault-tolerant gadgets.
    ``seed_or_rng`` may be an int seed, a Generator, or ``None``.
    """
    rng = as_generator(seed_or_rng)
    sampler = compile_sampler(circuit)
    detectors, observables = sampler.sample_detectors_packed(shots, rng)
    return count_logical_errors(decoder, detectors, observables) / shots
