"""DEM extraction from the symbolic-phase sampler, as one array pipeline.

A noise symbol's column in the detector and observable matrices is the
syndrome of that one fault, so every mechanism's signature is an XOR of
symbol rows of the transposed matrices, and merging equal signatures is
a sort.  The pipeline never builds a per-site or per-pattern object:

1. transpose the packed detector and observable matrices once into
   symbol-major rows (one signature row per symbol);
2. per noise record, XOR the pattern combinations of all its sites at
   once (patterns at or below ``min_probability`` dropped);
3. number the distinct signatures by first occurrence with one
   ``np.unique``;
4. merge: sum within a site in pattern order, then XOR-convolve across
   sites in site order, one vector step per occurrence rank;
5. hand the rows over as the model's
   :class:`~repro.dem.model.DemArrays` (the distinct signature rows and
   merged probabilities, or with ``merge=False`` the raw rows and site
   sizes).  No :class:`~repro.dem.model.ErrorMechanism` is built here:
   decoders read the arrays, and the model builds its ``mechanisms``
   and ``groups`` lists the first time someone reads them.

The floats and the order equal :meth:`DetectorErrorModel.merged` on the
raw per-pattern model bit for bit, because every sum and every
convolution step runs in the same order on the same operands.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.circuit.circuit import Circuit
from repro.core.compiled_sampler import CompiledSampler, compile_sampler
from repro.dem.model import DemArrays, DetectorErrorModel
from repro.gf2 import bitops
from repro.gf2.transpose import transpose_bitmatrix

#: Below this many signatures still folding, the cross-site combine
#: leaves numpy for a scalar loop: the long runs (the empty signature has
#: ~750 site sums at d = 7) would otherwise cost one vector step per
#: sum.  Any value from 4 to 64 times the same on surface d = 5..9.
_VECTOR_MIN_LIVE = 32


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
    so each signature carries its true combined flip probability, as
    :meth:`DetectorErrorModel.merged` would collapse them; emitting them
    as independent entries would skew every downstream decoder's edge
    weights.  Pass ``merge=False`` for the raw per-pattern, per-noise-site
    view (one group per site; exact joint sampling).

    A circuit given as a :class:`Circuit` is compiled first (Algorithm
    1's Initialization, outside the ``dem.extract`` span).
    """
    sampler = compile_sampler(source) if isinstance(source, Circuit) else source
    with obs.span("dem.extract"):
        return _extract(sampler, min_probability, merge)


def _extract(
    sampler: CompiledSampler, min_probability: float, merge: bool
) -> DetectorErrorModel:
    n_detectors, n_observables = sampler.n_detectors, sampler.n_observables
    rows, probabilities, group_sizes = _raw_signatures(sampler, min_probability)
    if merge and rows.shape[0]:
        signature, rows = _first_occurrence_ids(rows)
        site = np.repeat(np.arange(group_sizes.size), group_sizes)
        probabilities = _merge(site, signature, probabilities, rows.shape[0])
        group_sizes = np.ones(rows.shape[0], dtype=np.int64)
    split = bitops.words_for(n_detectors)
    arrays = DemArrays(
        rows[:, :split],
        rows[:, split : split + bitops.words_for(n_observables)],
        probabilities,
        group_sizes,
    )
    return DetectorErrorModel.from_arrays(n_detectors, n_observables, arrays)


def _raw_signatures(
    sampler: CompiledSampler, min_probability: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every kept (site, pattern) mechanism, in site then pattern order.

    Returns ``(signatures, probabilities, site_sizes)``: one packed
    detector-then-observable row per mechanism, its probability, and
    the number of kept patterns of every site that keeps any.
    """
    width = sampler.width
    # Symbol-major packed rows: row s is symbol s's detector words
    # followed by its observable words.
    symbol_rows = np.concatenate(
        [
            transpose_bitmatrix(matrix, matrix.shape[0], width)
            for matrix in (sampler.detector_matrix, sampler.observable_matrix)
        ],
        axis=1,
    )
    if symbol_rows.shape[1] == 0:
        # No detectors and no observables: one zero word keeps every
        # (empty) signature a comparable row.
        symbol_rows = np.zeros((width, 1), dtype=np.uint64)
    n_words = symbol_rows.shape[1]
    signatures, probabilities, site_sizes = [], [], []
    for record in sampler.symbols.records:
        if record.kind != "noise":
            continue
        weights = np.asarray(record.probabilities, dtype=np.float64)
        kept = np.flatnonzero(weights > min_probability)
        kept = kept[kept != 0]
        if kept.size == 0:
            continue
        k = record.symbols_per_site
        columns = symbol_rows[record.first : record.stop].reshape(
            record.n_sites, k, n_words
        )
        combos = bitops.pattern_combos(columns)
        signatures.append(combos[:, kept].reshape(-1, n_words))
        probabilities.append(np.tile(weights[kept], record.n_sites))
        site_sizes.append(np.full(record.n_sites, kept.size, dtype=np.int64))
    if not signatures:
        return (
            np.zeros((0, n_words), dtype=np.uint64),
            np.zeros(0, dtype=np.float64),
            np.zeros(0, dtype=np.int64),
        )
    return (
        np.concatenate(signatures),
        np.concatenate(probabilities),
        np.concatenate(site_sizes),
    )


def _first_occurrence_ids(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of ``raw`` by first occurrence.

    Returns ``(ids, distinct)``: every row's id and the distinct rows in
    id order — the insertion order of a dict keyed by signature.
    """
    row_bytes = np.dtype((np.void, raw.shape[1] * 8))
    voided = np.ascontiguousarray(raw).view(row_bytes)[:, 0]
    _, first, inverse = np.unique(voided, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[np.asarray(inverse).reshape(-1)], raw[first[order]]


def _merge(
    site: np.ndarray,
    signature: np.ndarray,
    probabilities: np.ndarray,
    n_signatures: int,
) -> np.ndarray:
    """Merged probability of every signature, in id order.

    Equal signatures within one site are exclusive patterns, so their
    probabilities add, in pattern order.  Across sites they are
    independent, so the site sums combine in site order by
    ``p (1 - q) + q (1 - p)``.  Each signature's i-th site sum is
    folded in at step i, all signatures at once.
    """
    # One (site, signature) pair per within-site sum; np.unique sorts
    # the pairs by site, and np.add.at adds in mechanism order.
    pairs, pair_of = np.unique(site * n_signatures + signature, return_inverse=True)
    within = np.zeros(pairs.size, dtype=np.float64)
    np.add.at(within, np.asarray(pair_of).reshape(-1), probabilities)
    pair_signature = pairs % n_signatures

    # Lay the pairs out signature by signature, each run in site order.
    by_signature = np.argsort(pair_signature, kind="stable")
    within = within[by_signature]
    counts = np.bincount(pair_signature, minlength=n_signatures)
    starts = np.cumsum(counts) - counts
    merged = within[starts]
    # Signatures by falling count: step i updates a prefix of them.
    busiest = np.argsort(-counts, kind="stable")
    steps = int(counts.max())
    # live[i]: how many signatures have an i-th site sum (live[steps] = 0).
    live = np.searchsorted(-counts[busiest], -np.arange(steps + 1), side="left")
    step = 1
    while live[step] > _VECTOR_MIN_LIVE:
        folding = busiest[: live[step]]
        q = merged[folding]
        p = within[starts[folding] + step]
        merged[folding] = p * (1 - q) + q * (1 - p)
        step += 1
    # The few long runs left (e.g. the empty signature of invisible
    # faults) fold as Python floats: the same IEEE operations, without a
    # vector call per step.
    for index in busiest[: live[step]].tolist():
        q = float(merged[index])
        stop = starts[index] + counts[index]
        for p in within[starts[index] + step : stop].tolist():
            q = p * (1 - q) + q * (1 - p)
        merged[index] = q
    return merged

