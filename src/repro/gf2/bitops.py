"""Primitive operations on bit-packed uint64 vectors.

Conventions
-----------
A *packed vector* of ``n`` bits is a ``numpy`` array of dtype ``uint64``
with ``words_for(n)`` entries.  Bit ``i`` lives in word ``i // 64`` at bit
position ``i % 64`` (little-endian bit order, matching
``np.packbits(..., bitorder="little")`` viewed as little-endian words).

A *packed matrix* is a 2-D ``uint64`` array whose rows are packed vectors;
row ``r``, column ``c`` is bit ``c`` of row ``r``.
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64

_U64 = np.uint64
_ONE = _U64(1)
#: Words one :func:`xor_reduce_csr` gather may hold (16 MiB), so sparse
#: Eq. 4 on many shots does not copy every nonzero's row at once.
_GATHER_WORDS = 1 << 21
#: Nonzero words :func:`nonzero_bits_csr` expands to bytes at once (a
#: 256 KiB byte view), so its working set does not grow with the matrix.
_EXPAND_WORDS = 1 << 12


def words_for(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    if n_bits < 0:
        raise ValueError(f"n_bits must be non-negative, got {n_bits}")
    return (n_bits + WORD_BITS - 1) // WORD_BITS


def bit_to_word(index: int) -> tuple[int, np.uint64]:
    """Map a bit index to ``(word_index, single-bit mask)``."""
    if index < 0:
        raise ValueError(f"bit index must be non-negative, got {index}")
    return index // WORD_BITS, _ONE << _U64(index % WORD_BITS)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-D array of 0/1 values into a packed vector."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("pack_bits expects a 1-D array")
    n_words = words_for(bits.size)
    padded = np.zeros(n_words * WORD_BITS, dtype=np.uint8)
    padded[: bits.size] = bits & 1
    return np.packbits(padded, bitorder="little").view(_U64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack a packed vector back into a uint8 0/1 array of length ``n_bits``."""
    words = np.ascontiguousarray(words, dtype=_U64)
    raw = np.unpackbits(words.view(np.uint8), bitorder="little")
    return raw[:n_bits]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a 2-D array of 0/1 values row-wise into a packed matrix.

    Each entry contributes its lowest bit (of its uint8 value, for
    non-integer input).  The masked bits are written into a buffer whose
    rows are padded to whole bytes only, which packs as one flat
    ``np.packbits`` call (several times faster than packing along an
    axis whose length is not a multiple of 64); the bytes are then
    copied into rows of whole words.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError("pack_rows expects a 2-D array")
    if bits.dtype.kind not in "biu":
        bits = bits.astype(np.uint8)
    n_rows, n_cols = bits.shape
    n_bytes = (n_cols + 7) // 8
    padded = np.zeros((n_rows, n_bytes * 8), dtype=np.uint8)
    if bits.dtype == bool:
        np.copyto(padded[:, :n_cols], bits)
    else:
        np.bitwise_and(
            bits, np.uint8(1), out=padded[:, :n_cols], casting="unsafe"
        )
    packed = np.zeros((n_rows, words_for(n_cols) * 8), dtype=np.uint8)
    packed[:, :n_bytes] = np.packbits(
        padded.reshape(-1), bitorder="little"
    ).reshape(n_rows, n_bytes)
    return packed.view(_U64)


def unpack_rows(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Unpack a packed matrix into a uint8 0/1 matrix with ``n_cols`` columns."""
    words = np.ascontiguousarray(words, dtype=_U64)
    if words.ndim != 2:
        raise ValueError("unpack_rows expects a 2-D packed matrix")
    raw = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return raw[:, :n_cols]


def get_bit(words: np.ndarray, index: int) -> int:
    """Read bit ``index`` of a packed vector."""
    w, mask = bit_to_word(index)
    return int((words[w] & mask) != 0)


def set_bit(words: np.ndarray, index: int, value: int) -> None:
    """Write bit ``index`` of a packed vector in place."""
    w, mask = bit_to_word(index)
    if value:
        words[w] |= mask
    else:
        words[w] &= ~mask


def xor_bit(words: np.ndarray, index: int, value: int = 1) -> None:
    """XOR ``value`` into bit ``index`` of a packed vector in place."""
    if value:
        w, mask = bit_to_word(index)
        words[w] ^= mask


def get_column(matrix: np.ndarray, col: int) -> np.ndarray:
    """Extract column ``col`` of a packed matrix as a uint8 0/1 vector."""
    w, mask = bit_to_word(col)
    return ((matrix[:, w] & mask) != 0).astype(np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word population count."""
    return np.bitwise_count(words)


def popcount_rows(matrix: np.ndarray) -> np.ndarray:
    """Set-bit count of every row of a packed matrix (int64 vector).

    Correct only under the packing invariant that padding bits (bits at
    or beyond the logical column count) are zero — every producer in
    this package maintains it.
    """
    matrix = np.asarray(matrix, dtype=_U64)
    if matrix.ndim != 2:
        raise ValueError("popcount_rows expects a 2-D packed matrix")
    return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)


def nonzero_rows_packed(matrix: np.ndarray) -> np.ndarray:
    """Indices of the rows of a packed matrix with any bit set.

    The hot-path zero-row short-circuit: at QEC-relevant error rates a
    sizable fraction of syndromes is all-zero and can skip dedupe and
    decoding entirely.
    """
    matrix = np.asarray(matrix, dtype=_U64)
    if matrix.ndim != 2:
        raise ValueError("nonzero_rows_packed expects a 2-D packed matrix")
    return np.flatnonzero(matrix.any(axis=1))


def dedupe_rows_packed(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of a packed matrix plus the flat inverse gather.

    The packed counterpart of
    :func:`repro.decoders.matching.dedupe_rows`: each row is viewed as
    one contiguous void scalar (``n_words * 8`` bytes), so ``np.unique``
    sorts fixed-width byte strings instead of lexsorting unpacked
    columns — same unique *set*, far less data moved.  The unique rows
    are returned in void-sort order, which differs from the unpacked
    column-lexicographic order; callers must treat row order as
    arbitrary (per-row decoding does).
    """
    matrix = np.ascontiguousarray(matrix, dtype=_U64)
    if matrix.ndim != 2:
        raise ValueError("dedupe_rows_packed expects a 2-D packed matrix")
    n_rows, n_words = matrix.shape
    if n_words == 0:
        # Every zero-width row is identical: one unique row if any.
        unique = matrix[: min(n_rows, 1)]
        return unique, np.zeros(n_rows, dtype=np.int64)
    voided = matrix.view(np.dtype((np.void, n_words * 8)))[:, 0]
    unique, inverse = np.unique(voided, return_inverse=True)
    return (
        unique.view(_U64).reshape(-1, n_words),
        np.asarray(inverse).reshape(-1),
    )


def xor_rows_any(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row "does ``a`` XOR ``b`` have any set bit" (bool vector).

    With ``a`` and ``b`` packed matrices of the same shape this answers
    "which rows differ" — the packed error count is
    ``np.count_nonzero(xor_rows_any(predictions, observables))`` with no
    uint8 matrices ever materialized.
    """
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("xor_rows_any expects two equal-shape packed matrices")
    return (a != b).any(axis=1)


def nonzero_bits(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set-bit coordinates of a packed matrix: ``(row_indices, bit_indices)``.

    The packed counterpart of ``np.nonzero`` on the unpacked matrix
    (same ordering: row-major, bits ascending within a row, int64):
    :func:`nonzero_bits_csr` with each row's index repeated by its count.
    """
    counts, bits = nonzero_bits_csr(matrix)
    rows = np.repeat(np.arange(counts.size), counts)
    return rows, bits.astype(np.intp, copy=False)


def nonzero_bits_csr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Set bits of a packed matrix as a CSR stream: ``(counts, bits)``.

    ``counts[r]`` is row ``r``'s set-bit count and ``bits`` the column
    indices of every set bit, row-major and ascending within a row.  Both
    are int32 (int64 past 2**31 columns).  Only the nonzero *words*
    expand, each through a little-endian byte view, so cost scales with
    the set words, not with the unpacked width.  They expand
    :data:`_EXPAND_WORDS` at a time, so beyond its output and one index
    per nonzero word the call holds a few hundred KiB however large the
    matrix is.
    """
    matrix = np.asarray(matrix, dtype=_U64)
    if matrix.ndim != 2:
        raise ValueError("nonzero_bits_csr expects a 2-D packed matrix")
    n_words = matrix.shape[1]
    dtype = np.int32 if n_words * WORD_BITS <= np.iinfo(np.int32).max else np.int64
    counts = np.bitwise_count(matrix).sum(axis=1, dtype=dtype)
    bits = np.empty(int(counts.sum()), dtype=dtype)
    flat = np.ascontiguousarray(matrix).reshape(-1)
    # Flat indices of a bool mask, split with divmod: several times
    # faster than a 2-D ``np.nonzero`` (here and on the expansion).
    words = np.flatnonzero(flat != 0)
    filled = 0
    for start in range(0, words.size, _EXPAND_WORDS):
        slab = words[start:start + _EXPAND_WORDS]
        expanded = np.unpackbits(
            flat[slab][:, None].view(np.uint8), axis=1, bitorder="little"
        )
        word, position = np.divmod(np.flatnonzero(expanded.view(bool)), WORD_BITS)
        position += (slab % n_words * WORD_BITS)[word]
        bits[filled:filled + position.size] = position
        filled += position.size
    return counts, bits


def pack_sorted_bits(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n_planes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group row-major sorted bit coordinates into packed words.

    The scatter counterpart of :func:`nonzero_bits`: ``(rows[i],
    cols[i])`` are bit coordinates in row-major order, and ``values[i]``
    carries ``n_planes`` bits for coordinate ``i``.  Returns
    ``(word_rows, word_cols, words)`` with one entry per packed word
    that holds a coordinate; ``words[b, k]`` has bit ``b`` of each value
    set at its column's bit position.  Every ``(row, word)`` pair occurs
    once, so ``matrix[word_rows, word_cols] |= words[b]`` scatters plane
    ``b`` exactly.  Cost is O(coordinates): one ``reduceat`` per plane.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    word_cols = cols >> 6
    if rows.size == 0:
        return rows, word_cols, np.zeros((n_planes, 0), dtype=_U64)
    key = rows * (int(word_cols.max()) + 1) + word_cols
    step = np.diff(key)
    if step.size and step.min() < 0:
        raise ValueError("pack_sorted_bits needs row-major sorted coordinates")
    starts = np.flatnonzero(np.concatenate(([True], step != 0)))
    masks = _ONE << (cols & (WORD_BITS - 1)).astype(_U64)
    values = np.asarray(values)
    words = np.stack([
        np.bitwise_or.reduceat(masks * ((values >> b) & 1), starts)
        for b in range(n_planes)
    ])
    return rows[starts], word_cols[starts], words


def parity_words(words: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Overall GF(2) parity of the set bits (optionally along ``axis``)."""
    counts = np.bitwise_count(np.asarray(words, dtype=_U64))
    total = counts.sum(axis=axis, dtype=np.int64)
    return (total & 1).astype(np.uint8)


def xor_select_rows(matrix: np.ndarray, index_lists) -> np.ndarray:
    """XOR-combine selected rows of a packed matrix.

    ``out[i]`` is the GF(2) sum (XOR) of ``matrix[j]`` for ``j`` in
    ``index_lists[i]``; an empty list yields a zero row.  This is the
    packed-domain parity behind derived rows — detectors and observables
    are XORs of measurement rows — shared by the frame and symbolic
    samplers.  One gather plus one segmented reduce
    (:func:`xor_reduce_csr`); no per-row Python loop over the
    (typically thousands of) derived rows.
    """
    matrix = np.ascontiguousarray(matrix, dtype=_U64)
    if matrix.ndim != 2:
        raise ValueError("xor_select_rows expects a 2-D packed matrix")
    lengths = np.fromiter(map(len, index_lists), dtype=np.int64,
                          count=len(index_lists))
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if not indptr[-1]:
        return np.zeros((lengths.size, matrix.shape[1]), dtype=_U64)
    indices = np.concatenate(
        [np.asarray(ix, dtype=np.int64) for ix in index_lists]
    )
    return xor_reduce_csr(matrix, indices, indptr)


def pattern_combos(columns: np.ndarray) -> np.ndarray:
    """XOR of every subset of each group's ``k`` packed rows.

    ``columns`` has shape ``(n, k, words)``.  Returns ``(n, 2**k,
    words)`` whose ``[i, pattern]`` is the XOR of ``columns[i, j]`` over
    the bits ``j`` set in ``pattern`` (row 0 is zero): each pattern is
    one XOR away from the pattern without its lowest bit, so the table
    costs one vector XOR per pattern.
    """
    n, k, n_words = columns.shape
    combos = np.zeros((n, 1 << k, n_words), dtype=_U64)
    for pattern in range(1, 1 << k):
        low = pattern & -pattern
        np.bitwise_xor(
            combos[:, pattern ^ low], columns[:, low.bit_length() - 1],
            out=combos[:, pattern],
        )
    return combos


def xor_reduce_csr(
    matrix: np.ndarray, indices: np.ndarray, indptr: np.ndarray
) -> np.ndarray:
    """``out[i]`` is the XOR of the packed rows
    ``matrix[indices[indptr[i]:indptr[i + 1]]]`` (a zero row when the
    slice is empty): the row lists in compressed-sparse-row form, so a
    caller that reuses them builds the form once.  One ``take`` plus one
    ``bitwise_xor.reduceat`` per block of rows whose gathered rows fit
    ``_GATHER_WORDS`` words (a single block unless the rows are long).
    """
    n_rows = indptr.size - 1
    out = np.zeros((n_rows, matrix.shape[1]), dtype=_U64)
    per_block = max(1, _GATHER_WORDS // max(matrix.shape[1], 1))
    start = 0
    while start < n_rows:
        # Every row up to the first that would overflow the block, and
        # at least one.
        stop = int(np.searchsorted(
            indptr, indptr[start] + per_block, side="right"
        )) - 1
        stop = min(max(stop, start + 1), n_rows)
        bounds = indptr[start : stop + 1]
        nonempty = np.flatnonzero(np.diff(bounds))
        if nonempty.size:
            # Empty rows add no indices, so each nonempty row's segment
            # runs from its own start to the next nonempty row's.
            out[start + nonempty] = np.bitwise_xor.reduceat(
                matrix.take(indices[bounds[0] : bounds[-1]], axis=0),
                bounds[nonempty] - bounds[0], axis=0,
            )
        start = stop
    return out


def random_packed(
    shape: tuple[int, int],
    n_bits: int,
    rng: np.random.Generator,
    p: float = 0.5,
) -> np.ndarray:
    """Random packed matrix: ``shape[0]`` rows of ``n_bits`` Bernoulli(p) bits.

    ``shape[1]`` must equal ``words_for(n_bits)``; bits beyond ``n_bits``
    are zero so that parity/popcount never see garbage padding.
    """
    n_rows, n_words = shape
    if n_words != words_for(n_bits):
        raise ValueError("word count does not match n_bits")
    if p == 0.5:
        out = rng.integers(0, 2**64, size=(n_rows, n_words), dtype=np.uint64)
    else:
        bits = (rng.random((n_rows, n_words * WORD_BITS)) < p).astype(np.uint8)
        return pack_rows(bits[:, :n_bits]) if n_bits else bits[:, :0].view(_U64)
    tail = n_bits % WORD_BITS
    if tail and n_words:
        out[:, -1] &= (_ONE << _U64(tail)) - _ONE
    return out
