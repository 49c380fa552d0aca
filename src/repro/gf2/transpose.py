"""Bit-level transposition of packed GF(2) matrices.

The 64x64 in-register transpose is the classic mask-and-shift network
(Hacker's Delight, fig. 7-3, widened to 64 bits), vectorized across an
arbitrary number of blocks with NumPy.  The full-matrix transpose tiles
the input into 64-row x 1-word blocks and transposes each block locally —
the same "local transposition" idea the paper's §4 data layout relies on.
"""

from __future__ import annotations

import numpy as np

from repro.gf2.bitops import WORD_BITS, words_for

_U64 = np.uint64


def transpose_words_64(blocks: np.ndarray) -> np.ndarray:
    """Transpose 64x64 bit blocks.

    ``blocks[..., k]`` is interpreted as row ``k`` of a 64x64 bit matrix
    (bit ``i`` of the word = column ``i``).  Returns an array of the same
    shape holding the transposed blocks.
    """
    a = np.array(blocks, dtype=_U64, order="C")
    if a.shape[-1] != WORD_BITS:
        raise ValueError("last axis must have exactly 64 words")
    # Mirrored Hacker's Delight network: our words are LSB-first (bit i =
    # column i), so the off-diagonal block swap shifts left, not right.
    # Stage j pairs word k with word k + j for every k with bit j clear:
    # the two halves of a (..., 64 // 2j, 2, j) view of the same buffer.
    j = 32
    m = _U64(0xFFFFFFFF00000000)
    while j:
        shift = _U64(j)
        halves = a.reshape(a.shape[:-1] + (WORD_BITS // (2 * j), 2, j))
        lo, hi = halves[..., 0, :], halves[..., 1, :]
        t = hi << shift
        t ^= lo
        t &= m
        lo ^= t
        t >>= shift
        hi ^= t
        j >>= 1
        if j:
            m = m ^ (m >> _U64(j))
    return a


def transpose_bitmatrix(
    packed: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """Transpose a packed bit-matrix.

    ``packed`` has shape ``(n_rows, words_for(n_cols))``; the result has
    shape ``(n_cols, words_for(n_rows))``.
    """
    if packed.shape != (n_rows, words_for(n_cols)):
        raise ValueError(
            f"packed shape {packed.shape} does not match "
            f"({n_rows}, words_for({n_cols}))"
        )
    row_blocks = words_for(n_rows)
    col_words = words_for(n_cols)
    padded = np.zeros((row_blocks * WORD_BITS, col_words), dtype=_U64)
    padded[:n_rows] = packed
    # (row_block, word, 64 rows-within-block) -> local 64x64 transposes.
    blocks = padded.reshape(row_blocks, WORD_BITS, col_words).transpose(0, 2, 1)
    transposed = transpose_words_64(blocks)
    # Output bit (c, r): block row c // 64, local row c % 64, word r // 64.
    out = transposed.transpose(1, 2, 0).reshape(col_words * WORD_BITS, row_blocks)
    return np.ascontiguousarray(out[:n_cols])
