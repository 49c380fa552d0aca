"""GF(2) matrix multiplication kernels.

Three kernels back the paper's sampling step (Eq. 4):

* :func:`mul_dense` — unpacked uint8 operands, NumPy integer matmul with a
  final ``& 1`` (sums wrap mod 256, which preserves parity).
* :func:`mul_packed_abt` — both operands bit-packed along the contraction
  axis; each output bit is the parity of a word-wise AND, evaluated with
  ``np.bitwise_count``.  Computes ``A @ B.T``.
* :func:`mul_sparse_columns` — the paper's "sparse implementation": each
  output row is the XOR of a small set of packed rows of ``B``; cost is
  proportional to the number of set bits in ``A`` (O(n_smp * n_m) for
  sparse circuits, per Table 1's footnote).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.gf2.bitops import parity_words, xor_select_rows

_U64 = np.uint64


def mul_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2) product of unpacked 0/1 matrices: ``(a @ b) mod 2``."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    return (a @ b) & 1


def mul_packed_abt(
    a_packed: np.ndarray,
    b_packed: np.ndarray,
    row_chunk: int = 256,
) -> np.ndarray:
    """Parity-of-AND product of packed matrices: unpacked ``A @ B.T``.

    Both operands are packed along their second axis with the same bit
    width.  The result is an unpacked uint8 matrix of shape
    ``(a_rows, b_rows)``.  Work is chunked over rows of ``a`` to bound the
    intermediate ``(chunk, b_rows, words)`` tensor.
    """
    a_packed = np.asarray(a_packed, dtype=_U64)
    b_packed = np.asarray(b_packed, dtype=_U64)
    if a_packed.shape[1] != b_packed.shape[1]:
        raise ValueError("operands are packed with different word counts")
    n_a = a_packed.shape[0]
    out = np.empty((n_a, b_packed.shape[0]), dtype=np.uint8)
    for start in range(0, n_a, row_chunk):
        stop = min(start + row_chunk, n_a)
        both = a_packed[start:stop, None, :] & b_packed[None, :, :]
        out[start:stop] = parity_words(both, axis=-1)
    return out


def mul_sparse_columns(
    supports: Sequence[np.ndarray],
    b_rows_packed: np.ndarray,
    constants: np.ndarray | None = None,
) -> np.ndarray:
    """Sparse GF(2) product: row ``i`` of the result is the XOR of the
    packed rows ``b_rows_packed[supports[i]]``.

    ``constants`` (one bit per output row, optional) complements the whole
    output row — it carries the constant-1 symbol ``s_0`` of the paper's
    bit-vector encoding, so callers never need a dense constant column.
    Returns a packed matrix of shape ``(len(supports), b_words)``, from
    one gather and one segmented XOR (:func:`~repro.gf2.bitops.xor_select_rows`).
    """
    out = xor_select_rows(b_rows_packed, supports)
    if constants is not None:
        flip = np.asarray(constants, dtype=bool)
        out[flip] ^= _U64(0xFFFFFFFFFFFFFFFF)
    return out
