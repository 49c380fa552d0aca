"""Packed GF(2) kernels on a grid of shapes around the 64-bit word.

Packing bugs live at word edges: a padding bit left set, a last partial
word dropped, a chunk boundary off by one.  Each kernel is compared with
the dense ``numpy`` computation on every combination of sizes just
below, at and above one and two words, on matrices dense enough that
every word holds set bits; the transpose's output padding must stay
clear.  The dense elimination routines are checked against each other
on random low-rank matrices.
"""

import itertools

import numpy as np
import pytest

from repro.gf2 import bitops
from repro.gf2.linalg import inverse, nullspace, rank, rref, solve
from repro.gf2.matmul import mul_packed_abt, mul_sparse_columns
from repro.gf2.transpose import transpose_bitmatrix

_EDGES = (1, 63, 64, 65, 129)
_TRANSPOSE_EDGES = (1, 2, 63, 64, 65, 127, 128, 200)


def _bits(shape, seed: int, density: float = 0.5) -> np.ndarray:
    return (np.random.default_rng(seed).random(shape) < density).astype(np.uint8)


def _padding_clear(packed: np.ndarray, n_bits: int) -> bool:
    return np.array_equal(
        bitops.pack_rows(bitops.unpack_rows(packed, n_bits)), packed
    )


@pytest.mark.parametrize("a_rows, b_rows, n_bits", itertools.product(_EDGES, repeat=3))
def test_mul_packed_abt(a_rows, b_rows, n_bits):
    a = _bits((a_rows, n_bits), a_rows * 1000 + n_bits)
    b = _bits((b_rows, n_bits), b_rows * 1000 + n_bits + 7)
    expected = (a.astype(np.int64) @ b.T.astype(np.int64)) % 2
    # A row chunk smaller than the rows exercises the chunk loop's tail.
    out = mul_packed_abt(bitops.pack_rows(a), bitops.pack_rows(b), row_chunk=50)
    assert out.dtype == np.uint8
    assert np.array_equal(out, expected)


@pytest.mark.parametrize(
    "n_rows, n_cols", itertools.product(_TRANSPOSE_EDGES, repeat=2)
)
def test_transpose_bitmatrix(n_rows, n_cols):
    bits = _bits((n_rows, n_cols), n_rows * 1000 + n_cols)
    out = transpose_bitmatrix(bitops.pack_rows(bits), n_rows, n_cols)
    assert out.shape == (n_cols, bitops.words_for(n_rows))
    assert np.array_equal(bitops.unpack_rows(out, n_rows), bits.T)
    assert _padding_clear(out, n_rows)


@pytest.mark.parametrize("n_bits", _EDGES)
@pytest.mark.parametrize("n_out", (1, 5, 40))
@pytest.mark.parametrize("with_constants", (False, True))
def test_mul_sparse_columns(n_bits, n_out, with_constants):
    rng = np.random.default_rng(n_bits * 100 + n_out)
    n_symbols = 30
    rows = _bits((n_symbols, n_bits), n_bits + n_out)
    supports = [
        np.sort(rng.choice(n_symbols, size=int(rng.integers(0, 8)), replace=False))
        for _ in range(n_out)
    ]
    constants = _bits(n_out, n_out + 1) if with_constants else None
    out = mul_sparse_columns(supports, bitops.pack_rows(rows), constants)
    dense = np.zeros((n_out, n_symbols), dtype=np.int64)
    for i, support in enumerate(supports):
        dense[i, support] = 1
    expected = (dense @ rows) % 2
    if with_constants:
        expected ^= constants[:, None]
    assert np.array_equal(bitops.unpack_rows(out, n_bits), expected)


@pytest.mark.parametrize("seed", range(40))
def test_linalg_is_consistent(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_cols = (int(v) for v in rng.integers(1, 24, size=2))
    # Low-rank products make rank deficiency and inconsistent systems common.
    inner = int(rng.integers(1, min(n_rows, n_cols) + 1))
    matrix = (_bits((n_rows, inner), seed) @ _bits((inner, n_cols), seed + 1)) % 2
    matrix = matrix.astype(np.uint8)

    reduced, pivots = rref(matrix)
    r = rank(matrix)
    assert r == len(pivots) <= inner
    assert np.array_equal(reduced[:, pivots][:r], np.eye(r, dtype=np.uint8))
    assert not reduced[r:].any()

    basis = nullspace(matrix)
    assert basis.shape == (n_cols - r, n_cols)
    assert not ((matrix.astype(np.int64) @ basis.T) % 2).any()
    if len(basis):
        assert rank(basis) == n_cols - r

    x_true = _bits(n_cols, seed + 2)
    rhs = ((matrix.astype(np.int64) @ x_true) % 2).astype(np.uint8)
    x = solve(matrix, rhs)
    assert x is not None
    assert np.array_equal((matrix.astype(np.int64) @ x) % 2, rhs)
    # Flipping one bit of ``rhs`` where a left null vector is set gives
    # that vector odd overlap, so the new right-hand side is outside the
    # column space and has no solution.
    left = nullspace(matrix.T)
    if len(left):
        off_image = rhs.copy()
        off_image[np.nonzero(left[0])[0][0]] ^= 1
        assert solve(matrix, off_image) is None

    square = _bits((n_rows, n_rows), seed + 3)
    if rank(square) == n_rows:
        assert np.array_equal(
            (square.astype(np.int64) @ inverse(square)) % 2,
            np.eye(n_rows, dtype=np.int64),
        )
    else:
        with pytest.raises(np.linalg.LinAlgError):
            inverse(square)
