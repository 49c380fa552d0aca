"""Growable bit-packed storage for the symbolic phase block.

Column ``j`` is the coefficient of symbol ``s_j`` (column 0 = the
constant ``s_0``).  This is the ``R̄ | R`` block of the paper's Eq. (3),
stored packed in uint64 words with amortized doubling as the circuit
allocates symbols.

The matrix can hold a contiguous band of tableau rows only:
``PhaseMatrix(n, first_row=n)`` stores the stabilizer half of a 2n-row
tableau, and every method takes tableau row indices ``n .. 2n - 1``.
The symbolic pass keeps exactly that band, because destabilizer signs
never reach a measurement outcome (see :mod:`repro.core.simulator`).

Row operations touch only the words covering the live ``width``; the
words past it are zero in every row, since the width never shrinks.
"""

from __future__ import annotations

import numpy as np

from repro.gf2 import bitops

_U64 = np.uint64


class PhaseMatrix:
    """Packed (n_rows x width) GF(2) matrix with cheap row operations."""

    def __init__(self, n_rows: int, initial_words: int = 1, first_row: int = 0):
        if n_rows < 1:
            raise ValueError("PhaseMatrix needs at least one row")
        self.n_rows = n_rows
        self.first_row = first_row
        self.words = np.zeros((n_rows, max(initial_words, 1)), dtype=_U64)
        self.width = 1  # bits in use: the constant column only, initially

    @property
    def capacity_bits(self) -> int:
        return self.words.shape[1] * bitops.WORD_BITS

    @property
    def live_words(self) -> int:
        """Words per row that can hold a nonzero bit."""
        return bitops.words_for(self.width)

    def ensure_width(self, width: int) -> None:
        """Grow storage so bit index ``width - 1`` is addressable."""
        if width > self.capacity_bits:
            new_words = max(self.words.shape[1] * 2, bitops.words_for(width))
            grown = np.zeros((self.n_rows, new_words), dtype=_U64)
            grown[:, : self.words.shape[1]] = self.words
            self.words = grown
        self.width = max(self.width, width)

    # -- row updates (all accept an index array of tableau rows) ------------

    def xor_constant(self, rows: np.ndarray) -> None:
        """Flip the constant bit of the given rows (a concrete sign flip)."""
        self.words[rows - self.first_row, 0] ^= _U64(1)

    def xor_symbol(self, rows: np.ndarray | int, symbol: int) -> None:
        """XOR symbol ``s_symbol`` into the phases of the given rows."""
        self.ensure_width(symbol + 1)
        word, mask = bitops.bit_to_word(symbol)
        self.words[rows - self.first_row, word] ^= mask

    def xor_block(self, first: int, block: np.ndarray) -> None:
        """XOR the 0/1 columns of ``block`` (``n_rows x m``, every stored
        row in order) into symbol columns ``first .. first + m - 1`` (one
        noise instruction's faults)."""
        self.ensure_width(first + block.shape[1])
        word, shift = divmod(first, bitops.WORD_BITS)
        n_words = bitops.words_for(shift + block.shape[1])
        aligned = np.zeros(
            (self.n_rows, n_words * bitops.WORD_BITS), dtype=np.uint8
        )
        aligned[:, shift: shift + block.shape[1]] = block
        packed = np.packbits(aligned, axis=1, bitorder="little").view(_U64)
        self.words[:, word: word + n_words] ^= packed

    def xor_rows(self, dst_rows: np.ndarray, src_row: int, flips: np.ndarray) -> None:
        """Phase(dst) ^= Phase(src) for every dst (symbolic rowsum part),
        then XOR ``flips`` (0/1, one per dst: the rowsum's sign flips)
        into the dst constant bits."""
        live = self.live_words
        rows = dst_rows - self.first_row
        block = self.words[rows, :live]
        block ^= self.words[src_row - self.first_row, :live]
        block[:, 0] ^= flips
        self.words[rows, :live] = block

    def xor_vector(self, rows: np.ndarray, vector: np.ndarray) -> None:
        """XOR a packed phase vector into the given rows (symbolic-exponent
        conditional Pauli — the paper's §6 extension)."""
        n = vector.shape[0]
        if n > self.words.shape[1]:
            self.ensure_width(n * bitops.WORD_BITS)
        self.words[rows - self.first_row, :n] ^= vector

    def xor_reduce(self, rows: np.ndarray) -> np.ndarray:
        """XOR of the given rows' phases, trimmed to the live words."""
        return np.bitwise_xor.reduce(
            self.words[rows - self.first_row, : self.live_words], axis=0
        )

    def clear_row(self, row: int) -> None:
        self.words[row - self.first_row, : self.live_words] = 0

    # -- reads (validated) -----------------------------------------------------

    def _stored(self, row: int) -> int:
        """Storage index of tableau ``row``; a row outside the stored band
        (a destabilizer row of the symbolic pass) is a ValueError."""
        index = row - self.first_row
        if not 0 <= index < self.n_rows:
            raise ValueError(
                f"row {row} has no stored phase: this matrix holds tableau "
                f"rows {self.first_row}..{self.first_row + self.n_rows - 1}"
            )
        return index

    def row_vector(self, row: int) -> np.ndarray:
        """Packed copy of one row, trimmed to the words covering ``width``."""
        return self.words[self._stored(row), : self.live_words].copy()

    def row_support(self, row: int) -> np.ndarray:
        """Symbol indices with non-zero coefficient in this row."""
        bits = bitops.unpack_bits(self.words[self._stored(row)], self.width)
        return np.nonzero(bits)[0]
