"""Tests for the growable packed phase matrix."""

import numpy as np
import pytest

from repro.core.phase_matrix import PhaseMatrix
from repro.gf2 import bitops


class TestGrowth:
    def test_initial_width(self):
        pm = PhaseMatrix(4)
        assert pm.width == 1
        assert pm.capacity_bits >= 64

    def test_ensure_width_grows_capacity(self):
        pm = PhaseMatrix(2)
        pm.ensure_width(200)
        assert pm.capacity_bits >= 200
        assert pm.width == 200

    def test_growth_preserves_content(self):
        pm = PhaseMatrix(3)
        pm.xor_symbol(np.array([1]), 5)
        pm.ensure_width(1000)
        assert bitops.get_bit(pm.words[1], 5) == 1
        assert bitops.get_bit(pm.words[0], 5) == 0

    def test_width_never_shrinks(self):
        pm = PhaseMatrix(1)
        pm.ensure_width(100)
        pm.ensure_width(10)
        assert pm.width == 100

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            PhaseMatrix(0)


class TestRowOps:
    def test_xor_constant(self):
        pm = PhaseMatrix(4)
        pm.xor_constant(np.array([0, 2]))
        assert [bitops.get_bit(pm.words[i], 0) for i in range(4)] == [1, 0, 1, 0]

    def test_xor_symbol_twice_cancels(self):
        pm = PhaseMatrix(2)
        pm.xor_symbol(np.array([0]), 7)
        pm.xor_symbol(np.array([0]), 7)
        assert bitops.get_bit(pm.words[0], 7) == 0

    def test_xor_rows(self):
        pm = PhaseMatrix(3)
        pm.xor_symbol(np.array([0]), 3)
        pm.xor_constant(np.array([0]))
        pm.xor_rows(np.array([1, 2]), 0, np.zeros(2, dtype=np.uint8))
        for row in (1, 2):
            assert bitops.get_bit(pm.words[row], 3) == 1
            assert bitops.get_bit(pm.words[row], 0) == 1

    def test_xor_rows_with_flips(self):
        pm = PhaseMatrix(3, first_row=3)
        pm.xor_symbol(3, 70)
        pm.xor_rows(np.array([4, 5]), 3, np.array([1, 0], dtype=np.uint8))
        assert list(pm.row_support(4)) == [0, 70]
        assert list(pm.row_support(5)) == [70]
        assert list(pm.row_support(3)) == [70]

    def test_clear_row(self):
        pm = PhaseMatrix(2)
        pm.xor_symbol(np.array([0, 1]), 9)
        pm.clear_row(0)
        assert not pm.words[0].any()
        assert bitops.get_bit(pm.words[1], 9) == 1

    def test_xor_vector(self):
        pm = PhaseMatrix(3)
        pm.ensure_width(70)
        vec = np.zeros(2, dtype=np.uint64)
        bitops.set_bit(vec, 65, 1)
        pm.xor_vector(np.array([0, 2]), vec)
        assert bitops.get_bit(pm.words[0], 65) == 1
        assert bitops.get_bit(pm.words[1], 65) == 0
        assert bitops.get_bit(pm.words[2], 65) == 1

    def test_row_vector_trimmed(self):
        pm = PhaseMatrix(1)
        pm.ensure_width(130)
        assert pm.row_vector(0).size == bitops.words_for(130)

    def test_row_support(self):
        pm = PhaseMatrix(1)
        pm.xor_symbol(np.array([0]), 4)
        pm.xor_constant(np.array([0]))
        assert list(pm.row_support(0)) == [0, 4]


class TestRowBand:
    """A matrix holding tableau rows ``first_row ..`` only (the symbolic
    pass's stabilizer half) takes tableau row indices everywhere."""

    def test_ops_address_tableau_rows(self):
        pm = PhaseMatrix(2, first_row=3)
        pm.xor_symbol(np.array([3]), 70)
        pm.xor_constant(np.array([4]))
        pm.xor_rows(np.array([4]), 3, np.zeros(1, dtype=np.uint8))
        assert list(pm.row_support(3)) == [70]
        assert list(pm.row_support(4)) == [0, 70]
        both = pm.row_vector(3) ^ pm.row_vector(4)
        assert np.array_equal(pm.xor_reduce(np.array([3, 4])), both)

    def test_rows_outside_the_band_are_named(self):
        pm = PhaseMatrix(2, first_row=3)
        for row in (0, 2, 5):
            with pytest.raises(ValueError, match=f"row {row} has no stored phase"):
                pm.row_support(row)
            with pytest.raises(ValueError, match=f"row {row} has no stored phase"):
                pm.row_vector(row)

    def test_xor_reduce_of_no_rows_is_zero(self):
        pm = PhaseMatrix(2)
        pm.ensure_width(130)
        out = pm.xor_reduce(np.array([], dtype=np.int64))
        assert out.shape == (bitops.words_for(130),) and not out.any()

    def test_row_ops_stop_at_the_live_words(self):
        """Capacity doubles ahead of the width; row ops leave the words
        past the live width alone (they stay zero)."""
        pm = PhaseMatrix(2)
        pm.ensure_width(65)
        pm.ensure_width(130)
        assert pm.words.shape[1] > pm.live_words
        pm.words[0, pm.live_words:] = 7  # sentinel past the width
        pm.xor_rows(np.array([1]), 0, np.zeros(1, dtype=np.uint8))
        pm.clear_row(0)
        assert not pm.words[1, pm.live_words:].any()
        assert (pm.words[0, pm.live_words:] == 7).all()
