"""Unit tests for packed bit-vector primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.gf2 import bitops


class TestWordsFor:
    def test_zero(self):
        assert bitops.words_for(0) == 0

    def test_exact_boundaries(self):
        assert bitops.words_for(64) == 1
        assert bitops.words_for(65) == 2
        assert bitops.words_for(128) == 2

    def test_small(self):
        assert bitops.words_for(1) == 1
        assert bitops.words_for(63) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitops.words_for(-1)


class TestBitToWord:
    def test_first_bit(self):
        word, mask = bitops.bit_to_word(0)
        assert word == 0 and mask == 1

    def test_word_boundary(self):
        word, mask = bitops.bit_to_word(64)
        assert word == 1 and mask == 1

    def test_high_bit(self):
        word, mask = bitops.bit_to_word(63)
        assert word == 0 and mask == np.uint64(1) << np.uint64(63)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bitops.bit_to_word(-3)


class TestPackUnpack:
    @given(st.lists(st.integers(0, 1), min_size=0, max_size=300))
    def test_roundtrip(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = bitops.pack_bits(arr)
        assert packed.dtype == np.uint64
        assert packed.size == bitops.words_for(arr.size)
        recovered = bitops.unpack_bits(packed, arr.size)
        assert np.array_equal(recovered, arr)

    def test_bit_positions_little_endian(self):
        bits = np.zeros(70, dtype=np.uint8)
        bits[0] = 1
        bits[65] = 1
        packed = bitops.pack_bits(bits)
        assert packed[0] == 1
        assert packed[1] == 2

    def test_padding_is_zero(self):
        packed = bitops.pack_bits(np.ones(65, dtype=np.uint8))
        assert packed[1] == 1  # only bit 64 set, not the padding

    def test_rows_roundtrip(self, rng):
        bits = (rng.random((17, 131)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        assert packed.shape == (17, 3)
        assert np.array_equal(bitops.unpack_rows(packed, 131), bits)

    @staticmethod
    def _two_copy_pack_rows(bits):
        """The earlier ``pack_rows``: a ``bits & 1`` temporary, then a
        zero-padded copy, then ``np.packbits``."""
        bits = np.asarray(bits, dtype=np.uint8)
        n_rows, n_cols = bits.shape
        padded = np.zeros(
            (n_rows, bitops.words_for(n_cols) * bitops.WORD_BITS), np.uint8
        )
        padded[:, :n_cols] = bits & 1
        return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)

    @pytest.mark.parametrize("width", [0, 1, 7, 63, 64, 65, 120, 130])
    @pytest.mark.parametrize("kind", ["bool", "uint8 0/1", "uint8 any"])
    @pytest.mark.parametrize(
        "view", ["contiguous", "every other row", "reversed columns",
                 "fortran"]
    )
    def test_pack_rows_equals_two_copy_version(self, width, kind, view):
        """Writing the masked bits straight into the padded buffer packs
        what masking into a temporary did: entries contribute their low
        bit (so uint8 values above 1 pack ``value & 1``), whatever the
        input's dtype and memory layout."""
        rng = np.random.default_rng(width)
        if kind == "uint8 any":
            bits = rng.integers(0, 256, size=(9, width), dtype=np.uint8)
        else:
            bits = rng.random((9, width)) < 0.5
            if kind == "uint8 0/1":
                bits = bits.astype(np.uint8)
        bits = {
            "contiguous": bits,
            "every other row": bits[::2],
            "reversed columns": bits[:, ::-1],
            "fortran": np.asfortranarray(bits),
        }[view]
        packed = bitops.pack_rows(bits)
        expected = self._two_copy_pack_rows(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == expected.shape
        assert np.array_equal(packed, expected)

    def test_pack_rows_rejects_1d(self):
        with pytest.raises(ValueError):
            bitops.pack_rows(np.zeros(5, dtype=np.uint8))

    def test_pack_bits_rejects_2d(self):
        with pytest.raises(ValueError):
            bitops.pack_bits(np.zeros((2, 2), dtype=np.uint8))


class TestBitAccess:
    def test_get_set_roundtrip(self):
        words = np.zeros(3, dtype=np.uint64)
        for index in (0, 1, 63, 64, 100, 191):
            bitops.set_bit(words, index, 1)
            assert bitops.get_bit(words, index) == 1
            bitops.set_bit(words, index, 0)
            assert bitops.get_bit(words, index) == 0

    def test_xor_bit_twice_is_identity(self):
        words = np.zeros(2, dtype=np.uint64)
        bitops.xor_bit(words, 70)
        assert bitops.get_bit(words, 70) == 1
        bitops.xor_bit(words, 70)
        assert bitops.get_bit(words, 70) == 0

    def test_xor_bit_zero_value_noop(self):
        words = np.zeros(1, dtype=np.uint64)
        bitops.xor_bit(words, 5, 0)
        assert words[0] == 0

    def test_get_column(self, rng):
        bits = (rng.random((10, 80)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        for col in (0, 63, 64, 79):
            assert np.array_equal(bitops.get_column(packed, col), bits[:, col])


class TestPackSortedBits:
    @pytest.mark.parametrize("n_cols", [1, 63, 64, 65, 200])
    def test_matches_packing_each_dense_plane(self, rng, n_cols):
        cells = np.unique(rng.integers(0, 9 * n_cols, 300))  # sorted
        rows, cols = np.divmod(cells, n_cols)
        values = rng.integers(0, 8, cells.size).astype(np.uint8)
        word_rows, word_cols, words = bitops.pack_sorted_bits(
            rows, cols, values, 3
        )
        assert words.shape == (3, word_rows.size)
        assert np.unique(word_rows * 1000 + word_cols).size == word_rows.size
        for b in range(3):
            dense = np.zeros((9, n_cols), dtype=np.uint8)
            dense[rows, cols] = (values >> b) & 1
            packed = np.zeros((9, bitops.words_for(n_cols)), dtype=np.uint64)
            packed[word_rows, word_cols] |= words[b]
            assert np.array_equal(packed, bitops.pack_rows(dense))

    def test_round_trips_nonzero_bits(self, rng):
        bits = (rng.random((7, 130)) < 0.2).astype(np.uint8)
        rows, cols = bitops.nonzero_bits(bitops.pack_rows(bits))
        word_rows, word_cols, words = bitops.pack_sorted_bits(
            rows, cols, np.ones(rows.size, dtype=np.uint8), 1
        )
        packed = np.zeros((7, 3), dtype=np.uint64)
        packed[word_rows, word_cols] = words[0]
        assert np.array_equal(packed, bitops.pack_rows(bits))

    def test_empty_coordinates(self):
        empty = np.zeros(0, dtype=np.int64)
        word_rows, word_cols, words = bitops.pack_sorted_bits(
            empty, empty, np.zeros(0, dtype=np.uint8), 2
        )
        assert word_rows.size == word_cols.size == 0
        assert words.shape == (2, 0)

    def test_rejects_unsorted_coordinates(self):
        with pytest.raises(ValueError, match="sorted"):
            bitops.pack_sorted_bits(
                np.array([1, 0]), np.array([0, 0]), np.ones(2, np.uint8), 1
            )


class TestParityPopcount:
    def test_popcount(self):
        words = np.array([0, 1, 3, 2**64 - 1], dtype=np.uint64)
        assert np.array_equal(bitops.popcount(words), [0, 1, 2, 64])

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_parity_matches_sum(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        packed = bitops.pack_bits(arr)
        assert bitops.parity_words(packed) == arr.sum() % 2

    def test_parity_axis(self, rng):
        bits = (rng.random((8, 130)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        expected = bits.sum(axis=1) % 2
        assert np.array_equal(bitops.parity_words(packed, axis=1), expected)


class TestRandomPacked:
    def test_padding_bits_clear(self, rng):
        out = bitops.random_packed((50, 2), 100, rng)
        tail_mask = ~np.uint64((1 << 36) - 1)
        assert not np.any(out[:, 1] & tail_mask)

    def test_shape_checked(self, rng):
        with pytest.raises(ValueError):
            bitops.random_packed((5, 1), 100, rng)

    def test_biased_probability(self, rng):
        out = bitops.random_packed((200, 2), 128, rng, p=0.1)
        density = bitops.popcount(out).sum() / (200 * 128)
        assert 0.05 < density < 0.15

    def test_fair_probability(self, rng):
        out = bitops.random_packed((200, 2), 128, rng)
        density = bitops.popcount(out).sum() / (200 * 128)
        assert 0.45 < density < 0.55


class TestXorSelectRows:
    def test_basic_xor(self, rng):
        bits = (rng.random((6, 100)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        out = bitops.xor_select_rows(packed, [[0, 2, 5], [1], []])
        expected = np.stack([
            bits[0] ^ bits[2] ^ bits[5],
            bits[1],
            np.zeros(100, dtype=np.uint8),
        ])
        assert np.array_equal(bitops.unpack_rows(out, 100), expected)

    def test_empty_lists_only(self):
        packed = np.zeros((3, 2), dtype=np.uint64)
        out = bitops.xor_select_rows(packed, [[], []])
        assert out.shape == (2, 2)
        assert not out.any()

    def test_no_lists(self):
        packed = np.ones((3, 2), dtype=np.uint64)
        out = bitops.xor_select_rows(packed, [])
        assert out.shape == (0, 2)

    def test_repeated_index_cancels(self, rng):
        bits = (rng.random((2, 64)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        out = bitops.xor_select_rows(packed, [[0, 0], [0, 0, 1]])
        assert not out[0].any()
        assert np.array_equal(bitops.unpack_rows(out[1:], 64)[0], bits[1])

    def test_accepts_numpy_index_arrays(self, rng):
        bits = (rng.random((4, 70)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        lists = [np.array([1, 3], dtype=np.int64), np.array([], dtype=np.int64)]
        out = bitops.xor_select_rows(packed, lists)
        assert np.array_equal(
            bitops.unpack_rows(out, 70)[0], bits[1] ^ bits[3]
        )

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            bitops.xor_select_rows(np.zeros(3, dtype=np.uint64), [[0]])

    @pytest.mark.parametrize("gather_words", [1, 3, 7, 1 << 21])
    def test_blocked_gather(self, rng, monkeypatch, gather_words):
        """Rows gathered in blocks of at most ``_GATHER_WORDS`` words (one
        row when a row alone exceeds it) give the unblocked result."""
        bits = (rng.random((9, 130)) < 0.5).astype(np.uint8)
        lists = [[], [0, 3, 3, 8], [], [1], [2, 4, 5, 6, 7], [], [8]]
        monkeypatch.setattr(bitops, "_GATHER_WORDS", gather_words)
        out = bitops.xor_select_rows(bitops.pack_rows(bits), lists)
        for row, indices in zip(bitops.unpack_rows(out, 130), lists):
            expected = np.zeros(130, dtype=np.uint8)
            for j in indices:
                expected ^= bits[j]
            assert np.array_equal(row, expected)

    @given(st.integers(0, 2**32))
    def test_matches_dense_reference(self, seed):
        local = np.random.default_rng(seed)
        n_rows, n_cols = int(local.integers(1, 9)), int(local.integers(1, 140))
        bits = (local.random((n_rows, n_cols)) < 0.5).astype(np.uint8)
        packed = bitops.pack_rows(bits)
        lists = [
            list(local.integers(0, n_rows, size=local.integers(0, 6)))
            for _ in range(int(local.integers(1, 5)))
        ]
        out = bitops.xor_select_rows(packed, lists)
        for i, indices in enumerate(lists):
            expected = np.zeros(n_cols, dtype=np.uint8)
            for j in indices:
                expected ^= bits[j]
            assert np.array_equal(
                bitops.unpack_rows(out[i:i + 1], n_cols)[0], expected
            )


class TestPackedRowKernels:
    @staticmethod
    def random_rows(seed, n_rows=40, n_bits=150, p=0.03):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n_rows, n_bits)) < p).astype(np.uint8)
        dense[rng.integers(0, n_rows, size=n_rows // 4)] = 0  # zero rows
        if n_rows >= 2:
            dense[-1] = dense[0]  # guaranteed duplicate
        return dense, bitops.pack_rows(dense)

    @pytest.mark.parametrize("seed", range(5))
    def test_popcount_rows_matches_dense_sum(self, seed):
        dense, packed = self.random_rows(seed)
        assert np.array_equal(
            bitops.popcount_rows(packed), dense.sum(axis=1, dtype=np.int64)
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_rows_matches_dense_any(self, seed):
        dense, packed = self.random_rows(seed)
        assert np.array_equal(
            bitops.nonzero_rows_packed(packed),
            np.flatnonzero(dense.any(axis=1)),
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_dedupe_matches_dense_unique_set(self, seed):
        dense, packed = self.random_rows(seed)
        unique, inverse = bitops.dedupe_rows_packed(packed)
        # Reconstruction must be exact even though the unique-row order
        # is the void-sort order, not the dense lexicographic order.
        assert np.array_equal(unique[inverse], packed)
        dense_unique = np.unique(dense, axis=0)
        assert unique.shape[0] == dense_unique.shape[0]
        assert np.array_equal(
            np.unique(bitops.unpack_rows(unique, dense.shape[1]), axis=0),
            dense_unique,
        )

    def test_dedupe_zero_width_and_empty(self):
        empty = np.zeros((0, 3), dtype=np.uint64)
        unique, inverse = bitops.dedupe_rows_packed(empty)
        assert unique.shape == (0, 3) and inverse.size == 0
        zero_width = np.zeros((5, 0), dtype=np.uint64)
        unique, inverse = bitops.dedupe_rows_packed(zero_width)
        assert unique.shape == (1, 0)
        assert np.array_equal(inverse, np.zeros(5, dtype=np.int64))

    @pytest.mark.parametrize("seed", range(5))
    def test_xor_rows_any_matches_dense(self, seed):
        dense_a, packed_a = self.random_rows(seed)
        dense_b, packed_b = self.random_rows(seed + 100)
        assert np.array_equal(
            bitops.xor_rows_any(packed_a, packed_b),
            (dense_a != dense_b).any(axis=1),
        )
        assert not bitops.xor_rows_any(packed_a, packed_a).any()

    def test_xor_rows_any_shape_checked(self):
        with pytest.raises(ValueError):
            bitops.xor_rows_any(
                np.zeros((2, 3), dtype=np.uint64),
                np.zeros((2, 2), dtype=np.uint64),
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_nonzero_bits_matches_dense_nonzero(self, seed):
        dense, packed = self.random_rows(seed)
        rows, bits = bitops.nonzero_bits(packed)
        ref_rows, ref_bits = np.nonzero(dense)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(bits, ref_bits)

    def test_nonzero_bits_empty(self):
        rows, bits = bitops.nonzero_bits(np.zeros((4, 2), dtype=np.uint64))
        assert rows.size == 0 and bits.size == 0

    @pytest.mark.parametrize("expand_words", [1, 7, 1 << 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_nonzero_bits_csr_matches_dense_nonzero(
        self, seed, expand_words, monkeypatch
    ):
        """Slabs of any size (one nonzero word, seven, every word at
        once) give the CSR form of ``np.nonzero``, as int32."""
        monkeypatch.setattr(bitops, "_EXPAND_WORDS", expand_words)
        dense, packed = self.random_rows(seed, p=0.2)
        counts, bits = bitops.nonzero_bits_csr(packed)
        assert counts.dtype == bits.dtype == np.int32
        assert np.array_equal(counts, dense.sum(axis=1))
        assert np.array_equal(bits, np.nonzero(dense)[1])

    @pytest.mark.parametrize("shape", [(0, 2), (4, 0), (3, 2)])
    def test_nonzero_bits_csr_empty(self, shape):
        counts, bits = bitops.nonzero_bits_csr(np.zeros(shape, dtype=np.uint64))
        assert np.array_equal(counts, np.zeros(shape[0]))
        assert bits.size == 0
