"""Tests for the symbol table and joint symbol sampling."""

import numpy as np
import pytest

from repro.circuit.instructions import Instruction, PauliTarget
from repro.core.symbols import SymbolTable
from repro.gf2 import bitops
from repro.gf2.transpose import transpose_bitmatrix
from repro.noise.channels import noise_channel


def _dep1(p=0.3, *qubits):
    return noise_channel(Instruction("DEPOLARIZE1", qubits or (0,), (p,)))


class TestAllocation:
    def test_indices_start_at_one(self):
        table = SymbolTable()
        assert table.allocate_measurement(0, 0) == 1

    def test_sequential_records(self):
        table = SymbolTable()
        first = table.allocate_noise(_dep1())
        second = table.allocate_measurement(0, 0)
        assert (first, second) == (1, 3)
        assert table.n_symbols == 3
        assert table.width == 4

    def test_one_record_per_instruction(self):
        table = SymbolTable()
        table.allocate_noise(_dep1(0.3, 4, 5, 6))
        (record,) = table.records
        assert (record.first, record.n_sites, record.symbols_per_site) == (1, 3, 2)
        assert record.stop == 7
        assert record.offsets().tolist() == [1, 3, 5]
        assert table.n_symbols == 6

    def test_labels_derived_from_records(self):
        table = SymbolTable()
        table.allocate_noise(_dep1(0.3, 4, 5))
        table.allocate_measurement(7, 2)
        table.allocate_noise(noise_channel(Instruction(
            "CORRELATED_ERROR", (PauliTarget("X", 1), PauliTarget("Y", 3)), (0.1,)
        )))
        labels = [table.label(i) for i in range(table.width)]
        assert labels == ["1", "X4", "Z4", "X5", "Z5", "m7(q2)", "X1*Y3"]

    def test_label_out_of_range(self):
        table = SymbolTable()
        table.allocate_measurement(0, 0)
        with pytest.raises(IndexError):
            table.label(2)

    def test_noise_symbol_indices(self):
        table = SymbolTable()
        table.allocate_noise(_dep1())
        table.allocate_measurement(0, 0)
        table.allocate_noise(_dep1())
        assert list(table.noise_symbol_indices()) == [1, 2, 4, 5]

    def test_sites_in_allocation_order(self):
        table = SymbolTable()
        table.allocate_noise(_dep1(0.3, 0, 1))
        table.allocate_measurement(0, 0)
        probabilities = _dep1().probabilities
        assert list(table.sites()) == [
            (1, 2, probabilities, "noise"),
            (3, 2, probabilities, "noise"),
            (5, 1, (0.5, 0.5), "measurement"),
        ]


class TestSampling:
    def test_constant_row_all_ones(self, rng):
        table = SymbolTable()
        table.allocate_measurement(0, 0)
        out = table.sample_symbol_major(100, rng)
        assert np.array_equal(
            bitops.unpack_bits(out[0], 100), np.ones(100, dtype=np.uint8)
        )

    def test_constant_row_padding_clear(self, rng):
        table = SymbolTable()
        table.allocate_measurement(0, 0)
        out = table.sample_symbol_major(70, rng)
        assert bitops.popcount(out[0]).sum() == 70

    def test_measurement_symbols_fair(self, rng):
        table = SymbolTable()
        table.allocate_measurement(0, 0)
        out = table.sample_symbol_major(40000, rng)
        density = bitops.popcount(out[1]).sum() / 40000
        assert 0.48 < density < 0.52

    def test_noise_symbols_follow_joint_distribution(self, rng):
        table = SymbolTable()
        table.allocate_noise(_dep1(0.3))
        out = table.sample_symbol_major(60000, rng)
        x_bits = bitops.unpack_bits(out[1], 60000)
        z_bits = bitops.unpack_bits(out[2], 60000)
        # Marginals of the (1-p, p/3, p/3, p/3) joint: P(x)=2p/3, P(z)=2p/3,
        # P(x & z)=p/3.
        assert abs(x_bits.mean() - 0.2) < 0.01
        assert abs(z_bits.mean() - 0.2) < 0.01
        assert abs((x_bits & z_bits).mean() - 0.1) < 0.01

    def test_every_site_of_a_record_is_drawn(self, rng):
        table = SymbolTable()
        table.allocate_noise(_dep1(0.75, 0, 1, 2))
        out = table.sample_symbol_major(4000, rng)
        for row in range(1, table.width):
            density = bitops.popcount(out[row]).sum() / 4000
            assert 0.45 < density < 0.55

    def test_shot_major_is_transpose_of_symbol_major(self, rng):
        """The shot-major layout Eq. 4's dense matmul consumes is the bit
        transpose of the drawn ``B``: shot ``s`` holds bit ``s`` of every
        symbol row."""
        table = SymbolTable()
        table.allocate_noise(_dep1())
        table.allocate_measurement(0, 0)
        symbol_major = table.sample_symbol_major(130, np.random.default_rng(99))
        shot_major = transpose_bitmatrix(symbol_major, table.width, 130)
        assert shot_major.shape == (130, bitops.words_for(table.width))
        expected = bitops.unpack_rows(symbol_major, 130).T
        assert np.array_equal(bitops.unpack_rows(shot_major, table.width), expected)
