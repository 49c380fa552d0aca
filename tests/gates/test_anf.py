"""Tests for ANF kernel derivation."""

import numpy as np
import pytest

from repro.gates.anf import gate_kernel, moebius_transform
from repro.gates.tables import conjugation_table
from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q


class TestMoebius:
    def test_constant_zero(self):
        assert not moebius_transform(np.zeros(4, dtype=np.uint8)).any()

    def test_constant_one(self):
        coeffs = moebius_transform(np.ones(4, dtype=np.uint8))
        assert coeffs.tolist() == [1, 0, 0, 0]

    def test_single_variable(self):
        # f(x0, x1) = x0  (truth table indexed by bits: f=1 when bit0 set)
        values = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert moebius_transform(values).tolist() == [0, 1, 0, 0]

    def test_and(self):
        values = np.array([0, 0, 0, 1], dtype=np.uint8)
        assert moebius_transform(values).tolist() == [0, 0, 0, 1]

    def test_xor(self):
        values = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert moebius_transform(values).tolist() == [0, 1, 1, 0]

    def test_involution(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 2, 16).astype(np.uint8)
        assert np.array_equal(
            moebius_transform(moebius_transform(values)), values
        )

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            moebius_transform(np.zeros(3, dtype=np.uint8))


class TestKernelsMatchTables:
    @pytest.mark.parametrize("name", sorted(UNITARIES_1Q))
    def test_1q_kernels(self, name):
        kernel = gate_kernel(name)
        table = conjugation_table(name)
        for x in (0, 1):
            for z in (0, 1):
                words = [
                    np.array([_U(x)], dtype=np.uint64),
                    np.array([_U(z)], dtype=np.uint64),
                ]
                nx, nz, flip = (int(w[0] & 1) for w in kernel.evaluate(words))
                idx = (x << 1) | z
                assert (nx, nz) == tuple(table.outputs[idx][:2])
                assert flip == table.flips[idx]

    @pytest.mark.parametrize("name", sorted(UNITARIES_2Q))
    def test_2q_kernels(self, name):
        kernel = gate_kernel(name)
        table = conjugation_table(name)
        for idx in range(16):
            bits = [(idx >> (3 - j)) & 1 for j in range(4)]
            words = [np.array([_U(b)], dtype=np.uint64) for b in bits]
            outs = [int(w[0] & 1) for w in kernel.evaluate(words)]
            assert outs[:4] == list(table.outputs[idx])
            assert outs[4] == table.flips[idx]

    def test_word_parallelism(self):
        # 64 independent rows through an S gate in one word.
        rng = np.random.default_rng(1)
        xs = rng.integers(0, 2**64, dtype=np.uint64)
        zs = rng.integers(0, 2**64, dtype=np.uint64)
        kernel = gate_kernel("S")
        nx, nz, flip = kernel.evaluate(
            [np.array([xs]), np.array([zs])]
        )
        # S: x' = x, z' = x ^ z, flip = x & z.
        assert nx[0] == xs
        assert nz[0] == xs ^ zs
        assert flip[0] == xs & zs


def _U(bit: int) -> np.uint64:
    return np.uint64(bit)


class TestNoConstantTerm:
    @pytest.mark.parametrize("name", sorted(UNITARIES_1Q) + sorted(UNITARIES_2Q))
    def test_kernel_keeps_uint8_columns(self, name):
        # I maps to +I, so no output has a constant monomial and 0/1 byte
        # columns stay bytes (no upcast to the word type).
        kernel = gate_kernel(name)
        assert all(() not in terms for terms in kernel.monomials)
        columns = [np.zeros((3, 2), dtype=np.uint8)] * (2 * kernel.n_qubits)
        for out in kernel.evaluate(columns):
            assert out.dtype == np.uint8 and not out.any()

    def test_constant_term_fails_loudly(self, monkeypatch):
        import repro.gates.anf as anf

        table = conjugation_table("H")
        flipped = type(table)(table.n_qubits, table.outputs, table.flips ^ 1)
        monkeypatch.setattr(anf, "conjugation_table", lambda name: flipped)
        with pytest.raises(AssertionError, match="constant term"):
            anf.gate_kernel.__wrapped__("H")
