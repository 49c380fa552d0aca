"""Tests for noise-instruction normalization into channels."""

import numpy as np
import pytest

from repro.circuit.instructions import Instruction, PauliTarget
from repro.noise.channels import noise_channel, sample_patterns_batch

_FAIR_COIN = (0.5, 0.5)


def _channel(name, targets, args):
    return noise_channel(Instruction(name, tuple(targets), tuple(args)))


class TestFlipChannels:
    def test_x_error_single_symbol(self):
        channel = _channel("X_ERROR", [3], [0.2])
        assert channel.n_sites == 1
        assert len(channel.columns) == 1
        assert channel.actions(0) == ((("X", 3),),)
        assert channel.probabilities == (0.8, 0.2)

    def test_y_error_action(self):
        channel = _channel("Y_ERROR", [1], [0.5])
        assert channel.actions(0) == ((("Y", 1),),)

    def test_one_site_per_target(self):
        channel = _channel("Z_ERROR", [0, 1, 2], [0.1])
        assert channel.n_sites == 3
        assert channel.actions(2)[0][0] == ("Z", 2)


class TestDepolarize1:
    def test_paper_distribution(self):
        # §3.1: X^{s1} Z^{s2} with probabilities (1-p, p/3, p/3, p/3).
        channel = _channel("DEPOLARIZE1", [0], [0.3])
        assert len(channel.columns) == 2
        assert np.allclose(channel.probabilities, (0.7, 0.1, 0.1, 0.1))

    def test_actions_are_x_then_z(self):
        channel = _channel("DEPOLARIZE1", [5], [0.3])
        assert channel.actions(0) == ((("X", 5),), (("Z", 5),))

    def test_probabilities_sum_to_one(self):
        channel = _channel("DEPOLARIZE1", [0], [0.123])
        assert np.isclose(sum(channel.probabilities), 1.0)


class TestPauliChannel1:
    def test_pattern_placement(self):
        channel = _channel("PAULI_CHANNEL_1", [0], [0.1, 0.2, 0.3])
        # patterns: 0=I, 1=X, 2=Z, 3=Y (bit0=X symbol, bit1=Z symbol)
        assert np.allclose(channel.probabilities, (0.4, 0.1, 0.3, 0.2))


class TestDepolarize2:
    def test_sixteen_patterns(self):
        channel = _channel("DEPOLARIZE2", [0, 1], [0.15])
        assert len(channel.columns) == 4
        assert len(channel.probabilities) == 16
        assert np.isclose(channel.probabilities[0], 0.85)
        assert np.allclose(channel.probabilities[1:], 0.01)

    def test_pairs_split_into_sites(self):
        channel = _channel("DEPOLARIZE2", [0, 1, 2, 3], [0.1])
        assert channel.n_sites == 2
        assert channel.actions(1)[0] == (("X", 2),)


class TestPauliChannel2:
    def test_named_pair_lands_on_pattern(self):
        args = [0.0] * 15
        args[3] = 0.25  # "XI": X on first qubit only
        channel = _channel("PAULI_CHANNEL_2", [4, 7], args)
        # pattern with only Xa bit set is index 1
        assert np.isclose(channel.probabilities[1], 0.25)
        assert np.isclose(channel.probabilities[0], 0.75)

    def test_iz_pattern(self):
        args = [0.0] * 15
        args[2] = 0.5  # "IZ": Z on second qubit
        channel = _channel("PAULI_CHANNEL_2", [0, 1], args)
        assert np.isclose(channel.probabilities[0b1000], 0.5)


class TestCorrelatedError:
    def test_single_site_multi_qubit_action(self):
        inst = Instruction(
            "CORRELATED_ERROR",
            (PauliTarget("X", 0), PauliTarget("Z", 2)),
            (0.25,),
        )
        channel = noise_channel(inst)
        assert channel.n_sites == 1
        assert channel.actions(0) == ((("X", 0), ("Z", 2)),)
        assert channel.probabilities == (0.75, 0.25)


class TestSampling:
    def test_fair_coin_is_fair(self, rng):
        patterns = sample_patterns_batch(_FAIR_COIN, (20000,), rng)
        assert 0.48 < patterns.mean() < 0.52

    def test_pattern_frequencies(self, rng):
        channel = _channel("DEPOLARIZE1", [0], [0.3])
        patterns = sample_patterns_batch(channel.probabilities, (60000,), rng)
        freqs = np.bincount(patterns, minlength=4) / 60000
        assert np.allclose(freqs, (0.7, 0.1, 0.1, 0.1), atol=0.01)

    def test_pattern_bit_extraction(self):
        # Bit j of a joint pattern is symbol j's value (LSB first), the
        # rule every reader of a pattern applies.
        patterns = np.array([0b00, 0b01, 0b10, 0b11])
        assert np.array_equal(patterns >> 0 & 1, [0, 1, 0, 1])
        assert np.array_equal(patterns >> 1 & 1, [0, 0, 1, 1])

    def test_non_noise_rejected(self):
        with pytest.raises(ValueError):
            noise_channel(Instruction("H", (0,)))
