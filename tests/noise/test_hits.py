"""Tests for the sparse hit draw shared by the batch samplers."""

import numpy as np
import pytest

from repro.circuit.instructions import Instruction
from repro.noise import channels
from repro.noise.channels import hit_plan, noise_channel, sample_hits


def _probabilities(name, p):
    return noise_channel(Instruction(name, (0, 1), (p,))).probabilities


def _collect(probabilities, n_sites, shots, rng):
    slabs = list(sample_hits(hit_plan(probabilities), n_sites, shots, rng))
    if not slabs:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, np.zeros(0, dtype=np.uint8)
    return tuple(np.concatenate(part) for part in zip(*slabs))


def _grid(probabilities, n_sites, shots, rng):
    """The hits as a dense (n_sites, shots) pattern grid."""
    sites, shot_indices, patterns = _collect(probabilities, n_sites, shots, rng)
    grid = np.zeros((n_sites, shots), dtype=np.uint8)
    grid[sites, shot_indices] = patterns
    return grid


class TestLayout:
    @pytest.mark.parametrize("p", [0.001, 0.03, 0.2, 0.5])
    @pytest.mark.parametrize("name", ["DEPOLARIZE1", "DEPOLARIZE2"])
    def test_hits_distinct_sorted_in_range(self, rng, name, p):
        probabilities = _probabilities(name, p)
        n_sites, shots = 300, 257
        sites, shot_indices, patterns = _collect(
            probabilities, n_sites, shots, rng
        )
        cells = sites * shots + shot_indices
        assert cells.size > 0
        assert np.all(np.diff(cells) > 0)  # distinct and (site, shot) sorted
        assert sites.min() >= 0 and sites.max() < n_sites
        assert shot_indices.min() >= 0 and shot_indices.max() < shots
        assert patterns.min() >= 1
        assert patterns.max() < len(probabilities)

    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_slabs_come_in_site_order(self, rng, monkeypatch, p):
        monkeypatch.setattr(channels, "_SLAB_ELEMENTS", 20)
        probabilities = _probabilities("DEPOLARIZE1", p)
        slabs = list(sample_hits(hit_plan(probabilities), 400, 70, rng))
        assert len(slabs) > 1
        sites, shot_indices, _ = (np.concatenate(x) for x in zip(*slabs))
        assert np.all(np.diff(sites * 70 + shot_indices) > 0)
        assert sites.max() < 400


class TestEdges:
    @pytest.mark.parametrize("shots", [1, 63, 64, 65])
    @pytest.mark.parametrize("p", [0.02, 0.4])
    def test_word_boundary_shots(self, rng, shots, p):
        grid = _grid(_probabilities("DEPOLARIZE1", p), 500, shots, rng)
        assert grid.shape == (500, shots)
        rate = np.count_nonzero(grid) / grid.size
        sigma = np.sqrt(p * (1 - p) / grid.size)
        assert abs(rate - p) < 6 * sigma + 1e-9

    def test_zero_probability_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert list(sample_hits(hit_plan((1.0, 0.0)), 100, 100, rng)) == []
        assert rng.bit_generator.state == state

    def test_no_sites_draws_nothing(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        assert list(sample_hits(hit_plan((0.5, 0.5)), 0, 100, rng)) == []
        assert rng.bit_generator.state == state

    def test_vanishing_probability_terminates(self, rng):
        """Geometric gaps at p ~ 1e-20 saturate int64; the draw must
        still end, with no hits."""
        hits = _collect((1.0, 1e-20), 1000, 1000, rng)
        assert hits[0].size == 0

    def test_certain_fault_hits_everywhere(self, rng):
        grid = _grid((0.0, 1.0), 7, 65, rng)
        assert (grid == 1).all()

    def test_same_seed_same_hits(self):
        probabilities = _probabilities("DEPOLARIZE2", 0.01)
        a = _collect(probabilities, 200, 300, np.random.default_rng(8))
        b = _collect(probabilities, 200, 300, np.random.default_rng(8))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestFrequencies:
    @pytest.mark.parametrize("p", [0.001, 0.03, 0.2, 0.5])
    @pytest.mark.parametrize("name", ["DEPOLARIZE1", "DEPOLARIZE2"])
    def test_pattern_counts_within_binomial_bounds(self, rng, name, p):
        probabilities = np.asarray(_probabilities(name, p))
        n_sites, shots = 1000, 1000
        _, _, patterns = _collect(probabilities, n_sites, shots, rng)
        counts = np.bincount(patterns, minlength=len(probabilities))
        cells = n_sites * shots
        expected = cells * probabilities
        sigma = np.sqrt(cells * probabilities * (1 - probabilities))
        # Pattern 0 (identity) is never returned; its count is implied.
        counts[0] = cells - counts[1:].sum()
        assert np.all(np.abs(counts - expected) <= 6 * sigma + 1), (
            counts, expected
        )

    def test_biased_channel_keeps_its_conditional_distribution(self, rng):
        """A hit's Pauli follows probabilities[1:] / p_hit, not a uniform
        pick among the non-identity patterns."""
        instruction = Instruction("PAULI_CHANNEL_1", (0,), (0.002, 0.01, 0.03))
        probabilities = np.asarray(noise_channel(instruction).probabilities)
        _, _, patterns = _collect(probabilities, 1000, 1000, rng)
        counts = np.bincount(patterns, minlength=4)[1:]
        expected = 1_000_000 * probabilities[1:]
        sigma = np.sqrt(expected)
        assert np.all(np.abs(counts - expected) <= 6 * sigma), (
            counts, expected
        )

    def test_sites_and_shots_uniform(self, rng):
        """Hits spread evenly over sites and shots (no positional bias
        from the gap draw or the slab split)."""
        sites, shot_indices, _ = _collect((0.97, 0.03), 64, 4000, rng)
        for index, n in ((sites, 64), (shot_indices % 64, 64)):
            counts = np.bincount(index, minlength=n)
            mean = counts.mean()
            assert np.all(np.abs(counts - mean) < 6 * np.sqrt(mean))
