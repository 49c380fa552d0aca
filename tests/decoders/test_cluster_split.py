"""The exact cluster split before the decode DP.

:meth:`CompiledMatchingDecoder._split` cuts rows with many defects into
clusters that decode independently; predictions must stay bitwise equal
to the unsplit decode core, kept here as :func:`unsplit_reference`.
"""

import os

import numpy as np
import pytest

import repro.decoders.compiled as compiled_module
import repro.obs as obs
from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.decoders.compiled import _MAX_DP_NODES, _SPLIT_MIN_DEFECTS
from repro.dem import DetectorErrorModel, ErrorMechanism
from repro.gf2 import bitops
from repro.qec import surface_code_dem


def comb_dem(n_detectors):
    """Detectors on a path of equal-weight edges, each also one such
    edge from the boundary (flipping the observable): only neighbours
    are linked, and every path mask between two defects is the XOR of
    their boundary masks."""
    dem = DetectorErrorModel(n_detectors=n_detectors, n_observables=1)
    for node in range(n_detectors):
        dem.add_group([ErrorMechanism(0.1, (node,), (0,))])
        if node + 1 < n_detectors:
            dem.add_group([ErrorMechanism(0.1, (node, node + 1), ())])
    return dem


def unsplit_reference(decoder, counts, flat):
    """The decode core before the split: gathers, one subset DP per
    padded defect count over whole rows, blossom for what it leaves.
    The split decode core must predict what this predicts, bit for
    bit."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    decoded = np.zeros((counts.size, decoder.n_observables), np.uint8)
    boundary = decoder._boundary
    (one,) = np.nonzero(counts == 1)
    if one.size:
        defect = flat[offsets[one]]
        finite = np.isfinite(decoder._dist[defect, boundary])
        decoded[one[finite]] = decoder._mask[defect[finite], boundary]
    (two,) = np.nonzero(counts == 2)
    if two.size:
        pairs = flat[offsets[two][:, None] + np.arange(2)]
        finite = np.isfinite(decoder._dist[pairs[:, 0], pairs[:, 1]])
        decoded[two[finite]] = decoder._mask[pairs[finite, 0], pairs[finite, 1]]
    fallback = [np.nonzero(counts > _MAX_DP_NODES)[0]]
    for padded in range(4, _MAX_DP_NODES + 2, 2):
        fallback.append(decoder._match_group(
            *decoder._group(counts, offsets, flat, padded), decoded
        ))
    for row in np.concatenate(fallback):
        decoded[row] = decoder._match(
            flat[offsets[row]: offsets[row] + counts[row]]
        )
    return decoded


def unique_rows(syndromes):
    """The CSR view the decode core reads: per-row defect counts and the
    flat defect stream of the distinct nonzero rows."""
    packed = bitops.pack_rows(syndromes)
    nonzero = bitops.nonzero_rows_packed(packed)
    unique, _ = bitops.dedupe_rows_packed(packed[nonzero])
    return bitops.nonzero_bits_csr(unique)


def split_rows_total():
    value = obs.registry().value(
        "repro_decode_split_rows_total", pid=str(os.getpid())
    )
    return value or 0


class TestEqualsUnsplitCore:
    """Sampled surface-memory rows decode bit for bit as the unsplit
    core; rows past the threshold are the ones the split can change, so
    most picks are those."""

    @pytest.mark.parametrize(
        "distance, probability",
        [(7, 0.002), (7, 0.005), (9, 0.002), (9, 0.005)],
    )
    def test_sampled_rows(self, distance, probability):
        dem = surface_code_dem(distance, rounds=distance, probability=probability)
        decoder = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(256, np.random.default_rng(distance))
        # Keep tier-1 fast: 24 rows past the threshold and 8 below.
        many = syndromes.sum(axis=1) > _SPLIT_MIN_DEFECTS
        picks = np.concatenate(
            [np.flatnonzero(many)[:24], np.flatnonzero(~many)[:8]]
        )
        counts, flat = unique_rows(syndromes[picks])
        obs.enable(tracing=False, metrics=True)
        decoded = decoder._decode_unique(counts, flat)
        assert split_rows_total() > 0
        assert np.array_equal(decoded, unsplit_reference(decoder, counts, flat))


class TestWhenToSplit:
    def test_rows_at_the_threshold_are_not_examined(self, monkeypatch):
        decoder = CompiledMatchingDecoder(comb_dem(16))
        seen = []
        clusters = decoder._clusters

        def recording(nodes):
            seen.append(nodes.shape)
            return clusters(nodes)

        monkeypatch.setattr(decoder, "_clusters", recording)
        rows = np.zeros((2, 16), dtype=np.uint8)
        rows[0, :_SPLIT_MIN_DEFECTS] = 1
        rows[1, -_SPLIT_MIN_DEFECTS:] = 1
        decoder.decode_batch(rows)
        assert seen == []
        rows[0, _SPLIT_MIN_DEFECTS] = rows[1, -_SPLIT_MIN_DEFECTS - 1] = 1
        decoder.decode_batch(rows)
        assert seen == [(2, _SPLIT_MIN_DEFECTS + 1)]

    def test_distant_pairs_split_into_clusters(self, monkeypatch):
        """Only neighbours are linked on the comb, so the row falls
        apart into two pairs and a lone defect; no piece needs blossom,
        and the row predicts the lone defect's boundary flip."""
        monkeypatch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
        dem = comb_dem(40)
        decoder = CompiledMatchingDecoder(dem)
        row = np.zeros((1, 40), dtype=np.uint8)
        row[0, [10, 11, 20, 21, 30]] = 1
        split, label = decoder._clusters(np.flatnonzero(row[0])[None])
        assert split.tolist() == [True]
        assert label.tolist() == [[0, 0, 2, 2, 4]]
        obs.enable(tracing=True, metrics=True)
        predicted = decoder.decode_batch(row)
        assert predicted.tolist() == [[1]]
        assert np.array_equal(predicted, MatchingDecoder(dem).decode_batch(row))
        assert split_rows_total() == 1
        assert "decode.blossom" not in {r.name for r in obs.drain_spans()}

    def test_unreachable_boundary_is_not_split(self, monkeypatch):
        """Detectors 4..7 form a cycle with no boundary edge: their
        boundary distance is infinite, so a row touching them stays
        whole (and decodes as the reference does).  No boundary edge
        flips the observable, so every mask agrees and only the
        finite-distance condition keeps the row whole."""
        monkeypatch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
        dem = DetectorErrorModel(n_detectors=8, n_observables=1)
        for edge in ((0,), (0, 1), (1, 2), (2, 3), (3,)):
            dem.add_group([ErrorMechanism(0.1, edge, ())])
        for edge in ((4, 5), (5, 6), (6, 7), (7, 4)):
            observables = (0,) if edge == (4, 5) else ()
            dem.add_group([ErrorMechanism(0.1, edge, observables)])
        decoder = CompiledMatchingDecoder(dem)
        assert np.isinf(decoder._dist[4, decoder._boundary])
        rows = np.array(
            [[1, 0, 0, 1, 1, 1, 0, 0], [1, 0, 0, 0, 1, 1, 1, 1],
             [0, 0, 0, 0, 1, 1, 1, 1], [1, 0, 0, 1, 0, 0, 0, 0]],
            dtype=np.uint8,
        )
        split, label = decoder._clusters(np.array([[0, 3, 4, 5]]))
        assert label.tolist() == [[0, 1, 2, 2]]
        assert split.tolist() == [False]
        obs.enable(tracing=False, metrics=True)
        assert np.array_equal(
            decoder.decode_batch(rows), MatchingDecoder(dem).decode_batch(rows)
        )
        # Only the last row (two defects far apart at both ends of the
        # path) sits on reachable detectors, and it has too few defects.
        assert split_rows_total() == 0

    def test_tied_cross_mask_is_not_split(self, monkeypatch):
        """Defects 0, 2 and 3 are pairwise unlinked (three clusters), but
        0 and 2 tie between the path through 1 and the path through the
        boundary, and the table holds the first one, whose mask is not
        the XOR of their boundary masks: the row stays whole.  A split
        would predict 1; the reference's matching predicts 0."""
        monkeypatch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
        dem = DetectorErrorModel(n_detectors=4, n_observables=1)
        # The 0-1 edge comes first, so Dijkstra from 0 reaches 2 via 1.
        dem.add_group([ErrorMechanism(0.1, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.1, (1, 2), ())])
        dem.add_group([ErrorMechanism(0.1, (0,), (0,))])
        dem.add_group([ErrorMechanism(0.1, (2,), ())])
        dem.add_group([ErrorMechanism(0.1, (3,), ())])
        decoder = CompiledMatchingDecoder(dem)
        boundary = decoder._boundary
        assert decoder._dist[0, 2] == (
            decoder._dist[0, boundary] + decoder._dist[2, boundary]
        )
        assert decoder._mask[0, 2].tolist() == [0]
        split, label = decoder._clusters(np.array([[0, 2, 3]]))
        assert label.tolist() == [[0, 1, 2]]
        assert split.tolist() == [False]
        row = np.array([[1, 0, 1, 1]], dtype=np.uint8)
        assert decoder.decode_batch(row).tolist() == [[0]]
        assert MatchingDecoder(dem).decode_batch(row).tolist() == [[0]]


class TestSplitCounters:
    def test_split_rows_counted_beside_the_tiers(self, monkeypatch):
        """Split rows count once each; DP plus blossom rows still add up
        to the rows with three or more defects."""
        monkeypatch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
        decoder = CompiledMatchingDecoder(comb_dem(40))
        rows = np.zeros((3, 40), dtype=np.uint8)
        rows[0, [10, 11, 20, 21, 30]] = 1  # splits
        rows[1, [10, 11, 12]] = 1  # one cluster
        rows[2, [5, 30]] = 1  # two defects
        obs.enable(tracing=False, metrics=True)
        decoder.decode_batch(rows)
        pid = str(os.getpid())
        assert split_rows_total() == 1
        assert obs.registry().value("repro_decode_dp_rows_total", pid=pid) == 2
        assert (
            obs.registry().value("repro_decode_fallback_rows_total", pid=pid)
            == 0
        )
