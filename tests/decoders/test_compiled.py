"""CompiledMatchingDecoder: bitwise equivalence with the reference.

The compiled decoder's whole contract is "same predictions, much
faster": all-pairs Dijkstra at compile time must reproduce the
reference's per-shot path-finding exactly, including tie-breaking
between equal-weight paths (middle-of-the-code defects genuinely tie).
"""

import numpy as np
import pytest

import repro.obs as obs
from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.dem import DetectorErrorModel, ErrorMechanism
from repro.engine import Task, collect
from repro.gf2 import bitops
from repro.qec import repetition_code_dem, surface_code_dem, surface_code_memory


@pytest.fixture(scope="module")
def surface_dems():
    return {
        d: surface_code_dem(d, rounds=2, probability=0.004)
        for d in (3, 5, 7)
    }


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_surface_code_predictions_identical(self, surface_dems, distance):
        dem = surface_dems[distance]
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        shots = 512 if distance < 7 else 192
        syndromes, _ = dem.sample(shots, np.random.default_rng(distance))
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )

    def test_repetition_code_predictions_identical(self):
        dem = repetition_code_dem(5, rounds=4, probability=0.08)
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(2000, np.random.default_rng(0))
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )

    def test_every_defect_parity_path(self, surface_dems):
        """Zero, single (odd -> boundary), pair, and many-defect
        syndromes all agree shot by shot."""
        dem = surface_dems[3]
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        rows = [np.zeros(dem.n_detectors, dtype=np.uint8)]
        for k in (1, 2, 3, 4, 5, 7):
            row = np.zeros(dem.n_detectors, dtype=np.uint8)
            row[np.random.default_rng(k).choice(
                dem.n_detectors, size=k, replace=False
            )] = 1
            rows.append(row)
        for row in rows:
            assert np.array_equal(
                compiled.decode(row), reference.decode(row)
            ), f"defect count {int(row.sum())}"


class TestDynamicProgramRange:
    """d=7, r=7 at p=0.002: syndromes picked by defect count cover every
    padded k from 14 to 24 — the dynamic program up to 20 nodes and
    blossom matching above it."""

    @pytest.fixture(scope="class")
    def d7r7(self):
        dem = surface_code_dem(7, rounds=7, probability=0.002)
        syndromes, _ = dem.sample(4096, np.random.default_rng(0))
        counts = syndromes.sum(axis=1)
        picks = [np.flatnonzero(counts == k)[:1] for k in range(13, 25)]
        assert all(pick.size for pick in picks)
        return dem, syndromes[np.concatenate(picks)]

    def test_unpacked_and_packed_match_reference(self, d7r7):
        dem, syndromes = d7r7
        compiled = CompiledMatchingDecoder(dem)
        expected = MatchingDecoder(dem).decode_batch(syndromes)
        assert np.array_equal(compiled.decode_batch(syndromes), expected)
        assert np.array_equal(
            compiled.decode_batch_packed(bitops.pack_rows(syndromes)),
            bitops.pack_rows(expected),
        )


class TestEdgeCases:
    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_wrong_width_syndromes_rejected(self, width):
        # An extra column used to be read as the boundary node and
        # decode silently ([[1, 0, 1]] -> [[1]]); wider rows died with
        # a bare IndexError.
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0,), (0,))])
        dem.add_group([ErrorMechanism(0.1, (0, 1), ())])
        compiled = CompiledMatchingDecoder(dem)
        syndromes = np.zeros((1, width), dtype=np.uint8)
        syndromes[0, 0] = syndromes[0, -1] = 1
        with pytest.raises(ValueError, match=rf"\(shots, 2\).*\(1, {width}\)"):
            compiled.decode_batch(syndromes)
        with pytest.raises(ValueError, match=r"\(shots, 2\)"):
            compiled.decode(syndromes[0])

    def test_one_dimensional_batch_rejected(self, surface_dems):
        dem = surface_dems[3]
        compiled = CompiledMatchingDecoder(dem)
        with pytest.raises(ValueError, match="shape"):
            compiled.decode_batch(np.zeros(dem.n_detectors, dtype=np.uint8))

    def test_zero_shots(self, surface_dems):
        dem = surface_dems[3]
        for decoder in (MatchingDecoder(dem), CompiledMatchingDecoder(dem)):
            empty = np.zeros((0, dem.n_detectors), dtype=np.uint8)
            out = decoder.decode_batch(empty)
            assert out.shape == (0, dem.n_observables)
            assert out.dtype == np.uint8

    def test_zero_defect_batch(self, surface_dems):
        dem = surface_dems[3]
        decoder = CompiledMatchingDecoder(dem)
        out = decoder.decode_batch(
            np.zeros((5, dem.n_detectors), dtype=np.uint8)
        )
        assert out.shape == (5, dem.n_observables)
        assert not out.any()

    def test_unreachable_defect_decodes_to_zeros(self):
        # Two disconnected components, no boundary edges: a defect pair
        # split across components cannot be matched.
        dem = DetectorErrorModel(n_detectors=4, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.1, (2, 3), ())])
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        syndromes = np.array(
            [
                [1, 0, 1, 0],  # unmatched pair across components
                [1, 1, 0, 0],  # matched within the first component
                [1, 0, 0, 0],  # odd, boundary unreachable
                [1, 1, 1, 0],  # odd with one cross-component defect
            ],
            dtype=np.uint8,
        )
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )

    def test_single_detector_dem(self):
        dem = DetectorErrorModel(n_detectors=1, n_observables=1)
        dem.add_group([ErrorMechanism(0.2, (0,), (0,))])
        compiled = CompiledMatchingDecoder(dem)
        assert compiled.decode(np.array([1], dtype=np.uint8)).tolist() == [1]
        assert compiled.decode(np.array([0], dtype=np.uint8)).tolist() == [0]


class TestParallelEdgeProbabilities:
    def test_equal_mask_parallel_edges_xor_convolve(self):
        # Two independent mechanisms on the same detector pair with the
        # same observable signature: the edge must carry
        # p1(1-p2) + p2(1-p1), i.e. be *more* likely than either alone.
        dem_two = DetectorErrorModel(n_detectors=2, n_observables=0)
        dem_two.add_group([ErrorMechanism(0.1, (0, 1), ())])
        dem_two.add_group([ErrorMechanism(0.2, (0, 1), ())])
        graph = MatchingDecoder(dem_two).graph
        assert graph[0][1]["probability"] == pytest.approx(
            0.1 * 0.8 + 0.2 * 0.9
        )

    def test_differing_mask_keeps_lighter_edge(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.05, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.2, (0, 1), ())])
        graph = MatchingDecoder(dem).graph
        assert graph[0][1]["probability"] == pytest.approx(0.2)
        assert graph[0][1]["mask"].tolist() == [0]

    def test_convolved_edge_changes_decoding(self):
        # Without the parallel-edge fix the direct (D0, D1) edge keeps
        # only p=0.12 (weight 1.99) and loses to the two boundary edges
        # (combined weight 1.93); with XOR convolution it carries
        # p~0.216 and wins, flipping the prediction.
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.12, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.12, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.275, (0,), (0,))])
        dem.add_group([ErrorMechanism(0.275, (1,), ())])
        for decoder in (MatchingDecoder(dem), CompiledMatchingDecoder(dem)):
            assert decoder.decode(np.array([1, 1])).tolist() == [0]


class TestDecodeTierStages:
    """The subset DP and the blossom fallback each run inside one span
    per batch, so their time shows up as ``decode.dp`` and
    ``decode.blossom`` in ``repro_stage_seconds_total``."""

    @staticmethod
    def stage_totals():
        totals = {}
        for labels, metric in obs.registry().select(
            "repro_stage_seconds_total"
        ):
            totals[labels["stage"]] = (
                totals.get(labels["stage"], 0.0) + metric.value
            )
        return totals

    def test_tiers_within_decode_stage_at_d5_r5(self):
        circuit = surface_code_memory(
            5, rounds=5,
            after_clifford_depolarization=0.005,
            before_measure_flip_probability=0.005,
        )
        task = Task(circuit, decoder="compiled-matching", sampler="frame",
                    max_shots=1024)
        collect([task], base_seed=7, chunk_shots=512, profile=True)
        totals = self.stage_totals()
        assert "decode.dp" in totals
        tiers = totals["decode.dp"] + totals.get("decode.blossom", 0.0)
        assert tiers <= totals["decode"]

    def test_blossom_span_only_when_rows_fall_back(self, surface_dems):
        dem = surface_dems[7]
        compiled = CompiledMatchingDecoder(dem)
        syndromes = np.zeros((2, dem.n_detectors), dtype=np.uint8)
        syndromes[1, np.random.default_rng(0).choice(
            dem.n_detectors, size=23, replace=False
        )] = 1
        obs.enable(tracing=True, metrics=True)
        compiled.decode_batch(syndromes[:1])
        assert "decode.blossom" not in {r.name for r in obs.drain_spans()}
        compiled.decode_batch(syndromes)
        (blossom,) = [
            r for r in obs.drain_spans() if r.name == "decode.blossom"
        ]
        assert blossom.attrs == {"rows": 1}
        assert self.stage_totals()["decode.blossom"] == blossom.duration
