"""Tests for the matching and lookup decoders."""

import numpy as np
import pytest

from repro.decoders import LookupDecoder, MatchingDecoder, logical_error_rate
from repro.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.qec import repetition_code_memory, surface_code_memory


def tiny_dem() -> DetectorErrorModel:
    """Three-detector line: boundary - D0 - D1 - D2 - boundary."""
    dem = DetectorErrorModel(n_detectors=3, n_observables=1)
    dem.add_group([ErrorMechanism(0.1, (0,), (0,))])      # left boundary
    dem.add_group([ErrorMechanism(0.1, (0, 1), ())])
    dem.add_group([ErrorMechanism(0.1, (1, 2), ())])
    dem.add_group([ErrorMechanism(0.1, (2,), ())])        # right boundary
    return dem


class TestMatchingDecoderBasics:
    def test_trivial_syndrome(self):
        decoder = MatchingDecoder(tiny_dem())
        assert not decoder.decode(np.zeros(3, dtype=np.uint8)).any()

    def test_single_defect_matches_to_boundary(self):
        decoder = MatchingDecoder(tiny_dem())
        # Defect at D0: cheapest explanation is the left-boundary fault,
        # which flips the observable.
        assert decoder.decode(np.array([1, 0, 0])).tolist() == [1]
        # Defect at D2: right boundary, no observable flip.
        assert decoder.decode(np.array([0, 0, 1])).tolist() == [0]

    def test_defect_pair_matches_internally(self):
        decoder = MatchingDecoder(tiny_dem())
        assert decoder.decode(np.array([1, 1, 0])).tolist() == [0]

    def test_batch_matches_single(self):
        decoder = MatchingDecoder(tiny_dem())
        syndromes = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 0, 1]], dtype=np.uint8
        )
        batch = decoder.decode_batch(syndromes)
        singles = np.stack([decoder.decode(s) for s in syndromes])
        assert np.array_equal(batch, singles)

    def test_weights_favor_likely_mechanisms(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        # Two explanations for defect pair (D0, D1): a likely direct edge
        # with no logical flip vs an unlikely boundary-boundary pair that
        # flips the observable.
        dem.add_group([ErrorMechanism(0.2, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.001, (0,), (0,))])
        dem.add_group([ErrorMechanism(0.001, (1,), ())])
        decoder = MatchingDecoder(dem)
        assert decoder.decode(np.array([1, 1])).tolist() == [0]


class TestNegativeWeightEdges:
    """An edge with p > 0.5 has a negative weight: both matching
    decoders refuse it at compile time with the same message (the
    reference used to die inside NetworkX, the compiled decoder to
    decode silently)."""

    @pytest.mark.parametrize("name", ["matching", "compiled-matching"])
    def test_edge_above_half_rejected(self, name):
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0,), ())])
        dem.add_group([ErrorMechanism(0.6, (0, 1), (0,))])
        with pytest.raises(
            ValueError, match=r"edge \(D0, D1\) has probability 0\.6 > 0\.5"
        ):
            dem.compile_decoder(name)

    @pytest.mark.parametrize("name", ["matching", "compiled-matching"])
    def test_boundary_edge_named(self, name):
        dem = DetectorErrorModel(n_detectors=1, n_observables=1)
        dem.add_group([ErrorMechanism(0.75, (0,), (0,))])
        with pytest.raises(ValueError, match=r"\(D0, boundary\)"):
            dem.compile_decoder(name)

    def test_validation_leaves_no_reference_cycle(self):
        # The compiled decoder drops the graph after lowering it; a
        # cycle (e.g. through the cached graph.edges view) would keep
        # it alive until a full garbage collection.
        import gc
        import weakref

        from repro.decoders.matching import build_decoding_graph

        gc.disable()
        try:
            graph = weakref.ref(build_decoding_graph(tiny_dem()))
            assert graph() is None
        finally:
            gc.enable()

    def test_half_probability_edge_allowed(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.5, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.1, (0,), ())])
        assert MatchingDecoder(dem).graph[0][1]["weight"] == 0.0


class TestLookupDecoder:
    def test_exact_on_tiny_dem(self):
        decoder = LookupDecoder(tiny_dem(), max_weight=2)
        assert decoder.decode(np.array([1, 0, 0])).tolist() == [1]
        assert decoder.decode(np.array([1, 1, 0])).tolist() == [0]

    def test_unknown_syndrome_returns_zeros(self):
        decoder = LookupDecoder(tiny_dem(), max_weight=1)
        # weight-1 enumeration cannot reach (1, 0, 1)
        assert decoder.decode(np.array([1, 0, 1])).tolist() == [0]

    def test_agrees_with_matching_on_repetition_code(self):
        circuit = repetition_code_memory(
            3, 2, data_flip_probability=0.05, measure_flip_probability=0.05
        )
        dem = extract_dem(circuit)
        lookup = LookupDecoder(dem, max_weight=2)
        matching = MatchingDecoder(dem)
        rng = np.random.default_rng(0)
        det, _ = dem.sample(300, rng)
        agreements = sum(
            np.array_equal(lookup.decode(s), matching.decode(s))
            for s in det
        )
        # MAP and MWPM may differ on rare degenerate syndromes only.
        assert agreements >= 290

    def test_map_score_uses_log_odds(self):
        """Regression: sum-log-p and sum-log-odds rank these fault sets
        differently, and only log-odds is the true MAP ranking.

        Syndrome (D0, D1) is explained by mechanism a (p=0.4, no flip)
        or by {b, c} (p=0.49 each, flips L0).  Raw likelihoods favor a
        (log 0.4 > log 0.49 + log 0.49) but the posterior odds favor
        {b, c}: logit(0.49) + logit(0.49) = -0.08 > logit(0.4) = -0.41.
        """
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.4, (0, 1), ())])       # a
        dem.add_group([ErrorMechanism(0.49, (0,), (0,))])      # b
        dem.add_group([ErrorMechanism(0.49, (1,), ())])        # c
        decoder = LookupDecoder(dem, max_weight=2)
        assert decoder.decode(np.array([1, 1])).tolist() == [1]

    @pytest.mark.parametrize(
        "p,min_agree", [(0.01, 298), (0.05, 293), (0.12, 283)]
    )
    def test_agrees_with_matching_across_p(self, p, min_agree):
        """MWPM minimizes the same sum-of-log-odds objective the fixed
        lookup score maximizes, so they agree except on degenerate
        syndromes and (at high p) syndromes beyond the enumeration cap.
        """
        circuit = repetition_code_memory(
            3, 2, data_flip_probability=p, measure_flip_probability=p
        )
        dem = extract_dem(circuit)
        lookup = LookupDecoder(dem, max_weight=3)
        matching = MatchingDecoder(dem)
        det, _ = dem.sample(300, np.random.default_rng(int(p * 1000)))
        agreements = sum(
            np.array_equal(lookup.decode(s), matching.decode(s))
            for s in det
        )
        assert agreements >= min_agree

    def test_zero_shot_batch(self):
        decoder = LookupDecoder(tiny_dem())
        out = decoder.decode_batch(np.zeros((0, 3), dtype=np.uint8))
        assert out.shape == (0, 1)
        assert out.dtype == np.uint8

    def test_table_size_grows_with_weight(self):
        dem = extract_dem(repetition_code_memory(
            3, 2, data_flip_probability=0.05
        ))
        small = LookupDecoder(dem, max_weight=1)
        large = LookupDecoder(dem, max_weight=2)
        assert large.n_syndromes > small.n_syndromes


class TestLogicalErrorRates:
    def test_repetition_code_suppression_with_distance(self):
        rates = []
        for d in (3, 5):
            circuit = repetition_code_memory(
                d, rounds=3,
                data_flip_probability=0.05,
                measure_flip_probability=0.05,
            )
            decoder = MatchingDecoder(extract_dem(circuit))
            rates.append(
                logical_error_rate(
                    circuit, decoder, 3000, np.random.default_rng(1)
                )
            )
        assert rates[1] < rates[0]
        assert rates[0] < 0.15

    def test_decoding_beats_no_decoding(self):
        circuit = repetition_code_memory(
            5, rounds=3, data_flip_probability=0.08
        )
        decoder = MatchingDecoder(extract_dem(circuit))
        decoded = logical_error_rate(
            circuit, decoder, 3000, np.random.default_rng(2)
        )
        from repro.core import compile_sampler
        _, obs = compile_sampler(circuit).sample_detectors(
            3000, np.random.default_rng(2)
        )
        undecoded = obs.any(axis=1).mean()
        assert decoded < undecoded

    def test_surface_code_decodes(self):
        circuit = surface_code_memory(
            3, rounds=3,
            after_clifford_depolarization=0.002,
            before_measure_flip_probability=0.002,
        )
        decoder = MatchingDecoder(extract_dem(circuit))
        rate = logical_error_rate(
            circuit, decoder, 1000, np.random.default_rng(3)
        )
        assert rate < 0.05
