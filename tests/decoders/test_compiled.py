"""CompiledMatchingDecoder: bitwise equivalence with the reference.

The compiled decoder's whole contract is "same predictions, much
faster": the all-pairs tables built at compile time must reproduce the
reference's per-shot path-finding exactly, including tie-breaking
between equal-weight paths (middle-of-the-code defects genuinely tie).
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.decoders.compiled as compiled_module
import repro.decoders.matching as matching_module
import repro.obs as obs
from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.decoders.matching import (
    BOUNDARY,
    build_decoding_graph,
    dedupe_rows,
    edge_weight,
)
from repro.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.engine import Task, collect
from repro.engine.cache import reset_shared_cache
from repro.gf2 import bitops
from repro.qec import repetition_code_dem, surface_code_dem, surface_code_memory
from tests.core.test_scatter import kinds_circuit, mixed_circuit


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
    padded k from 14 to 24 — the dynamic program up to 18 nodes and
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


def dedupe_reference(decoder, syndromes):
    """``decode_batch`` before it went through the packed path: an
    ``np.unique(axis=0)`` dedupe of the uint8 rows, then the decode
    core on every unique row (the zero row included)."""
    unique, inverse = dedupe_rows(syndromes)
    rows, flat = np.nonzero(unique)
    counts = np.bincount(rows, minlength=unique.shape[0])
    return decoder._decode_unique(counts, flat)[inverse]


class TestOnePackedPath:
    """``decode_batch`` packs and runs ``decode_batch_packed``; it must
    predict what the unpacked dedupe front-end predicted."""

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_matches_the_dedupe_front_end(self, surface_dems, distance):
        dem = surface_dems[distance]
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(300, np.random.default_rng(distance))
        # Repeated rows, zero rows and a nonzero entry other than 1.
        syndromes = np.vstack([syndromes, syndromes[:50], 0 * syndromes[:3]])
        syndromes[0, :3] = 2
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            dedupe_reference(compiled, syndromes),
        )

    def test_repetition_code(self):
        dem = repetition_code_dem(5, rounds=4, probability=0.08)
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(500, np.random.default_rng(1))
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            dedupe_reference(compiled, syndromes),
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


def _grid_dem(width: int, height: int, probability: float = 0.1):
    """A ``width`` x ``height`` grid of detectors with equal-weight
    edges, boundary edges on the left (flipping L0) and right columns:
    every middle-column node is equally far from both boundaries along
    paths with different masks."""
    dem = DetectorErrorModel(n_detectors=width * height, n_observables=1)
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                dem.add_group([ErrorMechanism(probability, (node, node + 1), ())])
            if y + 1 < height:
                dem.add_group(
                    [ErrorMechanism(probability, (node, node + width), ())]
                )
        dem.add_group([ErrorMechanism(probability, (y * width,), (0,))])
        dem.add_group(
            [ErrorMechanism(probability, (y * width + width - 1,), ())]
        )
    return dem


def _assert_tables_exact(decoder: CompiledMatchingDecoder) -> None:
    dist, mask = decoder._exact_tables()
    assert decoder._dist.tobytes() == dist.tobytes()
    assert decoder._mask.shape == mask.shape
    assert np.array_equal(decoder._mask, mask)


def _all_syndromes(n_detectors: int) -> np.ndarray:
    index = np.arange(1 << n_detectors)
    return ((index[:, None] >> np.arange(n_detectors)) & 1).astype(np.uint8)


class TestVectorizedCompile:
    """The all-pairs tables come from a min-plus relaxation over slabs of
    sources plus a tight-edge mask check; they must equal the per-source
    NetworkX-identical Dijkstra bit for bit."""

    @pytest.mark.parametrize("distance", [3, 5, 7])
    def test_tables_match_per_source_dijkstra(self, distance):
        dem = surface_code_dem(distance, rounds=distance, probability=0.002)
        _assert_tables_exact(CompiledMatchingDecoder(dem))

    def test_exact_rows_match_networkx(self):
        # Anchor the exact path itself: distances and path masks from
        # nx.single_source_dijkstra, the reference decoder's call.
        import networkx as nx

        from repro.decoders.matching import BOUNDARY

        dem = surface_code_dem(3, rounds=3, probability=0.002)
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        nodes = list(range(dem.n_detectors)) + [BOUNDARY]
        for source_index, source in enumerate(nodes):
            lengths, paths = nx.single_source_dijkstra(
                reference.graph, source, weight="weight"
            )
            for target_index, target in enumerate(nodes):
                assert compiled._dist[source_index, target_index] == lengths[target]
                expected = np.zeros(dem.n_observables, dtype=np.uint8)
                path = paths[target]
                for a, b in zip(path[:-1], path[1:]):
                    expected ^= reference.graph[a][b]["mask"]
                assert np.array_equal(
                    compiled._mask[source_index, target_index], expected
                )

    def test_tied_sources_take_exact_fallback(self):
        dem = _grid_dem(5, 3)
        compiled = CompiledMatchingDecoder(dem)
        _, _, exact = compiled._all_pairs()
        assert exact >= 1
        _assert_tables_exact(compiled)
        syndromes = _all_syndromes(dem.n_detectors)[::97]
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )

    def test_disconnected_component_is_infinite(self):
        dem = DetectorErrorModel(n_detectors=5, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.1, (1,), ())])
        dem.add_group([ErrorMechanism(0.2, (2, 3), ())])
        dem.add_group([ErrorMechanism(0.2, (3, 4), (0,))])
        compiled = CompiledMatchingDecoder(dem)
        assert np.isinf(compiled._dist[0, 2])
        assert np.isinf(compiled._dist[2, compiled._boundary])
        _assert_tables_exact(compiled)
        syndromes = _all_syndromes(dem.n_detectors)
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )

    def test_half_probability_edge_has_zero_weight(self):
        dem = DetectorErrorModel(n_detectors=4, n_observables=1)
        dem.add_group([ErrorMechanism(0.5, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.1, (1, 2), ())])
        dem.add_group([ErrorMechanism(0.1, (2, 3), (0,))])
        dem.add_group([ErrorMechanism(0.1, (0,), ())])
        dem.add_group([ErrorMechanism(0.1, (3,), ())])
        compiled = CompiledMatchingDecoder(dem)
        assert compiled._dist[0, 1] == 0.0
        # D1 sits at distance 0 from D0 with no strictly nearer
        # neighbor, so only the exact path settles its mask.
        _, _, exact = compiled._all_pairs()
        assert exact >= 1
        _assert_tables_exact(compiled)
        syndromes = _all_syndromes(dem.n_detectors)
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )

    @pytest.mark.parametrize("n_observables", [0, 2, 65])
    def test_observable_widths(self, n_observables):
        # 65 observables need two packed mask words per path.
        rng = np.random.default_rng(n_observables)
        dem = DetectorErrorModel(n_detectors=6, n_observables=n_observables)
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (1, 4),
                 (2, 5), (0,), (5,), (2,)]
        for detectors in pairs:
            flips = rng.random(n_observables) < 0.4
            dem.add_group([ErrorMechanism(
                0.1, detectors, tuple(int(o) for o in np.flatnonzero(flips))
            )])
        compiled = CompiledMatchingDecoder(dem)
        assert compiled._mask.shape == (7, 7, n_observables)
        _assert_tables_exact(compiled)
        syndromes = _all_syndromes(dem.n_detectors)
        expected = MatchingDecoder(dem).decode_batch(syndromes)
        assert np.array_equal(compiled.decode_batch(syndromes), expected)
        assert np.array_equal(
            compiled.decode_batch_packed(bitops.pack_rows(syndromes)),
            bitops.pack_rows(expected),
        )

    def test_tie_heavy_repetition_tables_exact(self):
        """Repetition memories tie almost everywhere: nearly every
        source takes the exact Dijkstra, and the tables still equal the
        per-source build."""
        compiled = CompiledMatchingDecoder(
            repetition_code_dem(9, rounds=9, probability=0.01)
        )
        n_nodes = compiled._indptr.size - 1
        _, _, exact = compiled._all_pairs()
        assert exact >= n_nodes // 2
        _assert_tables_exact(compiled)

    def test_slabbing_does_not_change_tables(self, monkeypatch):
        dem = _grid_dem(5, 4)
        whole = CompiledMatchingDecoder(dem)
        # One source per slab.
        monkeypatch.setattr(compiled_module, "_ALL_PAIRS_SLAB_BYTES", 1)
        sliced = CompiledMatchingDecoder(dem)
        assert whole._dist.tobytes() == sliced._dist.tobytes()
        assert np.array_equal(whole._mask, sliced._mask)


_TIE_PROBABILITIES = (0.05, 0.1, 0.2)


@st.composite
def _tie_heavy_dems(draw):
    n_detectors = draw(st.integers(1, 7))
    n_observables = draw(st.integers(1, 2))
    detector = st.integers(0, n_detectors - 1)
    dem = DetectorErrorModel(n_detectors, n_observables)
    for _ in range(draw(st.integers(1, 14))):
        detectors = tuple(sorted(draw(
            st.sets(detector, min_size=1, max_size=min(2, n_detectors))
        )))
        observables = tuple(sorted(draw(
            st.sets(st.integers(0, n_observables - 1), max_size=n_observables)
        )))
        probability = draw(st.sampled_from(_TIE_PROBABILITIES))
        dem.add_group([ErrorMechanism(probability, detectors, observables)])
    return dem


@settings(max_examples=60, deadline=None)
@given(dem=_tie_heavy_dems())
def test_fuzz_compiled_matches_reference_on_tie_heavy_dems(dem):
    """Probabilities from a three-value set force equal-weight paths
    with different masks; every syndrome decodes as the reference."""
    compiled = CompiledMatchingDecoder(dem)
    _assert_tables_exact(compiled)
    syndromes = _all_syndromes(dem.n_detectors)
    assert np.array_equal(
        compiled.decode_batch(syndromes),
        MatchingDecoder(dem).decode_batch(syndromes),
    )


@settings(max_examples=60, deadline=None)
@given(dem=_tie_heavy_dems())
def test_fuzz_split_matches_reference_on_tie_heavy_dems(dem):
    """The same fuzz with every row of three or more defects offered to
    the cluster split: ties make cross-cluster masks disagree with the
    boundary masks, which must keep those rows whole."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
        compiled = CompiledMatchingDecoder(dem)
        syndromes = _all_syndromes(dem.n_detectors)
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )


@pytest.mark.parametrize("width, height", [(5, 3), (7, 4)])
def test_split_matches_reference_on_grid_dems(monkeypatch, width, height):
    """Grid DEMs tie everywhere between the two boundaries; with the
    split offered every row of three or more defects, sampled rows of
    every density still decode as the reference."""
    monkeypatch.setattr(compiled_module, "_SPLIT_MIN_DEFECTS", 2)
    dem = _grid_dem(width, height)
    rng = np.random.default_rng(width * height)
    density = rng.uniform(0.05, 0.5, size=(200, 1))
    syndromes = (rng.random((200, dem.n_detectors)) < density).astype(np.uint8)
    obs.enable(tracing=False, metrics=True)
    assert np.array_equal(
        CompiledMatchingDecoder(dem).decode_batch(syndromes),
        MatchingDecoder(dem).decode_batch(syndromes),
    )
    assert obs.registry().value(
        "repro_decode_split_rows_total", pid=str(os.getpid())
    ) > 0


_HANDOFF_CIRCUITS = {
    "surface_3_3": lambda: surface_code_memory(
        3, rounds=3, after_clifford_depolarization=0.01,
        before_measure_flip_probability=0.01,
    ),
    "surface_5_5": lambda: surface_code_memory(
        5, rounds=5, after_clifford_depolarization=0.002,
        before_measure_flip_probability=0.002,
    ),
    "kinds": kinds_circuit,
    "mixed": mixed_circuit,
}


class TestLoweringFromArrays:
    """The decoder reads only the DEM's array form: an extracted model
    (arrays, no mechanism objects) and a hand-built copy of its
    mechanisms (arrays converted from the lists) lower and tabulate
    identically."""

    @pytest.mark.parametrize("name", sorted(_HANDOFF_CIRCUITS))
    def test_extracted_equals_hand_rebuilt(self, name):
        dem = extract_dem(_HANDOFF_CIRCUITS[name]())
        extracted = CompiledMatchingDecoder(dem)
        rebuilt_dem = DetectorErrorModel(
            dem.n_detectors, dem.n_observables, list(dem.mechanisms),
            [list(group) for group in dem.groups],
        )
        for got, want in zip(rebuilt_dem.arrays, dem.arrays):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        rebuilt = CompiledMatchingDecoder(rebuilt_dem)
        for attr in ("_indptr", "_indices", "_owner", "_edge_words", "_mask"):
            got, want = getattr(extracted, attr), getattr(rebuilt, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want), attr
        assert extracted._weights.tobytes() == rebuilt._weights.tobytes()
        assert extracted._dist.tobytes() == rebuilt._dist.tobytes()
        assert extracted._indices.size

    @staticmethod
    def edge(decoder, a: int, b: int):
        """Edge (a, b)'s weight and mask words, read from a's row."""
        row = slice(decoder._indptr[a], decoder._indptr[a + 1])
        slot = row.start + decoder._indices[row].tolist().index(b)
        return decoder._weights[slot].hex(), decoder._edge_words[slot].tolist()

    def test_parallel_edge_rules(self):
        dem = DetectorErrorModel(n_detectors=3, n_observables=2)
        dem.add_group([
            ErrorMechanism(0.1, (0, 1), (0,)),
            ErrorMechanism(0.2, (1, 2), (0,)),
        ])
        dem.add_group([ErrorMechanism(0.3, (1, 0), (0,))])  # same mask
        dem.add_group([ErrorMechanism(0.2, (2, 1), (1,))])  # a tie: first stays
        dem.add_group([ErrorMechanism(0.15, (0,), ())])
        dem.add_group([ErrorMechanism(0.25, (0,), (1,))])  # lighter: wins
        decoder = _lowered(dem)
        convolved = 0.3 * (1 - 0.1) + 0.1 * (1 - 0.3)
        assert self.edge(decoder, 0, 1) == (edge_weight(convolved).hex(), [1])
        assert self.edge(decoder, 2, 1) == (edge_weight(0.2).hex(), [1])
        assert self.edge(decoder, 3, 0) == (edge_weight(0.25).hex(), [2])
        _assert_lowering_matches_networkx(dem)

    def test_heavy_edge_error_names_the_edge(self):
        dem = DetectorErrorModel(n_detectors=3, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0, 2), ())])
        dem.add_group([ErrorMechanism(0.7, (2, 1), (0,))])
        dem.add_group([ErrorMechanism(0.6, (2,), ())])
        with pytest.raises(ValueError) as error:
            _lowered(dem)
        # The reference walks the boundary's row first.
        assert str(error.value).startswith(
            "decoding-graph edge (D2, boundary) has probability 0.6 > 0.5"
        )
        _assert_lowering_matches_networkx(dem)

    def test_repeated_detector_has_no_array_form(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=0)
        dem.add_group([ErrorMechanism(0.1, (1, 1), ())])
        with pytest.raises(ValueError, match=r"detectors \(1, 1\) repeat"):
            CompiledMatchingDecoder(dem)


class TestCompileStages:
    """The compile's two phases are spans inside the engine's
    ``cache.build.decoder``; the rows left to exact Dijkstra count into
    ``repro_decoder_exact_sources_total``."""

    def test_phases_nest_in_decoder_build(self):
        circuit = surface_code_memory(
            3, rounds=3,
            after_clifford_depolarization=0.01,
            before_measure_flip_probability=0.01,
        )
        task = Task(circuit, decoder="compiled-matching", sampler="frame",
                    max_shots=256)
        reset_shared_cache()  # build here, not in an earlier test
        obs.enable(tracing=True, metrics=True)
        collect([task], base_seed=3, chunk_shots=256)
        spans = obs.drain_spans()
        (build,) = [r for r in spans if r.name == "cache.build.decoder"]
        for name in ("decoder.graph", "decoder.all_pairs"):
            (phase,) = [r for r in spans if r.name == name]
            assert phase.parent_id == build.span_id
        exact = [
            metric.value for _, metric in obs.registry().select(
                "repro_decoder_exact_sources_total"
            )
        ]
        assert len(exact) == 1

    def test_exact_counter_counts_tied_sources(self):
        dem = _grid_dem(5, 3)
        _, _, exact = CompiledMatchingDecoder(dem)._all_pairs()
        obs.enable(metrics=True)
        CompiledMatchingDecoder(dem)
        ((_, metric),) = obs.registry().select(
            "repro_decoder_exact_sources_total"
        )
        assert metric.value == exact >= 1


def _networkx_lowering(dem: DetectorErrorModel):
    """The CSR walk of the reference's NetworkX decoding graph: detector
    rows then the boundary's, each in adjacency (edge-insertion) order."""
    graph = build_decoding_graph(dem)
    n = dem.n_detectors
    index_of = {BOUNDARY: n, **{d: d for d in range(n)}}
    indptr = np.zeros(n + 2, dtype=np.int64)
    indices, weights, masks = [], [], []
    for node in [*range(n), BOUNDARY]:
        for neighbor, data in graph.adj[node].items():
            indices.append(index_of[neighbor])
            weights.append(data["weight"])
            masks.append(data["mask"])
        indptr[index_of[node] + 1] = len(indices)
    words = bitops.pack_rows(
        np.stack(masks) if masks
        else np.zeros((0, dem.n_observables), dtype=np.uint8)
    )
    return indptr, np.array(indices, dtype=np.int64), weights, words


def _lowered(dem: DetectorErrorModel) -> CompiledMatchingDecoder:
    """A decoder with only the CSR lowering run (no all-pairs tables)."""
    decoder = CompiledMatchingDecoder.__new__(CompiledMatchingDecoder)
    decoder.n_detectors = dem.n_detectors
    decoder.n_observables = dem.n_observables
    decoder._lower(dem)
    return decoder


def _assert_lowering_matches_networkx(dem: DetectorErrorModel) -> None:
    try:
        indptr, indices, weights, words = _networkx_lowering(dem)
    except ValueError as reference_error:
        with pytest.raises(ValueError) as error:
            _lowered(dem)
        assert str(error.value) == str(reference_error)
        return
    decoder = _lowered(dem)
    assert decoder._indptr.dtype == indptr.dtype
    assert np.array_equal(decoder._indptr, indptr)
    assert decoder._indices.dtype == indices.dtype
    assert np.array_equal(decoder._indices, indices)
    assert [w.hex() for w in decoder._weights.tolist()] == [
        float(w).hex() for w in weights
    ]
    assert decoder._edge_words.dtype == words.dtype
    assert decoder._edge_words.shape == words.shape
    assert np.array_equal(decoder._edge_words, words)
    assert np.array_equal(
        decoder._owner, np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    )


@st.composite
def _parallel_edge_dems(draw):
    """Few detectors and multi-mechanism groups, so pairs repeat with
    equal and with different masks; some mechanisms flip no detector or
    more than two, detector order is arbitrary, and a few probabilities
    exceed 0.5 (or merge past it)."""
    n_detectors = draw(st.integers(0, 5))
    n_observables = draw(st.integers(0, 2))
    dem = DetectorErrorModel(n_detectors, n_observables)
    detector = st.integers(0, max(n_detectors - 1, 0))
    for _ in range(draw(st.integers(0, 6))):
        group = []
        for _ in range(draw(st.integers(1, 4))):
            detectors = tuple(draw(st.lists(
                detector, unique=True, max_size=min(3, n_detectors)
            )))
            observables = tuple(draw(st.lists(
                st.integers(0, max(n_observables - 1, 0)), unique=True,
                max_size=n_observables,
            )))
            probability = draw(st.sampled_from(
                (0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5, 0.6)
            ))
            group.append(ErrorMechanism(probability, detectors, observables))
        dem.add_group(group)
    return dem


class TestLoweringWithoutNetworkX:
    """The CSR arrays come straight from the DEM's graphlike mechanisms
    and equal the NetworkX graph's walk bit for bit: adjacency order,
    the sequential parallel-edge merge and the p > 0.5 error."""

    @pytest.mark.parametrize("distance", [3, 5, 7, 9])
    def test_surface_codes(self, distance):
        _assert_lowering_matches_networkx(
            surface_code_dem(distance, rounds=distance, probability=0.004)
        )

    def test_repetition_code(self):
        _assert_lowering_matches_networkx(
            repetition_code_dem(9, rounds=9, probability=0.01)
        )

    def test_parallel_edges_of_equal_and_different_masks(self):
        dem = DetectorErrorModel(n_detectors=3, n_observables=2)
        dem.add_group([
            ErrorMechanism(0.1, (0, 1), (0,)),
            ErrorMechanism(0.2, (1,), ()),
        ])
        dem.add_group([ErrorMechanism(0.3, (1, 0), (0,))])  # same mask
        dem.add_group([
            ErrorMechanism(0.05, (0, 1), (1,)),  # different, heavier
            ErrorMechanism(0.4, (2,), (0, 1)),
        ])
        dem.add_group([ErrorMechanism(0.35, (1,), (1,))])  # lighter: wins
        dem.add_group([ErrorMechanism(0.25, (1,), (1,))])  # then convolves
        _assert_lowering_matches_networkx(dem)
        decoder = _lowered(dem)
        # Node 1 meets the (0, 1) edge before its boundary edge.
        row = slice(decoder._indptr[1], decoder._indptr[2])
        assert decoder._indices[row].tolist() == [0, 3]

    def test_merge_past_half_names_the_edge(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=0)
        dem.add_group([ErrorMechanism(0.1, (0,), ())])
        dem.add_group([ErrorMechanism(0.4, (1, 0), ())])
        dem.add_group([ErrorMechanism(0.6, (0, 1), ())])  # merged: 0.52
        with pytest.raises(ValueError, match=r"edge \(D0, D1\) has probability 0\.52 "):
            _lowered(dem)
        _assert_lowering_matches_networkx(dem)

    @settings(max_examples=300, deadline=None)
    @given(dem=_parallel_edge_dems())
    def test_fuzz(self, dem):
        _assert_lowering_matches_networkx(dem)

    @settings(max_examples=30, deadline=None)
    @given(dem=_tie_heavy_dems())
    def test_fuzz_tie_heavy_dems(self, dem):
        _assert_lowering_matches_networkx(dem)

    def test_compiled_decoding_never_imports_networkx(self):
        """The reference decoder imports NetworkX on first use, so a
        frame + compiled-matching run never loads it."""
        code = (
            "import sys\n"
            "from repro.qec import surface_code_memory\n"
            "circuit = surface_code_memory(\n"
            "    3, rounds=2, after_clifford_depolarization=0.01)\n"
            "circuit.compile(sampler='frame').logical_error_rate(500, seed=1)\n"
            "assert 'networkx' not in sys.modules\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=source_root)
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_builds_without_the_networkx_graph(self, surface_dems, monkeypatch):
        dem = surface_dems[5]
        reference = MatchingDecoder(dem)

        def forbidden(dem):
            raise AssertionError("the compiled decoder built a NetworkX graph")

        monkeypatch.setattr(matching_module, "build_decoding_graph", forbidden)
        compiled = CompiledMatchingDecoder(dem)
        rng = np.random.default_rng(5)
        syndromes = (rng.random((300, dem.n_detectors)) < 0.01).astype(np.uint8)
        assert np.array_equal(
            compiled.decode_batch(syndromes), reference.decode_batch(syndromes)
        )
