"""Tests for detector-error-model extraction from symbolic phases."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.circuit import Circuit
from repro.core import (
    CompiledSampler,
    SymPhaseSimulator,
    compile_sampler,
    concrete_replay,
)
from repro.dem import DetectorErrorModel, ErrorMechanism, extract_dem
from repro.gf2 import bitops
from repro.qec import repetition_code_memory, surface_code_memory
from tests.helpers import append_random_annotations, random_clifford_circuit


def loop_reference(sampler, min_probability=0.0, merge=True):
    """The per-(site, pattern) loop that ``extract_dem`` replaced, plus
    :meth:`DetectorErrorModel.merged`: the reference the array pipeline
    must equal bit for bit."""
    width = sampler.width
    detector_bits = bitops.unpack_rows(sampler.detector_matrix, width)
    observable_bits = bitops.unpack_rows(sampler.observable_matrix, width)
    dem = DetectorErrorModel(sampler.n_detectors, sampler.n_observables)
    for offset, n_symbols, probabilities, kind in sampler.symbols.sites():
        if kind != "noise":
            continue
        mechanisms = []
        for pattern, probability in enumerate(probabilities):
            if pattern == 0 or probability <= min_probability:
                continue
            det = np.zeros(dem.n_detectors, dtype=np.uint8)
            obs_ = np.zeros(dem.n_observables, dtype=np.uint8)
            for j in range(n_symbols):
                if (pattern >> j) & 1:
                    det ^= detector_bits[:, offset + j]
                    obs_ ^= observable_bits[:, offset + j]
            mechanisms.append(
                ErrorMechanism(
                    probability=float(probability),
                    detectors=tuple(np.nonzero(det)[0].tolist()),
                    observables=tuple(np.nonzero(obs_)[0].tolist()),
                )
            )
        if mechanisms:
            dem.add_group(mechanisms)
    return dem.merged() if merge else dem


def exact_view(dem):
    """Everything a consumer can see of a DEM, floats as ``float.hex``."""
    return (
        dem.n_detectors,
        dem.n_observables,
        [
            (m.probability.hex(), m.detectors, m.observables)
            for m in dem.mechanisms
        ],
        dem.groups,
    )


#: Every channel family, repeated targets within one instruction, and a
#: zero-probability Pauli in PAULI_CHANNEL_2.
MIXED = """
H 0 4
CX 0 1 4 5
DEPOLARIZE2(0.03) 0 1 4 5 1 0
PAULI_CHANNEL_2(0.001, 0.002, 0.003, 0.004, 0, 0.006, 0.007, 0.008, 0.009, 0.01, 0.011, 0.012, 0.013, 0.014, 0.015) 2 3 3 5
CORRELATED_ERROR(0.03) X1 Z4 Y2
DEPOLARIZE1(0.03) 0 0 1 2 3 5
X_ERROR(0.03) 2 2
CORRELATED_ERROR(0.02) Z5 X0 X3
CX 2 3
M 0 1 2 3
MX 4 5
DETECTOR rec[-5] rec[-6]
DETECTOR rec[-4]
DETECTOR rec[-3]
DETECTOR rec[-1] rec[-2]
OBSERVABLE_INCLUDE(0) rec[-3] rec[-4]
OBSERVABLE_INCLUDE(1) rec[-1]
"""

REFERENCE_CIRCUITS = {
    **{
        f"surface_d{d}_r{r}_p{p}": (
            lambda d=d, r=r, p=p: surface_code_memory(
                d, rounds=r, after_clifford_depolarization=p,
                before_measure_flip_probability=p,
            )
        )
        for d, r, p in ((3, 3, 0.01), (5, 5, 0.002), (7, 3, 0.001))
    },
    "repetition_d9_r9_p0.02": lambda: repetition_code_memory(
        9, 9, data_flip_probability=0.02, measure_flip_probability=0.02
    ),
    "mixed": lambda: Circuit.from_text(MIXED),
}


class TestSmallCircuits:
    def test_single_x_error(self):
        c = Circuit().x_error(0.25, 0).mr(0).mr(0).detector(-1, -2)
        dem = extract_dem(c)
        assert dem.n_detectors == 1
        assert len(dem.mechanisms) == 1
        mech = dem.mechanisms[0]
        assert mech.probability == 0.25
        assert mech.detectors == (0,)
        assert mech.observables == ()

    def test_observable_signature(self):
        c = (
            Circuit()
            .x_error(0.1, 0)
            .mr(0)
            .detector(-1)
            .observable_include(0, -1)
        )
        dem = extract_dem(c)
        assert dem.mechanisms[0].observables == (0,)

    def test_depolarize_merges_indistinguishable_patterns(self):
        c = Circuit().depolarize1(0.3, 0).mr(0).detector(-1)
        dem = extract_dem(c)
        # X and Y both flip the detector — indistinguishable, so they
        # merge (mutually exclusive within the site: probabilities add);
        # the invisible Z pattern stays separate.
        assert len(dem.mechanisms) == 2
        probs = sorted(m.probability for m in dem.mechanisms)
        assert np.allclose(probs, [0.1, 0.2])

    def test_depolarize_unmerged_gives_three_mechanisms(self):
        c = Circuit().depolarize1(0.3, 0).mr(0).detector(-1)
        dem = extract_dem(c, merge=False)
        # X, Z, Y patterns of one group; all in one exclusive group.
        assert len(dem.mechanisms) == 3
        assert len(dem.groups) == 1
        probs = sorted(m.probability for m in dem.mechanisms)
        assert np.allclose(probs, [0.1, 0.1, 0.1])

    def test_independent_duplicates_xor_convolve(self):
        # Two independent X_ERROR sites with the same signature: the
        # merged probability is P(exactly one fires).
        c = Circuit().x_error(0.1, 0).x_error(0.2, 0).mr(0).detector(-1)
        dem = extract_dem(c)
        assert len(dem.mechanisms) == 1
        expected = 0.1 * 0.8 + 0.2 * 0.9
        assert dem.mechanisms[0].probability == pytest.approx(expected)

    def test_merged_helper_is_idempotent_and_signature_unique(self):
        c = Circuit().depolarize1(0.3, 0).x_error(0.1, 0).mr(0).detector(-1)
        dem = extract_dem(c, merge=False)
        merged = dem.merged()
        signatures = [(m.detectors, m.observables) for m in merged.mechanisms]
        assert len(signatures) == len(set(signatures))
        again = merged.merged()
        assert [
            (m.probability, m.detectors, m.observables)
            for m in again.mechanisms
        ] == [
            (m.probability, m.detectors, m.observables)
            for m in merged.mechanisms
        ]

    def test_invisible_fault_has_empty_signature(self):
        c = Circuit().z_error(0.2, 0).mr(0).detector(-1)
        dem = extract_dem(c)
        assert dem.mechanisms[0].detectors == ()
        assert dem.mechanisms[0].observables == ()

    def test_min_probability_filter(self):
        c = Circuit().x_error(0.001, 0).mr(0).detector(-1)
        assert len(extract_dem(c, min_probability=0.01).mechanisms) == 0

    def test_measurement_symbols_excluded(self):
        c = Circuit().h(0).m(0).x_error(0.1, 0).mr(0).mr(0).detector(-1, -2)
        dem = extract_dem(c)
        assert len(dem.mechanisms) == 1  # only the noise site

    def test_accepts_precompiled_sampler(self):
        c = Circuit().x_error(0.5, 0).mr(0).detector(-1)
        sampler = compile_sampler(c)
        dem = extract_dem(sampler)
        assert len(dem.mechanisms) == 1


class TestQecDems:
    def test_repetition_dem_is_graphlike(self):
        c = repetition_code_memory(
            5, 3, data_flip_probability=0.01, measure_flip_probability=0.01
        )
        dem = extract_dem(c)
        assert dem.graphlike
        # Every data flip hits <= 2 detectors, every measure flip exactly 2
        # (or 1 at the time boundary).
        assert all(1 <= len(m.detectors) <= 2 for m in dem.mechanisms)

    def test_surface_dem_mechanism_count(self):
        c = surface_code_memory(3, 2, after_clifford_depolarization=0.001)
        raw = extract_dem(c, merge=False)
        # One group per DEPOLARIZE2 site, 15 patterns each.
        sites = sum(
            len(i.targets) // 2
            for i in c.flattened()
            if i.name == "DEPOLARIZE2"
        )
        assert len(raw.groups) == sites
        assert len(raw.mechanisms) == 15 * sites
        # The merged default collapses indistinguishable patterns: far
        # fewer mechanisms, every signature unique.
        merged = extract_dem(c)
        assert len(merged.mechanisms) < len(raw.mechanisms)
        signatures = [(m.detectors, m.observables) for m in merged.mechanisms]
        assert len(signatures) == len(set(signatures))

    def test_filter_graphlike(self):
        c = surface_code_memory(3, 2, after_clifford_depolarization=0.01)
        dem = extract_dem(c)
        graphlike = dem.filter_graphlike()
        assert graphlike.graphlike
        assert len(graphlike.mechanisms) < len(dem.mechanisms)


class TestDemSampling:
    def test_matches_circuit_sampler(self):
        c = repetition_code_memory(
            3, 2, data_flip_probability=0.1, measure_flip_probability=0.05
        )
        dem = extract_dem(c)
        det_dem, obs_dem = dem.sample(60000, np.random.default_rng(0))
        det_circ, obs_circ = compile_sampler(c).sample_detectors(
            60000, np.random.default_rng(1)
        )
        assert np.allclose(
            det_dem.mean(axis=0), det_circ.mean(axis=0), atol=0.01
        )
        assert np.allclose(
            obs_dem.mean(axis=0), obs_circ.mean(axis=0), atol=0.01
        )

    def test_detector_error_rates_match_sampling(self):
        c = repetition_code_memory(3, 2, data_flip_probability=0.08)
        dem = extract_dem(c)
        predicted = dem.detector_error_rates()
        det, _ = dem.sample(60000, np.random.default_rng(2))
        assert np.allclose(det.mean(axis=0), predicted, atol=0.01)


class TestModelValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            ErrorMechanism(1.5, (0,), ())

    def test_str_format(self):
        mech = ErrorMechanism(0.125, (0, 3), (1,))
        assert str(mech) == "error(0.125) D0 D3 L1"

    def test_graphlike_flag(self):
        assert ErrorMechanism(0.1, (0, 1), ()).is_graphlike
        assert not ErrorMechanism(0.1, (0, 1, 2), ()).is_graphlike


class TestArrayPipelineMatchesLoop:
    """The array pipeline against the loop reference, bit for bit:
    mechanism order, groups, tuples and ``float.hex`` of every
    probability (edge weights decide blossom ties, so a last-bit
    difference would change decoder output)."""

    @pytest.mark.parametrize("merge", [True, False], ids=["merged", "raw"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CIRCUITS))
    def test_bitwise_equal_to_loop(self, name, merge):
        sampler = compile_sampler(REFERENCE_CIRCUITS[name]())
        dem = extract_dem(sampler, merge=merge)
        assert exact_view(dem) == exact_view(loop_reference(sampler, merge=merge))
        assert dem.mechanisms

    def test_indices_are_python_ints(self):
        dem = extract_dem(Circuit.from_text(MIXED))
        values = [
            value
            for m in dem.mechanisms
            for value in (*m.detectors, *m.observables)
        ]
        assert values and all(type(value) is int for value in values)
        assert all(type(m.probability) is float for m in dem.mechanisms)

    @pytest.mark.parametrize("min_probability", [0.0, 0.005, 0.012])
    def test_min_probability_matches_loop(self, min_probability):
        sampler = compile_sampler(Circuit.from_text(MIXED))
        for merge in (True, False):
            assert exact_view(
                extract_dem(sampler, min_probability, merge)
            ) == exact_view(loop_reference(sampler, min_probability, merge))


class TestArrayForm:
    """An extracted model is its array form; its mechanism lists are
    built on first read and equal the loop reference's eager lists."""

    @pytest.mark.parametrize("merge", [True, False], ids=["merged", "raw"])
    @pytest.mark.parametrize("name", sorted(REFERENCE_CIRCUITS))
    def test_lists_built_on_first_read(self, name, merge, monkeypatch):
        sampler = compile_sampler(REFERENCE_CIRCUITS[name]())

        def forbidden(self):
            raise AssertionError("an ErrorMechanism was built")

        with monkeypatch.context() as patch:
            patch.setattr(ErrorMechanism, "__post_init__", forbidden)
            dem = extract_dem(sampler, merge=merge)
            arrays = dem.arrays
        reference = loop_reference(sampler, merge=merge)
        assert exact_view(dem) == exact_view(reference)
        assert dem == reference
        # The hand-built reference converts to the same arrays.
        for got, want in zip(reference.arrays, arrays):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_add_group_extends_the_lists_and_the_arrays(self):
        circuit = surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        dem = extract_dem(circuit)
        before = len(dem.arrays.probabilities)
        extra = ErrorMechanism(0.125, (0, 1), (0,))
        dem.add_group([extra])
        assert dem.mechanisms[-1] == extra and dem.groups[-1] == [before]
        arrays = dem.arrays
        assert arrays.probabilities.size == before + 1
        assert arrays.probabilities[-1] == 0.125
        assert bitops.unpack_rows(arrays.detectors[-1:], 2).tolist() == [[1, 1]]
        assert arrays.group_sizes[-1] == 1


class TestEdgeCases:
    @pytest.mark.parametrize(
        "text",
        [
            "H 0\nCX 0 1\nM 0 1\nDETECTOR rec[-1] rec[-2]",
            "H 0\nM 0\nM 0\nDETECTOR rec[-1] rec[-2]\nOBSERVABLE_INCLUDE(0) rec[-1]",
            "",
        ],
        ids=["noiseless", "random-measurements-only", "empty"],
    )
    @pytest.mark.parametrize("merge", [True, False])
    def test_no_noise_records_give_empty_valid_dem(self, text, merge):
        circuit = Circuit.from_text(text)
        dem = extract_dem(circuit, merge=merge)
        assert dem.mechanisms == [] and dem.groups == []
        assert dem.n_detectors == circuit.num_detectors
        assert dem.n_observables == circuit.num_observables
        detectors, observables = dem.sample(5, 0)
        assert not detectors.any() and not observables.any()

    @pytest.mark.parametrize("merge", [True, False])
    def test_filter_dropping_every_pattern_gives_empty_dem(self, merge):
        circuit = Circuit.from_text(
            "X_ERROR(0.001) 0\nDEPOLARIZE1(0.002) 1\nM 0 1\n"
            "DETECTOR rec[-1]\nDETECTOR rec[-2]"
        )
        dem = extract_dem(circuit, min_probability=0.01, merge=merge)
        assert dem.mechanisms == [] and dem.groups == []
        assert dem.n_detectors == 2

    @pytest.mark.parametrize("merge", [True, False])
    def test_zero_probability_patterns_are_dropped(self, merge):
        circuit = Circuit.from_text(
            "PAULI_CHANNEL_1(0.01, 0, 0) 0 1\nM 0 1\n"
            "DETECTOR rec[-1]\nDETECTOR rec[-2]"
        )
        sampler = compile_sampler(circuit)
        dem = extract_dem(sampler, merge=merge)
        # Only the X pattern of each site is kept: Y and Z have p = 0.
        assert [(m.probability, m.detectors) for m in dem.mechanisms] == [
            (0.01, (1,)),
            (0.01, (0,)),
        ]
        assert dem.groups == [[0], [1]]
        assert exact_view(dem) == exact_view(loop_reference(sampler, merge=merge))

    @pytest.mark.parametrize("merge", [True, False])
    def test_no_detectors_or_observables(self, merge):
        # Every signature is empty: the raw view keeps each pattern, the
        # merged view folds them all into one.
        sampler = compile_sampler(
            Circuit.from_text("X_ERROR(0.1) 0\nDEPOLARIZE1(0.1) 0\nM 0")
        )
        dem = extract_dem(sampler, merge=merge)
        assert len(dem.mechanisms) == (1 if merge else 4)
        assert exact_view(dem) == exact_view(loop_reference(sampler, merge=merge))

    def test_extraction_builds_no_per_site_object(self, monkeypatch):
        from repro.core.symbols import SymbolTable

        def forbidden(*args, **kwargs):
            raise AssertionError("per-site walk")

        sampler = compile_sampler(
            surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        )
        monkeypatch.setattr(SymbolTable, "sites", forbidden)
        assert extract_dem(sampler).mechanisms


class TestBruteForceFaults:
    """Each raw mechanism against an independent concrete simulation:
    inject exactly that fault (every other noise symbol and every
    measurement coin 0) and read which detectors and observables flip
    relative to the fault-free replay."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_each_fault_flips_exactly_its_signature(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_clifford_circuit(
            rng, int(rng.integers(1, 5)), depth=16,
            p_noise=0.35, p_measure=0.1, p_reset=0.05,
        )
        append_random_annotations(circuit, rng, n_detectors=3)
        simulator = SymPhaseSimulator.from_circuit(circuit)
        dem = extract_dem(CompiledSampler(simulator), merge=False)
        parities = [*simulator.detectors, *simulator.observables]

        def flipped(assignment):
            record = concrete_replay(circuit, simulator, assignment)
            return np.array(
                [record[list(p)].sum() & 1 for p in parities], dtype=np.uint8
            )

        fault_free = np.zeros(simulator.symbols.width, dtype=np.uint8)
        fault_free[0] = 1
        baseline = flipped(fault_free)
        groups = iter(dem.groups)
        for offset, n_symbols, probabilities, kind in simulator.symbols.sites():
            if kind != "noise":
                continue
            patterns = [
                pattern for pattern, p in enumerate(probabilities) if pattern and p > 0
            ]
            group = next(groups)
            assert len(group) == len(patterns)
            for index, pattern in zip(group, patterns):
                assignment = fault_free.copy()
                for j in range(n_symbols):
                    assignment[offset + j] = (pattern >> j) & 1
                flips = np.flatnonzero(flipped(assignment) ^ baseline).tolist()
                mechanism = dem.mechanisms[index]
                assert mechanism.probability == probabilities[pattern]
                assert mechanism.detectors == tuple(
                    f for f in flips if f < dem.n_detectors
                )
                assert mechanism.observables == tuple(
                    f - dem.n_detectors for f in flips if f >= dem.n_detectors
                )
        assert next(groups, None) is None


class TestExtractSpan:
    def test_extract_nests_under_cache_build_dem(self):
        from repro.engine.cache import cached_dem, reset_shared_cache

        circuit = surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        reset_shared_cache()
        obs.enable(tracing=True, metrics=True)
        try:
            cached_dem(circuit, circuit.fingerprint(), "frame")
            spans = {record.name: record for record in obs.drain_spans()}
            text = obs.prometheus_text(obs.registry())
        finally:
            reset_shared_cache()
        outer = spans["cache.build.dem"]
        assert spans["dem.extract"].parent_id == outer.span_id
        # The shared symbolic pass is built once, as its own cache entry
        # (a sibling of the extraction inside the DEM build).
        shared = spans["cache.build.pass"]
        assert shared.parent_id == outer.span_id
        assert spans["core.symbolic_pass"].parent_id == shared.span_id
        assert 'stage="dem.extract"' in text
