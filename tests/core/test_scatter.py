"""The hit-scatter detector kernel against the Eq. 4 reference.

``sample_detectors(strategy="auto")`` runs the scatter wherever its cost
model expects it to be cheaper (the surface memories here), and
``strategy="scatter"`` forces it.  It consumes the generator exactly like
the sparse Eq. 4 path, so for every seed and shot count the two must
agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.gf2 import bitops
from repro.noise.channels import sample_hits
from repro.qec import repetition_code_memory, surface_code_memory
from tests.helpers import append_random_annotations, random_clifford_circuit

SHOTS = (1, 63, 64, 65, 512, 70000)


def mixed_circuit() -> Circuit:
    """Every channel shape, repeated targets, and a detector plus an
    observable over a random measurement (a live coin column)."""
    return Circuit.from_text(
        """
        R 0 1 2 3
        H 0
        CX 0 1 2 3
        DEPOLARIZE1(0.01) 0 1 2 3
        DEPOLARIZE2(0.02) 0 1 2 3
        PAULI_CHANNEL_2(0.001,0.002,0.003,0.004,0.005,0.006,0.007,0.001,0.002,0.003,0.004,0.005,0.006,0.007,0.008) 1 2
        CORRELATED_ERROR(0.03) X0 Z2 Y3
        X_ERROR(0.02) 1 1 3 1
        M 0 1 2 3
        DETECTOR rec[-3] rec[-2]
        DETECTOR rec[-4]
        DETECTOR rec[-1]
        OBSERVABLE_INCLUDE(0) rec[-4] rec[-3]
        OBSERVABLE_INCLUDE(1) rec[-2]
        """
    )


CIRCUITS = {
    "surface_d3_p0.01": lambda: surface_code_memory(
        3, rounds=3, after_clifford_depolarization=0.01,
        before_measure_flip_probability=0.01,
    ),
    "surface_d5_p0.002": lambda: surface_code_memory(
        5, rounds=5, after_clifford_depolarization=0.002,
        before_measure_flip_probability=0.002,
    ),
    "repetition_d9_p0.02": lambda: repetition_code_memory(
        9, rounds=9, data_flip_probability=0.02,
        measure_flip_probability=0.02,
    ),
    "mixed": mixed_circuit,
}


def same(a, b) -> bool:
    return all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)
    )


def old_symbol_walk(table, shots, rng) -> np.ndarray:
    """``B`` as drawn before the draw was shared with the scatter: the
    clusters rebuilt per call, each hit batch ORed into ``B``."""
    n_words = bitops.words_for(shots)
    out = np.zeros((table.width, n_words), dtype=np.uint64)
    out[0] = bitops.pack_bits(np.ones(shots, dtype=np.uint8))
    coin_rows = [r.first for r in table.records if r.kind == "measurement"]
    if coin_rows:
        out[coin_rows] = bitops.random_packed(
            (len(coin_rows), n_words), shots, rng
        )
    clusters = {}
    for record in table.records:
        if record.kind != "measurement":
            clusters.setdefault(record.probabilities, []).append(record)
    for probabilities, records in clusters.items():
        k = records[0].symbols_per_site
        offsets = np.concatenate([r.offsets() for r in records])
        for sites, shot_indices, patterns in sample_hits(
            probabilities, offsets.size, shots, rng
        ):
            for i in range(sites.size):
                for j in range(k):
                    if (int(patterns[i]) >> j) & 1:
                        row = offsets[sites[i]] + j
                        out[row, shot_indices[i] >> 6] |= np.uint64(
                            1 << int(shot_indices[i] & 63)
                        )
    return out


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def sampler(request):
    return compile_sampler(CIRCUITS[request.param]())


class TestScatterMatchesEq4:
    @pytest.mark.parametrize("name", ["surface_d3_p0.01", "surface_d5_p0.002"])
    def test_auto_picks_the_scatter_at_qec_noise(self, name):
        assert compile_sampler(CIRCUITS[name]()).detector_strategy == "scatter"

    @pytest.mark.parametrize("shots", SHOTS)
    def test_bitwise_equal_to_sparse(self, sampler, shots):
        for seed in range(3):
            sparse = sampler.sample_detectors(shots, seed, strategy="sparse")
            for strategy in ("auto", "scatter"):
                scatter = sampler.sample_detectors(shots, seed, strategy=strategy)
                assert scatter[0].shape == (shots, sampler.n_detectors)
                assert scatter[1].shape == (shots, sampler.n_observables)
                assert same(scatter, sparse)

    @pytest.mark.parametrize("shots", [1, 65, 512])
    def test_equal_to_dense_on_the_drawn_b(self, sampler, shots):
        """The scatter is ``derived · Bᵀ`` for the ``B`` that
        ``draw_symbols`` returns from the same seed."""
        symbol_values = sampler.draw_symbols(shots, 11)
        eq4 = sampler._sample_rows(
            sampler._derived(), shots, None, "dense", symbol_values
        )
        detectors, observables = sampler.sample_detectors(
            shots, 11, strategy="scatter"
        )
        assert np.array_equal(np.hstack([detectors, observables]), eq4)

    def test_packed_view_matches(self, sampler):
        detectors, observables = sampler.sample_detectors(700, 5)
        packed = sampler.sample_detectors_packed(700, 5)
        assert np.array_equal(packed[0], bitops.pack_rows(detectors))
        assert np.array_equal(packed[1], bitops.pack_rows(observables))


class TestSharedDraw:
    @pytest.mark.parametrize("shots", [1, 64, 130, 70000])
    def test_draw_symbols_unchanged(self, shots):
        circuit = CIRCUITS["mixed"]()
        sampler = compile_sampler(circuit)
        new = sampler.draw_symbols(shots, 23)
        old = old_symbol_walk(
            sampler.symbols, shots, np.random.default_rng(23)
        )
        assert np.array_equal(new, old)

    def test_mixed_circuit_has_a_live_coin(self):
        sampler = compile_sampler(mixed_circuit())
        assert sampler._live_coins.size > 0

    def test_plan_is_rebuilt_after_allocation(self):
        sampler = compile_sampler(mixed_circuit())
        table = sampler.symbols
        coins, clusters = table.draw_plan()
        assert table.draw_plan()[1] is clusters
        table.allocate_measurement(99, 0)
        new_coins, _ = table.draw_plan()
        assert new_coins.size == coins.size + 1


class TestAutoRule:
    def test_high_noise_keeps_eq4(self):
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.15,
            before_measure_flip_probability=0.15,
        ))
        assert sampler.scatter_cost_ratio() > 1.0
        assert sampler.detector_strategy == sampler.choose_strategy()

    def test_explicit_scatter_at_high_noise(self):
        sampler = compile_sampler(surface_code_memory(
            3, rounds=3, after_clifford_depolarization=0.15,
            before_measure_flip_probability=0.15,
        ))
        for shots in (1, 100, 3000):
            assert same(
                sampler.sample_detectors(shots, 2, strategy="scatter"),
                sampler.sample_detectors(shots, 2, strategy="sparse"),
            )

    def test_noiseless_circuit(self):
        sampler = compile_sampler(Circuit.from_text(
            "X 0\nM 0 1\nDETECTOR rec[-1]\nDETECTOR rec[-2]\n"
            "OBSERVABLE_INCLUDE(0) rec[-2]"
        ))
        detectors, observables = sampler.sample_detectors(70, 1)
        assert detectors.tolist() == [[0, 1]] * 70
        assert observables.tolist() == [[1]] * 70

    def test_random_detector_without_noise(self):
        sampler = compile_sampler(Circuit.from_text(
            "H 0\nM 0 1\nDETECTOR rec[-2]\nOBSERVABLE_INCLUDE(0) rec[-2] rec[-1]"
        ))
        for shots in (1, 2, 65):
            for seed in range(4):
                assert same(
                    sampler.sample_detectors(shots, seed, strategy="scatter"),
                    sampler.sample_detectors(shots, seed, strategy="sparse"),
                )

    def test_no_detectors(self):
        sampler = compile_sampler(
            Circuit.from_text("H 0\nX_ERROR(0.1) 0\nM 0")
        )
        for strategy in ("auto", "scatter", "sparse"):
            detectors, observables = sampler.sample_detectors(
                10, 0, strategy=strategy
            )
            assert detectors.shape == (10, 0)
            assert observables.shape == (10, 0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    shots=st.sampled_from([1, 7, 64, 200]),
)
def test_fuzz_scatter_equals_sparse(seed, shots):
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(
        rng, int(rng.integers(1, 6)), depth=20,
        p_noise=0.35, p_measure=0.15, p_reset=0.05,
        noise_strength=float(rng.choice([0.01, 0.1, 0.4])),
    )
    append_random_annotations(circuit, rng, n_detectors=3)
    sampler = compile_sampler(circuit)
    assert same(
        sampler.sample_detectors(shots, seed, strategy="scatter"),
        sampler.sample_detectors(shots, seed, strategy="sparse"),
    )
    assert same(
        sampler.sample_detectors(shots, seed),
        sampler.sample_detectors(shots, seed, strategy="sparse"),
    )
