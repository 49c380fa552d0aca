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

import repro.core.compiled_sampler as compiled_sampler
from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.gf2 import bitops
from repro.noise.channels import hit_plan, sample_hits
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
            hit_plan(probabilities), offsets.size, shots, rng
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
        sampler = compile_sampler(CIRCUITS[name]())
        for shots in (512, 4096):
            assert sampler.detector_strategy(shots) == "scatter"

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
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    def test_record_nonzeros_read_from_the_plan(self, name):
        """The record rule counts ``M``'s nonzeros from its record plan
        (constants, coin and noise entries), not with a second pass."""
        sampler = compile_sampler(CIRCUITS[name]())
        matrix = sampler.measurement_matrix
        _, eq4_words = sampler._scatter_costs(matrix)
        nonzeros = int(bitops.popcount_rows(matrix).sum())
        assert eq4_words == (sampler.width + nonzeros) / 64.0

    def test_high_noise_keeps_eq4(self):
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.15,
            before_measure_flip_probability=0.15,
        ))
        for shots in (512, 4096):
            assert sampler.scatter_cost_ratio(shots) > 1.0
            assert sampler.detector_strategy(shots) == sampler.choose_strategy()

    def test_surface_low_noise_runs_the_scatter(self):
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.002,
            before_measure_flip_probability=0.002,
        ))
        assert sampler.detector_strategy(512) == "scatter"
        assert sampler.detector_strategy(4096) == "scatter"

    @pytest.mark.parametrize("p", [0.1, 0.15, 0.3])
    def test_surface_from_p_01_runs_eq4(self, p):
        """On 4096-shot calls; smaller calls shift the crossover up."""
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=p,
            before_measure_flip_probability=p,
        ))
        assert sampler.detector_strategy(4096) == "sparse"

    def test_small_calls_take_the_scatter_longer(self):
        """Eq. 4's per-row cost is per call: at p = 0.1 the scatter is
        ~1.1x faster on 512-shot engine chunks, while the kernels tie on
        4096-shot calls."""
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.1,
            before_measure_flip_probability=0.1,
        ))
        assert sampler.detector_strategy(512) == "scatter"
        assert sampler.detector_strategy(4096) == "sparse"
        for shots in (512, 4096):
            assert same(
                sampler.sample_detectors(shots, 3),
                sampler.sample_detectors(shots, 3, strategy="sparse"),
            )

    def test_strategy_follows_each_calls_shots(self, monkeypatch):
        """``auto`` decides per call, not once per sampler."""
        sampler = compile_sampler(surface_code_memory(
            5, rounds=5, after_clifford_depolarization=0.1,
            before_measure_flip_probability=0.1,
        ))
        ran = []
        scatter = sampler._scatter

        def counting(shots, rng):
            ran.append(shots)
            return scatter(shots, rng)

        monkeypatch.setattr(sampler, "_scatter", counting)
        sampler.sample_detectors(512, 1)
        sampler.sample_detectors(4096, 1)
        sampler.sample_detectors(512, 2)
        assert ran == [512, 512]

    def test_repetition_low_noise_runs_the_scatter(self):
        """~2.2x faster at 512 shots and ~1.4x at 4096 (p = 0.02)."""
        sampler = compile_sampler(repetition_code_memory(
            9, rounds=9, data_flip_probability=0.02,
            measure_flip_probability=0.02,
        ))
        assert sampler.detector_strategy(512) == "scatter"
        assert sampler.detector_strategy(4096) == "scatter"

    def test_repetition_counts_eq4_per_row_cost(self, monkeypatch):
        """Few nonzeros per detector row: Eq. 4's per-row loop, not its
        nonzeros, is its cost, so the scatter runs (~1.4x faster at 512
        shots, p = 0.05) although its words outnumber Eq. 4's fill and
        nonzero words; 4096-shot calls, where the kernels tie, run Eq. 4."""
        sampler = compile_sampler(repetition_code_memory(
            9, rounds=9, data_flip_probability=0.05,
            measure_flip_probability=0.05,
        ))
        assert sampler.detector_strategy(512) == "scatter"
        assert sampler.detector_strategy(4096) == "sparse"
        monkeypatch.setattr(compiled_sampler, "_EQ4_ROW_WORDS", 0.0)
        assert sampler.scatter_cost_ratio(512) > 1.0

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


def kinds_circuit() -> Circuit:
    """One instruction of every channel kind, repeated targets, zero-
    probability patterns, a random measurement and feedback, with
    detectors over every measurement so each symbol has a column."""
    return Circuit.from_text(
        """
        R 0 1 2 3
        H 0 2
        CX 0 1 2 3
        X_ERROR(0.05) 1 1 3 1
        DEPOLARIZE1(0.04) 0 2 2
        DEPOLARIZE2(0.03) 0 1 1 0 2 3
        PAULI_CHANNEL_2(0,0.01,0,0,0.02,0,0,0,0,0.03,0,0,0,0,0.04) 1 2 3 0
        CORRELATED_ERROR(0.06) X0 Z2 Y3 X0
        M 0
        CX rec[-1] 1
        Z_ERROR(0.05) 1 2
        M 1 2 3
        DETECTOR rec[-3] rec[-2]
        DETECTOR rec[-2] rec[-1]
        DETECTOR rec[-1]
        DETECTOR rec[-4] rec[-3]
        OBSERVABLE_INCLUDE(0) rec[-4] rec[-1]
        """
    )


def set_symbols(table, shots, rng) -> tuple[np.ndarray, np.ndarray]:
    """``(symbol, shot)`` of every noise symbol one draw sets, replayed
    from ``sample_hits`` and split one bit of the joint patterns at a
    time: the expansion the scatters ran before they read one (site,
    pattern) row per hit."""
    coin_symbols, clusters = table.draw_plan()
    if coin_symbols.size:
        bitops.random_packed(
            (coin_symbols.size, bitops.words_for(shots)), shots, rng
        )
    symbols, shot_of = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for cluster in clusters:
        for sites, shot_indices, patterns in sample_hits(
            hit_plan(cluster.probabilities), cluster.offsets.size, shots, rng
        ):
            first = cluster.offsets[sites]
            for j in range(cluster.symbols_per_site):
                hit = np.flatnonzero(patterns & (1 << j) != 0)
                symbols.append(first.take(hit) + j)
                shot_of.append(shot_indices.take(hit))
    return np.concatenate(symbols), np.concatenate(shot_of)


def pattern_symbols(table):
    """Row -> ``(site's first symbol, symbols its pattern sets)``, for
    every row of the clusters' per-(site, pattern) tables, by a scalar
    walk."""
    _, clusters = table.draw_plan()
    out = []
    for cluster in clusters:
        k = cluster.symbols_per_site
        assert cluster.base == len(out)
        for offset in cluster.offsets.tolist():
            for pattern in range(1 << k):
                out.append(
                    (offset, [offset + j for j in range(k) if pattern >> j & 1])
                )
    assert len(out) == table.pattern_rows()
    return out


@pytest.fixture(scope="module", params=["kinds", "mixed", "surface_d3_p0.01"])
def row_sampler(request):
    build = kinds_circuit if request.param == "kinds" else CIRCUITS[request.param]
    return compile_sampler(build())


class TestPatternRows:
    """Each hit reads one (site, pattern) row: the XOR of its pattern's
    symbol columns (detectors) or the measurements of those columns
    (records)."""

    def test_kinds_circuit_covers_every_channel_shape(self):
        table = compile_sampler(kinds_circuit()).symbols
        coins, clusters = table.draw_plan()
        assert coins.size >= 1
        assert sorted(c.symbols_per_site for c in clusters) == [1, 1, 2, 4, 4]
        pc2 = [c for c in clusters if c.symbols_per_site == 4
               and 0.0 in c.probabilities]
        assert len(pc2) == 1

    def test_detector_rows_are_pattern_xors(self, row_sampler):
        columns = row_sampler._columns
        table = row_sampler._detector_rows
        rows = pattern_symbols(row_sampler.symbols)
        for row, (_, symbols) in enumerate(rows):
            expected = np.zeros(columns.shape[1], dtype=np.uint64)
            for symbol in symbols:
                expected ^= columns[symbol]
            assert np.array_equal(table[row], expected), (row, symbols)
        coin_symbols, _ = row_sampler.symbols.draw_plan()
        live = coin_symbols[row_sampler._live_coins]
        assert np.array_equal(table[len(rows):], columns[live])

    def test_record_rows_read_the_pattern_columns(self, row_sampler):
        """A row's runs of consecutive set symbols, read from the plan's
        symbol-major CSR, list each set symbol's measurement column in
        turn, so their flips, XORed, are the XOR of those columns."""
        plan = row_sampler._record_plan
        # [symbol, measurement]: whether the measurement holds the symbol.
        by_symbol = bitops.unpack_rows(
            row_sampler.measurement_matrix, row_sampler.width
        ).T.astype(bool)
        flips = plan.noise_words * 64 + np.log2(
            plan.noise_masks.astype(np.float64)
        ).astype(np.int64)
        _, clusters = row_sampler.symbols.draw_plan()
        rows = pattern_symbols(row_sampler.symbols)
        for cluster in clusters:
            k = cluster.symbols_per_site
            lo, hi = compiled_sampler._pattern_runs(k)
            for row in range(cluster.base, cluster.base + (cluster.offsets.size << k)):
                offset, symbols = rows[row]
                pattern = (row - cluster.base) & ((1 << k) - 1)
                runs = [range(offset + a, offset + b)
                        for a, b in zip(lo[pattern], hi[pattern])]
                assert [s for run in runs for s in run] == symbols, row
                listed = np.concatenate([np.zeros(0, dtype=np.int64)] + [
                    flips[plan.noise_indptr[run.start] : plan.noise_indptr[run.stop]]
                    for run in runs
                ])
                expected = np.concatenate([np.zeros(0, dtype=np.int64)] + [
                    np.flatnonzero(by_symbol[symbol]) for symbol in symbols
                ])
                assert listed.tolist() == expected.tolist(), row

    @pytest.mark.parametrize("shots", [1, 64, 130, 4097])
    def test_hit_rows_map_back_to_the_set_symbols(self, row_sampler, shots):
        """Every drawn hit's row names exactly the (symbol, shot) pairs
        the bit-by-bit walk expands it to."""
        table = row_sampler.symbols
        rows = pattern_symbols(table)
        draw = table.draw(shots, np.random.default_rng(shots))
        symbols, shot_of = set_symbols(
            table, shots, np.random.default_rng(shots)
        )
        expected = sorted(zip(symbols.tolist(), shot_of.tolist()))
        got = sorted(
            (symbol, shot)
            for hits in draw.hits
            for row, shot in zip(hits.rows.tolist(), hits.shots.tolist())
            for symbol in rows[row][1]
        )
        assert got == expected
        for hits in draw.hits:
            cluster = hits.cluster
            k = cluster.symbols_per_site
            stop = cluster.base + (cluster.offsets.size << k)
            assert np.all((hits.rows >= cluster.base) & (hits.rows < stop))

    @pytest.mark.parametrize("name", ["kinds", "surface_d5_p0.002"])
    def test_detector_table_at_most_four_columns(self, name):
        """2^k rows per site of k symbols, k <= 4, and at most one per
        coin: never more than 4x the symbol-major columns (about
        0.11 MiB at d = 5)."""
        build = kinds_circuit if name == "kinds" else CIRCUITS[name]
        sampler = compile_sampler(build())
        assert sampler._detector_rows.nbytes <= 4 * sampler._columns.nbytes


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    shots=st.sampled_from([1, 63, 64, 65, 512]),
)
def test_fuzz_scatters_equal_dense_eq4_on_the_draw(seed, shots):
    """Both scatters are Eq. 4 on the ``B`` that ``draw_symbols``
    returns from the same seed."""
    rng = np.random.default_rng(seed)
    circuit = random_clifford_circuit(
        rng, int(rng.integers(1, 6)), depth=20,
        p_noise=0.35, p_measure=0.15, p_reset=0.05, p_feedback=0.1,
        noise_strength=float(rng.choice([0.01, 0.1, 0.4])),
    )
    append_random_annotations(circuit, rng, n_detectors=3)
    sampler = compile_sampler(circuit)
    symbol_values = sampler.draw_symbols(shots, seed)
    for matrix, scatter in (
        (sampler._derived(), sampler._scatter),
        (sampler.measurement_matrix, sampler._scatter_records),
    ):
        eq4 = sampler._sample_rows(matrix, shots, None, "dense", symbol_values)
        assert np.array_equal(scatter(shots, np.random.default_rng(seed)), eq4)


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
