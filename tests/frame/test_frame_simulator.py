"""Tests for the Pauli-frame baseline sampler."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.backends import compile_backend, get_backend
from repro.circuit import Circuit
from repro.core import compile_sampler
from repro.engine.cache import reset_shared_cache
from repro.frame import FrameSimulator
from repro.qec import surface_code_memory
from repro.tableau import reference_sample
from repro.workloads import fig3c_circuit
from tests.core.test_symbolic_pass import append_annotations, mixed_circuit
from tests.helpers import random_clifford_circuit


class TestDeterministicCircuits:
    def test_fixed_outcomes(self, rng):
        c = Circuit().x(0).cx(0, 1).m(0, 1)
        records = FrameSimulator(c).sample(100, rng)
        assert np.array_equal(records, np.ones((100, 2), dtype=np.uint8))

    def test_empty_record(self, rng):
        c = Circuit().h(0)
        assert FrameSimulator(c).sample(10, rng).shape == (10, 0)

    def test_zero_shots_rejected(self, rng):
        with pytest.raises(ValueError):
            FrameSimulator(Circuit().m(0)).sample(0, rng)


class TestRandomness:
    def test_plus_state_uniform(self, rng):
        c = Circuit().h(0).m(0)
        records = FrameSimulator(c).sample(40000, rng)
        assert 0.49 < records.mean() < 0.51

    def test_bell_correlation(self, rng):
        c = Circuit().h(0).cx(0, 1).m(0, 1)
        records = FrameSimulator(c).sample(20000, rng)
        assert np.array_equal(records[:, 0], records[:, 1])
        assert 0.48 < records[:, 0].mean() < 0.52

    def test_ghz_all_equal(self, rng):
        c = Circuit().h(0).cx(0, 1).cx(1, 2).m(0, 1, 2)
        records = FrameSimulator(c).sample(5000, rng)
        assert (records.min(axis=1) == records.max(axis=1)).all()

    def test_repeated_measurement_consistent(self, rng):
        c = Circuit().h(0).m(0).m(0)
        records = FrameSimulator(c).sample(5000, rng)
        assert np.array_equal(records[:, 0], records[:, 1])

    def test_reset_kills_randomness(self, rng):
        c = Circuit().h(0).r(0).m(0)
        records = FrameSimulator(c).sample(2000, rng)
        assert not records.any()

    def test_mx_of_plus_deterministic(self, rng):
        c = Circuit().h(0).append("MX", [0])
        records = FrameSimulator(c).sample(500, rng)
        assert not records.any()


class TestNoise:
    def test_x_error_rate(self, rng):
        c = Circuit().x_error(0.25, 0).m(0)
        records = FrameSimulator(c).sample(60000, rng)
        assert abs(records.mean() - 0.25) < 0.01

    def test_z_error_invisible(self, rng):
        c = Circuit().z_error(1.0, 0).m(0)
        records = FrameSimulator(c).sample(100, rng)
        assert not records.any()

    def test_z_error_visible_after_h(self, rng):
        c = Circuit().h(0).z_error(1.0, 0).h(0).m(0)
        records = FrameSimulator(c).sample(100, rng)
        assert records.all()

    def test_correlated_error(self, rng):
        c = Circuit.from_text("E(1) X0 X2\nM 0 1 2")
        records = FrameSimulator(c).sample(50, rng)
        assert np.array_equal(records.mean(axis=0), [1, 0, 1])

    def test_depolarize1_on_measurement(self, rng):
        # DEPOLARIZE1(p) flips a Z measurement with probability 2p/3.
        p = 0.3
        c = Circuit().depolarize1(p, 0).m(0)
        records = FrameSimulator(c).sample(60000, rng)
        assert abs(records.mean() - 2 * p / 3) < 0.01

    def test_noise_independent_across_shots(self, rng):
        c = Circuit().x_error(0.5, 0).m(0)
        records = FrameSimulator(c).sample(2000, rng)[:, 0]
        # Adjacent-shot correlation should be near zero.
        matches = (records[:-1] == records[1:]).mean()
        assert 0.45 < matches < 0.55


class TestDetectors:
    def test_detector_definitions_collected(self):
        c = Circuit().mr(0).mr(0).detector(-1, -2).observable_include(0, -1)
        sim = FrameSimulator(c)
        assert len(sim.detectors) == 1
        assert list(sim.detectors[0]) == [1, 0]
        assert len(sim.observables) == 1

    def test_noiseless_detectors_silent(self, rng):
        c = Circuit().h(0).cx(0, 1).m(0, 1).detector(-1, -2)
        det, _ = FrameSimulator(c).sample_detectors(2000, rng)
        assert not det.any()

    def test_detector_rate(self, rng):
        p = 0.15
        c = Circuit().x_error(p, 0).mr(0).mr(0).detector(-1, -2)
        det, _ = FrameSimulator(c).sample_detectors(60000, rng)
        assert abs(det.mean() - p) < 0.01


class TestReference:
    def test_custom_reference_shifts_outputs(self, rng):
        c = Circuit().m(0, 1)
        base = FrameSimulator(c).sample(10, rng)
        shifted = FrameSimulator(
            c, reference=np.array([1, 0], dtype=np.uint8)
        ).sample(10, rng)
        assert np.array_equal(shifted[:, 0], base[:, 0] ^ 1)
        assert np.array_equal(shifted[:, 1], base[:, 1])


#: ``sample(130, 11)`` records and ``sample_detectors_packed(130, 12)``
#: of the frame samplers, recorded when the reference sample came from a
#: separate noiseless tableau run.
FRAME_DIGESTS = {
    "surface_d3": "2a80c0b7f59f172c6c6b054b926ca66ba8f7d30d9b289ba29e374172da3f1b95",
    "surface_d5": "d2902b2d043305500683c345858dfef832e0b132534e02eef8b020834bd47a68",
    "surface_d7": "4ee38ed9dd439073afdbf50e649f1ca470d547542d82091fb7faea76d13f8419",
    "fig3c_n32": "0a4973e7de1e285277317257dcb3459ec71718b385dea53317738484fd881425",
    "mixed": "242b8856a515be98da0450891a19a08a47aa158e8219bf64460683a36d56f7e5",
}


def _digest_circuits():
    circuits = {
        f"surface_d{d}": surface_code_memory(
            d, rounds=d,
            after_clifford_depolarization=0.002,
            before_measure_flip_probability=0.002,
        )
        for d in (3, 5, 7)
    }
    circuits["fig3c_n32"] = fig3c_circuit(32, seed=3)
    rng = np.random.default_rng(2024)
    circuits["mixed"] = mixed_circuit(rng, 6, 80)
    append_annotations(circuits["mixed"], rng)
    return circuits


def _frame_digest(sampler) -> str:
    digest = hashlib.sha256(sampler.sample(130, 11).tobytes())
    for part in sampler.sample_detectors_packed(130, 12):
        digest.update(part.tobytes())
    return digest.hexdigest()


class TestReferenceFromSymbolicPass:
    """The reference record is the constant column of Algorithm 1's
    measurement matrix; it equals the tableau's noiseless run with
    random outcomes pinned to 0, so every frame sample is unchanged."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n_qubits=st.integers(2, 7),
        depth=st.integers(1, 60),
    )
    def test_constant_column_is_the_tableau_reference(
        self, seed, n_qubits, depth
    ):
        # Every measure/reset basis, MR, feedback and every noise channel.
        circuit = mixed_circuit(np.random.default_rng(seed), n_qubits, depth)
        assert np.array_equal(
            compile_sampler(circuit).reference(), reference_sample(circuit)
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_constant_column_on_random_clifford_circuits(self, seed):
        circuit = random_clifford_circuit(
            np.random.default_rng(seed), 5, 80, p_noise=0.2, p_measure=0.2,
            p_reset=0.1, p_feedback=0.1,
        )
        assert np.array_equal(
            compile_sampler(circuit).reference(), reference_sample(circuit)
        )

    @pytest.mark.parametrize("backend", ["frame", "frame-interp"])
    @pytest.mark.parametrize("name", sorted(FRAME_DIGESTS))
    def test_fixed_seed_samples_unchanged(self, name, backend):
        circuit = _digest_circuits()[name]
        assert _frame_digest(compile_backend(circuit, backend)) == (
            FRAME_DIGESTS[name]
        )
        reset_shared_cache()
        try:
            cached = circuit.compile(sampler=backend).sampler
            assert _frame_digest(cached) == FRAME_DIGESTS[name]
        finally:
            reset_shared_cache()

    def test_given_pass_is_not_rerun(self):
        circuit = surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        symbolic = compile_sampler(circuit)
        obs.enable(tracing=True, metrics=False)
        frame = get_backend("frame").compile(circuit, symbolic)
        assert not [
            r for r in obs.drain_spans() if r.name == "core.symbolic_pass"
        ]
        assert np.array_equal(frame.reference, reference_sample(circuit))

    @pytest.mark.parametrize("backend", ["frame", "frame-interp"])
    def test_standalone_frame_keeps_the_tableau_reference(self, backend):
        """Without a pass handed in, the frame baseline runs no
        Algorithm 1 pass, so its init time stays independent of
        SymPhase's."""
        circuit = surface_code_memory(3, rounds=2, after_clifford_depolarization=0.01)
        obs.enable(tracing=True, metrics=False)
        frame = compile_backend(circuit, backend)
        assert not [
            r for r in obs.drain_spans() if r.name == "core.symbolic_pass"
        ]
        assert np.array_equal(frame.reference, reference_sample(circuit))


class TestContiguity:
    def test_sample_rows_are_c_contiguous(self, rng):
        c = Circuit().x_error(0.1, 0).m(0, 1).m(0)
        for shots in (1, 64, 130):
            records = FrameSimulator(c).sample(shots, rng)
            assert records.flags.c_contiguous, shots

    def test_detector_rows_are_c_contiguous(self, rng):
        c = Circuit().x_error(0.1, 0).mr(0).mr(0).detector(-1, -2)
        c = c.observable_include(0, -1)
        detectors, observables = FrameSimulator(c).sample_detectors(130, rng)
        assert detectors.flags.c_contiguous
        assert observables.flags.c_contiguous


class TestPackedDetectors:
    def test_packed_view_matches_unpacked_bitwise(self):
        from repro.gf2 import bitops

        c = Circuit().x_error(0.12, 0).mr(0).mr(0).detector(-1, -2)
        c = c.observable_include(0, -1)
        for mode in ("compiled", "interpreted"):
            sim = FrameSimulator(c, mode=mode)
            det, obs = sim.sample_detectors(333, np.random.default_rng(5))
            det_p, obs_p = sim.sample_detectors_packed(
                333, np.random.default_rng(5)
            )
            assert det_p.dtype == np.uint64
            assert np.array_equal(bitops.pack_rows(det), det_p), mode
            assert np.array_equal(bitops.pack_rows(obs), obs_p), mode

    def test_packed_reference_parity_applied(self):
        """A deterministically-firing detector must fire in the packed
        view too (the constant reference parity is XORed in packed)."""
        c = Circuit().x(0).m(0).detector(-1)
        sim = FrameSimulator(c)
        det_p, _ = sim.sample_detectors_packed(70, np.random.default_rng(0))
        from repro.gf2 import bitops

        assert bitops.unpack_rows(det_p, 1).all()
