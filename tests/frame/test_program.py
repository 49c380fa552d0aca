"""Tests for the compiled frame program (lowering + execution)."""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.circuit.instructions import disjoint_runs
from repro.frame import FrameProgram, FrameSimulator, compile_frame_program
from repro.frame.program import (
    FeedbackOp,
    MeasureResetOp,
    NoiseOp,
    Unitary1QOp,
    Unitary2QOp,
)


class TestDisjointRuns:
    def test_unique_targets_one_run(self):
        assert disjoint_runs([0, 1, 2]) == [[0, 1, 2]]

    def test_repeat_splits(self):
        assert disjoint_runs([0, 1, 0]) == [[0, 1], [0]]

    def test_pairs_kept_intact(self):
        assert disjoint_runs([0, 1, 2, 3], arity=2) == [[0, 1, 2, 3]]
        assert disjoint_runs([0, 1, 1, 2], arity=2) == [[0, 1], [1, 2]]

    def test_empty(self):
        assert disjoint_runs([]) == []


class TestLowering:
    def test_consecutive_same_gate_fused(self):
        c = Circuit().h(0).h(1).h(2).m(0, 1, 2)
        program = FrameProgram(c)
        unitary_ops = [op for op in program.ops if isinstance(op, Unitary1QOp)]
        assert len(unitary_ops) == 1
        assert list(unitary_ops[0].idx) == [0, 1, 2]

    def test_pauli_gates_dropped(self):
        c = Circuit().x(0).z(1).y(2).m(0, 1, 2)
        program = FrameProgram(c)
        assert not any(
            isinstance(op, (Unitary1QOp, Unitary2QOp)) for op in program.ops
        )

    def test_two_qubit_op_groups_pairs(self):
        c = Circuit().cx(0, 1, 2, 3).m(0, 1, 2, 3)
        program = FrameProgram(c)
        two_q = [op for op in program.ops if isinstance(op, Unitary2QOp)]
        assert len(two_q) == 1
        assert list(two_q[0].a) == [0, 2]
        assert list(two_q[0].b) == [1, 3]

    def test_overlapping_pairs_split(self):
        c = Circuit().cx(0, 1).cx(1, 2).m(0, 1, 2)
        program = FrameProgram(c)
        two_q = [op for op in program.ops if isinstance(op, Unitary2QOp)]
        assert len(two_q) == 2

    def test_record_buffer_sized_to_measurements(self):
        c = Circuit().m(0, 1).mr(0).m(1)
        program = FrameProgram(c)
        assert program.n_records == 4

    def test_measure_op_record_slices_are_contiguous(self):
        c = Circuit().m(0, 1, 2)
        program = FrameProgram(c)
        ops = [op for op in program.ops if isinstance(op, MeasureResetOp)]
        assert len(ops) == 1
        assert (ops[0].rec_start, ops[0].rec_stop) == (0, 3)

    def test_noise_channel_preresolved(self):
        c = Circuit().depolarize1(0.1, 0, 1, 2).m(0)
        program = FrameProgram(c)
        noise = [op for op in program.ops if isinstance(op, NoiseOp)]
        assert len(noise) == 1
        assert noise[0].n_sites == 3
        assert len(noise[0].plans) == 2  # X symbol and Z symbol

    def test_feedback_resolves_absolute_record_index(self):
        from repro.circuit import RecTarget

        c = Circuit().m(0, 1).append("CX", [RecTarget(-2), 1]).m(1)
        program = FrameProgram(c)
        feedback = [op for op in program.ops if isinstance(op, FeedbackOp)]
        assert len(feedback) == 1
        rec_index, qubit, flip_x, flip_z = feedback[0].actions[0]
        assert rec_index == 0
        assert qubit == 1
        assert (flip_x, flip_z) == (True, False)

    def test_annotations_produce_no_ops(self):
        c = Circuit().tick().m(0).detector(-1).observable_include(0, -1)
        program = FrameProgram(c)
        assert len(program.ops) == 1
        assert len(program.detectors) == 1
        assert len(program.observables) == 1


class TestExecution:
    def test_run_returns_packed_flips(self, rng):
        c = Circuit().h(0).m(0)
        program = compile_frame_program(c)
        packed = program.run(100, rng)
        assert packed.shape == (1, 2)
        assert packed.dtype == np.uint64

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            compile_frame_program(Circuit().m(0)).run(0, rng)

    def test_deterministic_flips_are_zero(self, rng):
        # X then M: the outcome is deterministic, so no frame flips.
        c = Circuit().x(0).cx(0, 1).m(0, 1)
        packed = compile_frame_program(c).run(200, rng)
        assert not packed.any()

    def test_program_reusable_across_batches(self):
        c = Circuit().h(0).cx(0, 1).x_error(0.2, 0).m(0, 1)
        program = compile_frame_program(c)
        a = program.run(500, np.random.default_rng(3))
        b = program.run(500, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_duplicate_measure_targets(self, rng):
        # M 0 0 must record the same outcome twice (sequential runs).
        c = Circuit().h(0).append("M", [0, 0])
        records = FrameSimulator(c).sample(2000, rng)
        assert np.array_equal(records[:, 0], records[:, 1])

    def test_duplicate_unitary_targets_match_sequential(self, rng):
        # H 0 0 is the identity; a naive gather/scatter would apply H once.
        c = Circuit().append("H", [0, 0]).m(0)
        records = FrameSimulator(c).sample(500, rng)
        assert not records.any()


class TestPackedDetectorDerivation:
    def test_matches_record_xor(self, rng):
        p = 0.2
        c = (
            Circuit()
            .x_error(p, 0)
            .mr(0)
            .x_error(p, 0)
            .mr(0)
            .detector(-1, -2)
            .observable_include(0, -1)
        )
        sim = FrameSimulator(c)
        seed = 77
        records = sim.sample(4000, np.random.default_rng(seed))
        detectors, observables = sim.sample_detectors(
            4000, np.random.default_rng(seed)
        )
        assert np.array_equal(detectors[:, 0], records[:, 0] ^ records[:, 1])
        assert np.array_equal(observables[:, 0], records[:, 1])

    def test_reference_parity_folded_in(self, rng):
        # X 0 then MR twice: both outcomes are 1, detector (parity) is 0,
        # observable (single outcome) is 1 for every shot.
        c = (
            Circuit()
            .x(0)
            .m(0)
            .m(0)
            .detector(-1, -2)
            .observable_include(0, -1)
        )
        detectors, observables = FrameSimulator(c).sample_detectors(64, rng)
        assert not detectors.any()
        assert observables.all()
