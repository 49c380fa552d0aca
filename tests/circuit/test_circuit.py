"""Tests for the Circuit container, builders and statistics."""

import pytest

from repro.circuit import Circuit, RecTarget
from repro.circuit.instructions import Instruction, RepeatBlock


class TestBuilders:
    def test_shorthand_methods_chain(self):
        c = Circuit().h(0).cx(0, 1).m(0, 1)
        assert [e.name for e in c.entries] == ["H", "CX", "M"]

    def test_append_scalar_arg(self):
        c = Circuit().append("X_ERROR", [0], 0.1)
        assert c.entries[0].args == (0.1,)

    def test_append_validates(self):
        with pytest.raises(ValueError):
            Circuit().append("CX", [0])

    def test_detector_builder(self):
        c = Circuit().m(0).detector(-1)
        assert c.entries[1].targets == (RecTarget(-1),)

    def test_observable_builder(self):
        c = Circuit().m(0).observable_include(2, -1)
        assert c.entries[1].args == (2.0,)


class TestComposition:
    def test_add(self):
        c = Circuit().h(0) + Circuit().m(0)
        assert len(c.entries) == 2

    def test_iadd(self):
        c = Circuit().h(0)
        c += Circuit().m(0)
        assert len(c.entries) == 2

    def test_mul_wraps_in_repeat(self):
        c = Circuit().mr(0) * 4
        assert isinstance(c.entries[0], RepeatBlock)
        assert c.num_measurements == 4

    def test_mul_one_copies(self):
        base = Circuit().h(0)
        c = base * 1
        c.h(1)
        assert len(base.entries) == 1

    def test_mul_zero_rejected(self):
        with pytest.raises(ValueError):
            Circuit().h(0) * 0

    def test_copy_deep_for_repeats(self):
        inner = Circuit().m(0)
        c = Circuit().append_repeat(2, inner)
        copied = c.copy()
        copied.entries[0].body.m(1)
        assert inner.num_measurements == 1


class TestStatistics:
    def test_n_qubits(self):
        assert Circuit().cx(3, 7).n_qubits == 8
        assert Circuit().n_qubits == 0

    def test_n_qubits_sees_repeat_bodies(self):
        c = Circuit().append_repeat(2, Circuit().h(9))
        assert c.n_qubits == 10

    @pytest.mark.parametrize(
        "text, expected",
        [
            # Pauli targets count their qubit.
            ("H 0\nCORRELATED_ERROR(0.1) X2 Z11", 12),
            ("E(0.1) Y4", 5),
            # rec[-k] targets name no qubit, alone or among qubits.
            ("M 3\nDETECTOR rec[-1]", 4),
            ("M 0 1\nDETECTOR rec[-1] rec[-2]\nOBSERVABLE_INCLUDE(0) rec[-2]", 2),
            ("M 0\nCX rec[-1] 6", 7),
            ("M 8\nCX rec[-1] 1 2 5", 9),
            # REPEAT bodies, nested, with every target kind.
            ("REPEAT 2 {\n  REPEAT 3 {\n    M 13\n    CZ rec[-1] 2\n  }\n}", 14),
            ("H 1\nREPEAT 2 {\n  E(0.1) X20\n  DETECTOR rec[-1]\n}\nM 0", 21),
            ("DETECTOR rec[-1]", 0),
        ],
    )
    def test_n_qubits_target_kinds(self, text, expected):
        assert Circuit.from_text(text).n_qubits == expected

    def test_num_measurements_with_repeats(self):
        c = Circuit().m(0, 1)
        c.append_repeat(3, Circuit().mr(2))
        assert c.num_measurements == 5

    def test_num_detectors_and_observables(self):
        c = Circuit().m(0).detector(-1).observable_include(1, -1)
        assert c.num_detectors == 1
        assert c.num_observables == 2  # indices 0 and 1 exist

    def test_count_operations(self):
        c = (
            Circuit()
            .h(0, 1)
            .cx(0, 1, 1, 2)
            .depolarize1(0.1, 0, 1)
            .mr(0)
            .m(1, 2)
        )
        stats = c.count_operations()
        assert stats["gates"] == 4  # 2 H + 2 CX pairs
        assert stats["noise_sites"] == 2
        assert stats["measurements"] == 3
        assert stats["resets"] == 1

    def test_flattened_order(self):
        c = Circuit().h(0)
        c.append_repeat(2, Circuit().x(0).m(0))
        names = [i.name for i in c.flattened()]
        assert names == ["H", "X", "M", "X", "M"]


class TestInstructionValidation:
    def test_detector_requires_rec(self):
        with pytest.raises(ValueError):
            Instruction("DETECTOR", (3,)).validate()

    def test_correlated_error_requires_pauli(self):
        with pytest.raises(ValueError):
            Instruction("CORRELATED_ERROR", (0, 1), (0.1,)).validate()

    def test_noise_probability_bounds(self):
        with pytest.raises(ValueError):
            Instruction("PAULI_CHANNEL_1", (0,), (0.5, 0.5, 0.5)).validate()

    def test_str_formatting(self):
        inst = Instruction("X_ERROR", (0, 2), (0.5,))
        assert str(inst) == "X_ERROR(0.5) 0 2"

    def test_repeat_count_positive(self):
        with pytest.raises(ValueError):
            RepeatBlock(0, Circuit())


class TestFingerprint:
    def build(self):
        return (
            Circuit()
            .h(0)
            .cx(0, 1)
            .x_error(0.25, 0)
            .m(0, 1)
            .detector(-1, -2)
            .observable_include(0, -1)
        )

    def test_stable_across_reconstruction(self):
        assert self.build().fingerprint() == self.build().fingerprint()

    def test_parse_roundtrip_preserves_fingerprint(self):
        original = self.build()
        reparsed = Circuit.from_text(original.to_text())
        assert reparsed.fingerprint() == original.fingerprint()
        assert reparsed == original

    def test_regrouped_but_identical_stream_shares_fingerprint(self):
        # REPEAT structure is a serialization detail: the unrolled
        # circuit executes the identical instruction stream.
        body = Circuit().x(0).m(0)
        repeated = Circuit().h(0)
        repeated.append_repeat(3, body)
        unrolled = Circuit().h(0)
        for _ in range(3):
            unrolled += body.copy()
        assert repeated.to_text() != unrolled.to_text()
        assert repeated.fingerprint() == unrolled.fingerprint()

    def test_cosmetic_annotations_ignored(self):
        plain = self.build()
        decorated = Circuit().append("QUBIT_COORDS", [0], (0.0, 1.0))
        decorated += plain
        decorated.tick()
        assert decorated.fingerprint() == plain.fingerprint()

    def test_differing_gate_changes_fingerprint(self):
        assert self.build().fingerprint() != (
            Circuit().h(0).cz(0, 1).x_error(0.25, 0).m(0, 1)
            .detector(-1, -2).observable_include(0, -1)
        ).fingerprint()

    def test_differing_noise_strength_changes_fingerprint(self):
        a = Circuit().x_error(0.25, 0).m(0)
        b = Circuit().x_error(0.30, 0).m(0)
        assert a.fingerprint() != b.fingerprint()

    def test_reordered_instructions_change_fingerprint(self):
        a = Circuit().h(0).x(1).m(0, 1)
        b = Circuit().x(1).h(0).m(0, 1)
        assert a.fingerprint() != b.fingerprint()

    def test_equality_tracks_content(self):
        assert self.build() == self.build()
        assert self.build() != Circuit().h(0)
        assert Circuit() != "not a circuit"
