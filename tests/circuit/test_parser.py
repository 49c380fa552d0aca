"""Tests for the circuit text parser."""

import pytest

from repro.circuit import Circuit, PauliTarget, RecTarget, parse_circuit
from repro.circuit.parser import CircuitParseError


class TestBasicParsing:
    def test_simple_gates(self):
        c = parse_circuit("H 0\nCX 0 1\nM 0 1")
        assert len(c.entries) == 3
        assert c.entries[0].name == "H"
        assert c.entries[1].targets == (0, 1)

    def test_aliases_canonicalized(self):
        c = parse_circuit("CNOT 0 1\nMZ 2")
        assert c.entries[0].name == "CX"
        assert c.entries[1].name == "M"

    def test_arguments(self):
        c = parse_circuit("X_ERROR(0.25) 0 1 2")
        assert c.entries[0].args == (0.25,)
        assert c.entries[0].targets == (0, 1, 2)

    def test_multi_arguments_with_commas(self):
        c = parse_circuit("PAULI_CHANNEL_1(0.1, 0.2, 0.3) 0")
        assert c.entries[0].args == (0.1, 0.2, 0.3)

    def test_comments_and_blank_lines(self):
        c = parse_circuit("# header\n\nH 0  # trailing\n\n")
        assert len(c.entries) == 1

    def test_case_insensitive_names(self):
        c = parse_circuit("h 0\ncx 0 1")
        assert c.entries[0].name == "H"


class TestTargets:
    def test_rec_targets(self):
        c = parse_circuit("M 0 1\nDETECTOR rec[-1] rec[-2]")
        detector = c.entries[1]
        assert detector.targets == (RecTarget(-1), RecTarget(-2))

    def test_pauli_targets(self):
        c = parse_circuit("E(0.1) X0 Y2 Z5")
        assert c.entries[0].targets == (
            PauliTarget("X", 0), PauliTarget("Y", 2), PauliTarget("Z", 5)
        )

    def test_observable_include(self):
        c = parse_circuit("M 0\nOBSERVABLE_INCLUDE(3) rec[-1]")
        assert c.entries[1].args == (3.0,)

    def test_bad_target(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("H zero")

    def test_positive_rec_rejected(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("DETECTOR rec[3]")


class TestRepeatBlocks:
    def test_basic_repeat(self):
        c = parse_circuit("REPEAT 3 {\n  H 0\n  M 0\n}")
        flattened = list(c.flattened())
        assert len(flattened) == 6
        assert c.num_measurements == 3

    def test_nested_repeat(self):
        c = parse_circuit(
            "REPEAT 2 {\n  X 0\n  REPEAT 3 {\n    M 0\n  }\n}"
        )
        assert c.num_measurements == 6

    def test_unclosed_repeat(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("REPEAT 2 {\nH 0")

    def test_unmatched_close(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("}")

    def test_zero_count_names_repeat_line(self):
        with pytest.raises(CircuitParseError) as excinfo:
            parse_circuit("H 0\nREPEAT 0 {\nH 0\n}")
        assert excinfo.value.line_number == 2
        assert "REPEAT count must be at least 1" in str(excinfo.value)

    def test_zero_count_nested_names_its_own_line(self):
        with pytest.raises(CircuitParseError) as excinfo:
            parse_circuit("REPEAT 2 {\n  REPEAT 0 {\n    M 0\n  }\n}")
        assert excinfo.value.line_number == 2


class TestErrors:
    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError) as excinfo:
            parse_circuit("H 0\nFOO 1")
        assert excinfo.value.line_number == 2

    def test_bad_probability(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("X_ERROR(1.5) 0")

    def test_odd_two_qubit_targets(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("CX 0 1 2")

    def test_repeated_qubit_in_pair(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("CX 0 0")

    def test_missing_argument(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("X_ERROR 0")


class TestRoundTrip:
    def test_text_roundtrip(self):
        text = "\n".join([
            "H 0",
            "CX 0 1",
            "DEPOLARIZE1(0.125) 0 1",
            "REPEAT 5 {",
            "    MR 1",
            "    DETECTOR rec[-1]",
            "}",
            "M 0 1",
            "OBSERVABLE_INCLUDE(0) rec[-2]",
        ])
        circuit = parse_circuit(text)
        assert parse_circuit(circuit.to_text()) == circuit

    def test_from_text_classmethod(self):
        assert Circuit.from_text("H 0") == parse_circuit("H 0")
