"""Property tests for the circuit text format.

Three properties over generated inputs:

* any text either parses or raises :class:`CircuitParseError` naming a
  line — never another exception;
* a parsed circuit's ``to_text`` parses back to the same circuit, and
  the same holds for builder-made circuits (REPEAT blocks, ``rec[-k]``
  feedback, Pauli targets, arguments);
* ``canonical_text`` is a fixed point of parsing (the flattened stream
  parses back to the same canonical text), so the fingerprint survives
  a round trip through either serialization and ignores REPEAT
  unrolling and cosmetic annotations.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, RepeatBlock, parse_circuit
from repro.circuit.parser import CircuitParseError
from repro.gates.database import GATE_ALIASES, GATES
from tests.core.test_symbolic_pass import append_annotations, mixed_circuit

_NAMES = sorted(GATES) + sorted(GATE_ALIASES) + ["h", "cnot", "FOO", "REPEAT"]
_TARGETS = (
    "0", "1", "2", "7", "00", "-1", "rec[-1]", "rec[-2]", "rec[-0]",
    "rec[1]", "X0", "Y3", "Z1", "x0", "X-1", "²", "٣", "1.5", "q0", "}",
)
_ARGS = (
    "", "()", "(0)", "(0.1)", "(0.01, 0.02, 0.03)", "(1)", "(2)", "(-0.1)",
    "(nan)", "(inf)", "(-inf)", "(1e-3)", "(0.1,)", "(0.1 0.2)", "(x)",
    "(" + ", ".join(["0.01"] * 15) + ")",
)


@st.composite
def _lines(draw):
    """One line: mostly instruction-shaped, sometimes arbitrary text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=20))
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return f"REPEAT {draw(st.sampled_from(('0', '1', '3', 'x', '')))} {{"
    if kind == 1:
        return "}"
    name = draw(st.sampled_from(_NAMES))
    args = draw(st.sampled_from(_ARGS))
    targets = draw(st.lists(st.sampled_from(_TARGETS), max_size=5))
    comment = draw(st.sampled_from(("", "  # note", "#")))
    return f"{name}{args} {' '.join(targets)}{comment}"


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_lines(), max_size=12))
def test_text_parses_or_fails_with_a_line_number(lines):
    text = "\n".join(lines)
    try:
        circuit = parse_circuit(text)
    except CircuitParseError as error:
        assert 1 <= error.line_number <= max(len(text.splitlines()), 1)
        return
    # Whatever parses serializes, and the serialization parses back.
    assert parse_circuit(circuit.to_text()) == circuit
    assert parse_circuit(circuit.canonical_text()).canonical_text() == (
        circuit.canonical_text()
    )


@st.composite
def _circuits(draw):
    """Builder-made circuits over every gate family, with REPEAT blocks
    (nested, too) and cosmetic annotations."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    circuit = mixed_circuit(rng, draw(st.integers(2, 5)), draw(st.integers(1, 25)))
    append_annotations(circuit, rng)
    if draw(st.booleans()):
        circuit.append("TICK")
        circuit.append("QUBIT_COORDS", [0], [1.5, -2.0])
    if draw(st.booleans()):
        circuit = Circuit().h(0) + circuit * draw(st.integers(1, 3))
    return circuit


@settings(max_examples=150, deadline=None)
@given(circuit=_circuits())
def test_builder_circuits_round_trip(circuit):
    parsed = parse_circuit(circuit.to_text())
    assert parsed == circuit
    assert parsed.canonical_text() == circuit.canonical_text()
    assert parsed.fingerprint() == circuit.fingerprint()


@settings(max_examples=150, deadline=None)
@given(circuit=_circuits())
def test_canonical_text_is_a_parsing_fixed_point(circuit):
    canonical = circuit.canonical_text()
    flat = parse_circuit(canonical)
    assert flat.canonical_text() == canonical
    assert flat.fingerprint() == circuit.fingerprint()
    # The canonical stream has no REPEAT blocks and no cosmetic lines.
    assert not any(isinstance(entry, RepeatBlock) for entry in flat.entries)
    assert "TICK" not in canonical and "QUBIT_COORDS" not in canonical


@settings(max_examples=100, deadline=None)
@given(circuit=_circuits(), count=st.integers(2, 4))
def test_repeat_block_and_its_unrolling_share_a_fingerprint(circuit, count):
    unrolled = Circuit()
    for _ in range(count):
        unrolled += circuit.copy()
    assert (circuit * count).fingerprint() == unrolled.fingerprint()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_arguments_rejected(value):
    with pytest.raises(CircuitParseError, match="line 1"):
        parse_circuit(f"QUBIT_COORDS({value}) 0")


@pytest.mark.parametrize("line", ["H ²", "DETECTOR rec[-0]"])
def test_malformed_targets_name_the_line(line):
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit(f"M 0\n{line}")
