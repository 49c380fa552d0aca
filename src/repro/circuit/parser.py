"""Parser for the Stim-dialect circuit text format.

Grammar (per line)::

    instruction ::= NAME [ "(" arg ("," arg)* ")" ] target*
    target      ::= INT | "rec[" NEG_INT "]" | PAULI INT
    block       ::= "REPEAT" INT "{" ... "}"

Comments start with ``#``.  Blank lines are ignored.  ``}`` closes the
innermost REPEAT block and must appear on its own line.
"""

from __future__ import annotations

import re

from repro.circuit.circuit import Circuit
from repro.circuit.instructions import (
    Instruction,
    PauliTarget,
    RecTarget,
    RepeatBlock,
    Target,
)
from repro.gates.database import get_gate

_REC_RE = re.compile(r"^rec\[(-\d+)\]$")
_PAULI_RE = re.compile(r"^([XYZ])(\d+)$")
_REPEAT_RE = re.compile(r"^REPEAT\s+(\d+)\s*\{$", re.IGNORECASE)
_NAME_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(([^)]*)\))?\s*(.*)$")


class CircuitParseError(ValueError):
    """Raised with a line number when circuit text is malformed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _parse_target(token: str, line_number: int) -> Target:
    if token.isascii() and token.isdigit():
        return int(token)
    match = _REC_RE.match(token)
    if match:
        try:
            return RecTarget(int(match.group(1)))
        except ValueError as exc:  # rec[-0]
            raise CircuitParseError(line_number, str(exc)) from exc
    match = _PAULI_RE.match(token)
    if match:
        return PauliTarget(match.group(1), int(match.group(2)))
    raise CircuitParseError(line_number, f"unrecognized target {token!r}")


def parse_circuit(text: str) -> Circuit:
    """Parse circuit text into a :class:`Circuit`."""
    root = Circuit()
    # (circuit, repeat_count, repeat_line) — the count applies when the
    # block closes; a bad count is reported at the REPEAT line.
    stack: list[tuple[Circuit, int, int]] = []
    current = root

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue

        if line == "}":
            if not stack:
                raise CircuitParseError(line_number, "unmatched '}'")
            parent, count, repeat_line = stack.pop()
            try:
                block = RepeatBlock(count, current)
            except ValueError as exc:
                raise CircuitParseError(repeat_line, str(exc)) from exc
            parent.entries.append(block)
            current = parent
            continue

        repeat_match = _REPEAT_RE.match(line)
        if repeat_match:
            stack.append((current, int(repeat_match.group(1)), line_number))
            current = Circuit()
            continue

        name_match = _NAME_RE.match(line)
        if not name_match:
            raise CircuitParseError(line_number, f"cannot parse {line!r}")
        name, args_text, targets_text = name_match.groups()

        try:
            gate = get_gate(name)
        except KeyError as exc:
            raise CircuitParseError(line_number, str(exc)) from exc

        args: tuple[float, ...] = ()
        if args_text is not None and args_text.strip():
            try:
                args = tuple(
                    float(a) for a in args_text.replace(",", " ").split()
                )
            except ValueError as exc:
                raise CircuitParseError(
                    line_number, f"bad arguments {args_text!r}"
                ) from exc

        targets = tuple(
            _parse_target(token, line_number)
            for token in targets_text.split()
        )

        instruction = Instruction(gate.name, targets, args)
        try:
            instruction.validate()
        except ValueError as exc:
            raise CircuitParseError(line_number, str(exc)) from exc
        current.entries.append(instruction)

    if stack:
        raise CircuitParseError(len(text.splitlines()), "unclosed REPEAT block")
    return root
