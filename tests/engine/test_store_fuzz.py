"""Fuzzing the result store: a damaged file never aborts a resume.

Valid store files are truncated and garbled line by line; ``load()``
must never raise, every untouched complete row must survive, and every
damaged complete line must be warned about by its line number.
"""

import contextlib
import io
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import ResultStore, TaskStats

N_ROWS = 6

# Replacements for one field of a row that make it an invalid task row
# while keeping the line valid JSON.
BAD_FIELDS = [
    ("shots", float("inf")),  # serializes as Infinity
    ("shots", float("-inf")),
    ("shots", float("nan")),
    ("shots", "many"),
    ("shots", None),
    ("shots", []),
    ("errors", float("inf")),
    # Counts are never coerced: each of these once loaded as a wrong
    # number instead of being skipped.
    ("shots", 2.9),
    ("shots", "12"),
    ("shots", True),
    ("shots", -1),
    ("errors", True),
    ("errors", -3),
    ("errors", 0.5),
    ("errors", 10_000),  # more errors than shots
    ("task_id", 7),
    ("task_id", ["t"]),
    ("metadata", [1, 2]),
]

# Garbage text: never a JSON object (no "{"), never blank, one line.
garbage = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="{\n\r"
    ),
    min_size=1,
    max_size=30,
).filter(lambda text: text.strip())


def valid_lines() -> list[str]:
    lines = []
    for i in range(N_ROWS):
        stats = TaskStats(
            f"task-{i}", "matching", "symbolic", metadata={"i": i},
            shots=100 * (i + 1), errors=i, base_seed=i,
        )
        lines.append(json.dumps(stats.to_row()))
    return lines


@st.composite
def garble(draw, line: str) -> str:
    kind = draw(st.sampled_from(["prefix", "field", "garbage", "overflow"]))
    if kind == "prefix":
        # A strict prefix of a JSON object line is never valid JSON.
        return line[: draw(st.integers(1, len(line) - 1))]
    if kind == "field":
        field, value = draw(st.sampled_from(BAD_FIELDS))
        return json.dumps(dict(json.loads(line), **{field: value}))
    if kind == "overflow":
        # 1e999 parses as inf, which int() cannot take.
        return re.sub(r'"shots": \d+', '"shots": 1e999', line, count=1)
    return draw(garbage)


@st.composite
def damaged_store(draw):
    lines = valid_lines()
    garbled = draw(
        st.sets(st.integers(0, N_ROWS - 1), max_size=N_ROWS)
    )
    for index in sorted(garbled):
        lines[index] = draw(garble(lines[index]))
    content = "".join(line + "\n" for line in lines)
    cut = draw(st.one_of(st.none(), st.integers(0, len(content))))
    if cut is not None:
        content = content[:cut]
    return content, garbled


def load_capturing(content: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "store.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            loaded = ResultStore(path).load()
    warned = {
        int(number)
        for number in re.findall(r"corrupt row at .*:(\d+)", err.getvalue())
    }
    return loaded, warned


@settings(max_examples=150, deadline=None)
@given(damaged_store())
def test_damaged_store_loads_intact_rows_and_warns_by_line(case):
    content, garbled = case
    loaded, warned = load_capturing(content)
    reference = [json.loads(line) for line in valid_lines()]
    # Lines that made it through the cut whole, newline included; the
    # final unterminated fragment (if any) is the torn tail.
    complete = content.count("\n")
    for index in range(complete):
        number = index + 1
        if index in garbled:
            assert number in warned, (number, content)
        else:
            row = reference[index]
            stats = loaded[row["task_id"]]
            assert (stats.shots, stats.errors) == (
                row["shots"], row["errors"],
            )
            assert number not in warned
    # Nothing outside the damaged lines is ever warned about.
    assert warned <= {index + 1 for index in garbled}


@pytest.mark.parametrize(
    "bad_row",
    [
        # 1e999 parses as inf; int(inf) overflows.
        '{"task_id": "t2", "shots": 1e999, "errors": 0}',
        # An unhashable id cannot key the loaded rows.
        '{"task_id": ["t2"], "shots": 5, "errors": 0}',
        # Nesting deep enough to exhaust the decoder's recursion.
        "[" * 100_000,
        # Counts that int() would coerce to 2/1 and 12/-3.
        '{"task_id": "t2", "shots": 2.9, "errors": true}',
        '{"task_id": "t2", "shots": "12", "errors": -3}',
        '{"task_id": "t2", "shots": 5, "errors": 6}',
        # An integer float() cannot take.
        '{"task_id": "t2", "shots": 5, "errors": 0, "seconds": 1' + "0" * 400 + "}",
    ],
    ids=[
        "overflow", "unhashable-id", "deep-nesting", "float-and-bool-counts",
        "string-and-negative-counts", "errors-exceed-shots", "huge-seconds",
    ],
)
def test_bad_row_is_skipped_with_warning(tmp_path, capsys, bad_row):
    """Rows that once aborted ``load()`` are skipped and named like
    every other corrupt row."""
    store = ResultStore(tmp_path / "r.jsonl")
    store.append(TaskStats("t1", "matching", "symbolic", shots=10, errors=1))
    with open(store.path, "a") as handle:
        handle.write(bad_row + "\n")
    store.append(TaskStats("t3", "matching", "symbolic", shots=5, errors=0))
    assert sorted(store.load()) == ["t1", "t3"]
    assert "r.jsonl:2" in capsys.readouterr().err
