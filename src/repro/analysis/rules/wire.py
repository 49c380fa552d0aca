"""WIRE001 — chunk specs stay header-only across the worker boundary.

The pool wire (:mod:`repro.engine.workers`) pickles one ``ChunkSpec``
per leased chunk, so a spec is deliberately header-only: it carries
strings and ints — the circuit text, seeds, sizes — and workers rebuild
every heavy object from them.  Smuggling a closure (silently re-pickles
its globals), a lock (unpicklable or, worse, fork-duplicated), or a
live ndarray (copies megabytes per chunk through the pickle wire) into
a spec can break or slow the pool in ways that only show up under
load.  This rule tracks those three
provenances flow-sensitively within each function and flags spec
construction that receives one.  It runs without interprocedural
summaries: none of its fixtures is caught only through a helper's
return value.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding
from repro.analysis.dataflow import EMPTY_MARKS, MarkAnalysis
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail
from repro.analysis.rules.flow import (
    FlowRule,
    calls_in,
    describe_expr,
    element_exprs,
    resolved_callable,
)
from repro.analysis.rules.pack import PACKED_PRODUCERS, UNPACKED_PRODUCERS
from repro.analysis.summaries import DataflowContext

#: Spec constructors crossing the worker boundary.
SPEC_TAILS = frozenset({"ChunkSpec"})

#: Synchronization primitives (fork-hostile, often unpicklable).
_LOCK_TAILS = frozenset({
    "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event",
    "Condition", "Barrier",
})

#: ``numpy`` constructors whose results are live arrays.
_ARRAY_FUNCTIONS = frozenset({
    "array", "asarray", "zeros", "ones", "empty", "full", "arange",
    "frombuffer", "fromiter", "copy", "concatenate", "stack",
})

#: Row producers whose result is an ndarray.  ``decode``/``detect``
#: are excluded: those tails collide with ``bytes.decode()``-style
#: methods far more often than they mean a row decoder here.
_ARRAY_PRODUCERS = (PACKED_PRODUCERS | UNPACKED_PRODUCERS) - frozenset({
    "decode", "detect",
})


class WireAnalysis(MarkAnalysis):
    """Local-only marks: ``closure``, ``lock``, ``array``."""

    def __init__(self, file: SourceFile):
        self.file = file

    def call_marks(self, state, call: ast.Call) -> frozenset[str]:
        tail = dotted_tail(call.func)
        if tail in _LOCK_TAILS:
            return frozenset({"lock"})
        if tail in _ARRAY_PRODUCERS:
            return frozenset({"array"})
        module, fn = resolved_callable(self.file, call)
        if module == "numpy" and fn in _ARRAY_FUNCTIONS:
            return frozenset({"array"})
        if isinstance(call.func, ast.Attribute):
            # Method call: assume the result keeps the receiver's marks
            # (buf.reshape(...), rows.copy(), ...).
            return self.expr_marks(state, call.func.value)
        return EMPTY_MARKS

    def def_marks(self, node: ast.AST) -> frozenset[str]:
        return frozenset({"closure"})


_PROBLEMS = {
    "closure": "a closure/lambda (re-pickles its captured globals)",
    "lock": "a synchronization primitive (fork-hostile, unpicklable)",
    "array": "a live ndarray (copies the payload through the pickle wire)",
}


class WireContractRule(FlowRule):
    """WIRE001: header-only values in chunk spec construction."""

    id = "WIRE001"
    severity = "error"
    title = "non-header value smuggled into a chunk spec"
    rationale = (
        "ChunkSpec must stay header-only (str/int fields); closures, "
        "locks, and live arrays break or bloat the pickled pool wire."
    )
    version = 2
    domain = None  # the marks never cross function boundaries

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved,
    ) -> Iterator[Finding]:
        for info in file.functions.values():
            analysis = WireAnalysis(file)
            cfg = context.cfg(info)
            for element, state in analysis.walk(cfg):
                for call in calls_in(element_exprs(element)):
                    if dotted_tail(call.func) not in SPEC_TAILS:
                        continue
                    args = [(None, arg) for arg in call.args] + [
                        (kw.arg, kw.value) for kw in call.keywords
                    ]
                    for kw_name, arg in args:
                        marks = analysis.expr_marks(state, arg)
                        for mark in sorted(marks & _PROBLEMS.keys()):
                            field = (
                                f"field {kw_name!r}" if kw_name
                                else f"argument {describe_expr(arg)}"
                            )
                            yield self.finding(
                                index, file, call,
                                f"{dotted_tail(call.func)}() {field} "
                                f"receives {_PROBLEMS[mark]} in "
                                f"{info.qualname}()",
                                hint=(
                                    "ship headers only: pass plain "
                                    "str/int fields and rebuild state "
                                    "worker-side"
                                ),
                            )
