"""SHM001 — shared-memory segments must be unlinked on every exit path.

A ``multiprocessing.shared_memory.SharedMemory(create=True)`` segment
is a *named* kernel object: a crash between create and unlink leaks
``/dev/shm`` space until reboot.  PR 7's discipline: every create is
paired with an unlink via a context manager, a try/finally (or except)
unlink, or a ``weakref.finalize`` backstop owned by the creating
module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail


def _creates_segment(call: ast.Call) -> bool:
    if dotted_tail(call.func) != "SharedMemory":
        return False
    for kw in call.keywords:
        if kw.arg == "create":
            return (
                isinstance(kw.value, ast.Constant) and kw.value.value is True
            )
    return False


def _calls_unlink(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "unlink"
        ):
            return True
    return False


def _has_finalize(tree: ast.Module) -> bool:
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Call) and dotted_tail(sub.func) == "finalize":
            return True
    return False


def _with_managed(file: SourceFile, create_call: ast.Call) -> bool:
    """The create call is a ``with`` item's context expression."""
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.context_expr is create_call:
                    return True
    return False


class ShmUnlinkRule(Rule):
    """SHM001: pair every ``SharedMemory(create=True)`` with unlink."""

    id = "SHM001"
    severity = "error"
    title = "SharedMemory create without unlink discipline"
    rationale = (
        "named segments outlive the process; a create without an "
        "all-exit-paths unlink (context manager, try/finally, or "
        "weakref.finalize backstop) leaks /dev/shm on crash or "
        "KeyboardInterrupt."
    )

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        for file in index.target_files():
            module_backstopped = _has_finalize(file.tree) and any(
                _calls_unlink(info.node) for info in file.functions.values()
            )
            for node in ast.walk(file.tree):
                if not (isinstance(node, ast.Call) and _creates_segment(node)):
                    continue
                if _with_managed(file, node):
                    continue
                symbol = file.enclosing_symbol(node.lineno)
                enclosing = file.functions.get(symbol)
                if enclosing is not None and _calls_unlink(enclosing.node):
                    continue
                if module_backstopped:
                    continue
                yield self.finding(
                    index, file, node,
                    "SharedMemory(create=True) with no unlink on any "
                    "exit path",
                    hint=(
                        "unlink in a finally/except in the creating "
                        "function, manage the segment with `with`, or "
                        "register a weakref.finalize backstop that "
                        "unlinks"
                    ),
                )
