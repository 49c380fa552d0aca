"""RES001 — resources must be released on every CFG path.

A handle acquired in a function (``SharedMemory``, a worker pool, a
file object) must, on *every* path to the function's exit, either be
released (``close``/``unlink``/``terminate``/...), be managed by a
``with`` block, or have its ownership escape — returned, stored on an
object, registered with a finalizer, passed to another call.  A path
where a live handle simply falls off the end (an early return between
acquire and release, say) leaks the resource; a leaked
``SharedMemory`` segment outlives the process in ``/dev/shm``.

Ownership is deliberately coarse: any *direct* use of the handle name
as a call argument, return/yield value, raise operand, container
element, or attribute/subscript store transfers ownership and ends
this function's obligation.  Attribute *reads* (``shm.buf``) and
release-method calls do not.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace
from typing import Iterator

from repro.analysis.core import Finding
from repro.analysis.dataflow import EMPTY_MARKS, MarkAnalysis
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail
from repro.analysis.rules.flow import FlowRule
from repro.analysis.summaries import DataflowContext

#: Constructors that hand this function a resource to own.
ACQUIRE_TAILS = frozenset({
    "SharedMemory", "Pool", "ThreadPool", "ProcessPoolExecutor",
    "ThreadPoolExecutor", "open", "fdopen", "TemporaryFile",
    "NamedTemporaryFile", "socket",
})

#: Method calls that release (or hand off) a held resource.
RELEASE_ATTRS = frozenset({
    "close", "unlink", "shutdown", "terminate", "release", "detach",
    "stop", "join",
})

_RES_PREFIX = "res:"


def _direct_names(expr: ast.expr) -> Iterator[str]:
    """Names whose *value itself* is consumed by ``expr`` (not names
    merely dereferenced on the way to an attribute or index)."""
    if isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            yield from _direct_names(element)
    elif isinstance(expr, ast.Dict):
        for key in expr.keys:
            if key is not None:
                yield from _direct_names(key)
        for value in expr.values:
            yield from _direct_names(value)
    elif isinstance(expr, ast.Starred):
        yield from _direct_names(expr.value)
    elif isinstance(expr, ast.IfExp):
        yield from _direct_names(expr.body)
        yield from _direct_names(expr.orelse)
    elif isinstance(expr, ast.NamedExpr):
        yield from _direct_names(expr.value)


def _walk_pruned(node: ast.AST) -> Iterator[ast.AST]:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(
            current,
            (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        yield current
        stack.extend(ast.iter_child_nodes(current))


def _escape_roots(node: ast.AST) -> list[ast.AST]:
    """What to scan for escapes: compound CFG elements contribute only
    the expressions evaluated at their own position (their bodies live
    in other blocks); simple statements are scanned whole."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter]
    if isinstance(node, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in node.items]
    if isinstance(node, ast.ExceptHandler):
        return [node.type] if node.type is not None else []
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ) or isinstance(node, ast.pattern):
        return []
    return [node]


def _escaping_names(node: ast.AST) -> set[str]:
    """Handle names whose ownership leaves this function at ``node``."""
    names: set[str] = set()
    for root in _escape_roots(node):
        names.update(_escaping_names_under(root))
    targets = ()
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = (node.target,)
    for target in targets:
        if not isinstance(target, (ast.Name, ast.Tuple, ast.List, ast.Starred)):
            # Attribute/subscript store: the value now outlives the
            # function's locals.
            value = getattr(node, "value", None)
            if value is not None:
                names.update(_direct_names(value))
    return names


def _escaping_names_under(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in _walk_pruned(node):
        if isinstance(sub, ast.Call):
            for arg in sub.args:
                names.update(_direct_names(arg))
            for kw in sub.keywords:
                names.update(_direct_names(kw.value))
        elif isinstance(sub, (ast.Return, ast.Yield, ast.YieldFrom)):
            if sub.value is not None:
                names.update(_direct_names(sub.value))
        elif isinstance(sub, ast.Raise):
            if sub.exc is not None:
                names.update(_direct_names(sub.exc))
    return names


class ResourceAnalysis(MarkAnalysis):
    """Local-only marks ``res:<ctor>:<line>`` naming the acquire site."""

    def call_marks(self, state, call: ast.Call) -> frozenset[str]:
        tail = dotted_tail(call.func)
        if tail in ACQUIRE_TAILS:
            return frozenset({f"{_RES_PREFIX}{tail}:{call.lineno}"})
        return EMPTY_MARKS

    def expr_marks(self, state, expr: ast.expr) -> frozenset[str]:
        # An attribute/subscript read (shm.buf) is a view, not the
        # handle — it must not inherit the release obligation.
        if isinstance(expr, (ast.Attribute, ast.Subscript)):
            return EMPTY_MARKS
        return super().expr_marks(state, expr)

    def transfer(self, state, node: ast.AST):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in RELEASE_ATTRS
                and isinstance(func.value, ast.Name)
            ):
                state = dict(state)
                state[func.value.id] = EMPTY_MARKS
        escaped = _escaping_names(node)
        if escaped:
            state = dict(state)
            for name in escaped:
                state[name] = EMPTY_MARKS
        if isinstance(node, (ast.With, ast.AsyncWith)):
            # ``with`` owns the release; as-names carry no obligation.
            for item in node.items:
                if item.optional_vars is not None:
                    state = self._bind(state, item.optional_vars, EMPTY_MARKS)
            return state
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Name)
            and all(isinstance(t, ast.Name) for t in node.targets)
        ):
            # ``alias = handle`` is a move: exactly one name owes the
            # release afterwards.
            marks = state.get(node.value.id, EMPTY_MARKS)
            state = dict(state)
            state[node.value.id] = EMPTY_MARKS
            for target in node.targets:
                state[target.id] = marks
            return state
        return super().transfer(state, node)


class ResourcePathRule(FlowRule):
    """RES001: acquire/release pairing on all CFG paths."""

    id = "RES001"
    severity = "error"
    title = "resource not released on some path to function exit"
    rationale = (
        "a SharedMemory segment, pool, or file object acquired without "
        "with/finally leaks on early returns and error paths; leaked "
        "segments outlive the process in /dev/shm."
    )
    version = 1
    domain = None  # obligations never cross function boundaries

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved,
    ) -> Iterator[Finding]:
        for info in file.functions.values():
            cfg = context.cfg(info)
            analysis = ResourceAnalysis()
            reported: set[str] = set()
            for _, state in analysis.exit_states(cfg):
                for name in sorted(state):
                    for mark in sorted(state[name]):
                        if not mark.startswith(_RES_PREFIX):
                            continue
                        if mark in reported:
                            continue
                        reported.add(mark)
                        _, ctor, line = mark.split(":")
                        yield self.finding(
                            index, file,
                            SimpleNamespace(lineno=int(line)),
                            f"{ctor}(...) held in {name!r} is not "
                            f"released on every path out of "
                            f"{info.qualname}()",
                            hint=(
                                "use a with block or try/finally, "
                                "call close()/unlink()/terminate() on "
                                "all paths, or hand ownership off "
                                "(return it / register a finalizer)"
                            ),
                        )
