"""FORK001 — fork-safety of worker-executed code.

Pool workers are forked (or spawned) from the parent: any module-level
mutable state a worker-executed function mutates is either lost,
duplicated per process, or — the expensive case PR 7 debugged with the
obs buffers — *inherited with the parent's dirty contents* and silently
double-counted.  The contract: state a worker mutates must be reset in
the pool initializer (or be an idempotent guarded memo).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import (
    FunctionInfo,
    SourceFile,
    SourceIndex,
    dotted_tail,
)

#: Container methods that mutate in place.
_MUTATORS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "appendleft", "extendleft",
})

#: ``pool.<method>(target, ...)`` calls whose first argument runs in a
#: worker process.
_POOL_DISPATCH = frozenset({
    "map", "map_async", "imap", "imap_unordered", "starmap",
    "starmap_async", "apply", "apply_async",
})


def _pool_roots(
    index: SourceIndex,
) -> tuple[list[FunctionInfo], list[FunctionInfo]]:
    """(worker roots, initializer roots) discovered from pool wiring."""
    workers: list[FunctionInfo] = []
    initializers: list[FunctionInfo] = []
    for file in index.files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_tail(node.func)
            if tail == "Pool":
                for kw in node.keywords:
                    if kw.arg == "initializer" and isinstance(
                        kw.value, ast.Name
                    ):
                        initializers.extend(
                            _resolve_name(index, file, kw.value.id)
                        )
            elif tail in _POOL_DISPATCH and node.args:
                first = node.args[0]
                if isinstance(first, ast.Name):
                    workers.extend(_resolve_name(index, file, first.id))
    return workers, initializers


def _resolve_name(
    index: SourceIndex, file: SourceFile, name: str
) -> list[FunctionInfo]:
    info = file.functions.get(name)
    if info is not None:
        return [info]
    binding = file.bindings.get(name)
    if binding is not None and binding.attr is not None:
        target = index.by_module.get(binding.module)
        if target is not None and binding.attr in target.functions:
            return [target.functions[binding.attr]]
    return []


def _global_rebinds(node: ast.AST) -> frozenset[str]:
    """Names declared ``global`` and assigned within ``node``."""
    declared: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Global):
            declared.update(sub.names)
    if not declared:
        return frozenset()
    assigned: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name) and target.id in declared:
                    assigned.add(target.id)
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            if (
                isinstance(sub.target, ast.Name)
                and sub.target.id in declared
            ):
                assigned.add(sub.target.id)
    return frozenset(assigned)


def _container_mutations(
    info: FunctionInfo,
) -> Iterator[tuple[str, ast.AST, str]]:
    """(name, node, how) for mutations of module-level containers."""
    mutables = info.file.module_mutables
    for sub in ast.walk(info.node):
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = (
                sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutables
                ):
                    yield target.value.id, sub, "item assignment"
        elif isinstance(sub, ast.Delete):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutables
                ):
                    yield target.value.id, sub, "item deletion"
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in mutables
            ):
                yield func.value.id, sub, f".{func.attr}()"


def _is_guarded_memo(info: FunctionInfo, name: str) -> bool:
    """Idempotent memo pattern: the mutating function also reads the
    state through a membership/get guard, so a re-run (or a forked
    inherit) converges to the same contents."""
    for sub in ast.walk(info.node):
        if isinstance(sub, ast.Compare):
            if any(isinstance(op, (ast.In, ast.NotIn)) for op in sub.ops):
                names = [
                    c.id
                    for c in sub.comparators
                    if isinstance(c, ast.Name)
                ]
                if name in names:
                    return True
        elif isinstance(sub, ast.Call):
            func = sub.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "setdefault")
                and isinstance(func.value, ast.Name)
                and func.value.id == name
            ):
                return True
    return False


def _is_lazy_singleton(info: FunctionInfo, name: str) -> bool:
    """``global X`` + ``if X is None: X = ...`` lazy initialization —
    idempotent, so fork inheritance of the built value is consistent."""
    for sub in ast.walk(info.node):
        if isinstance(sub, ast.If) and isinstance(sub.test, ast.Compare):
            test = sub.test
            if (
                isinstance(test.left, ast.Name)
                and test.left.id == name
                and any(isinstance(op, ast.Is) for op in test.ops)
                and any(
                    isinstance(c, ast.Constant) and c.value is None
                    for c in test.comparators
                )
            ):
                return True
    return False


class ForkSafetyRule(Rule):
    """FORK001: worker-executed functions must not mutate module-level
    state the pool initializer does not reset."""

    id = "FORK001"
    severity = "error"
    title = "fork-unsafe module state in worker code"
    rationale = (
        "forked workers inherit the parent's module state; mutating it "
        "without an initializer reset loses updates, double-counts "
        "inherited deltas, or diverges between transports."
    )

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        workers, initializers = _pool_roots(index)
        if not workers:
            return
        worker_reach = index.reachable(workers)
        init_reach = index.reachable(initializers)
        resets = self._reset_names(init_reach)
        for info in worker_reach.values():
            if not info.file.is_target or info.key in init_reach:
                continue
            for name, node, how in _container_mutations(info):
                if (info.module, name) in resets:
                    continue
                if _is_guarded_memo(info, name):
                    continue
                yield self._mutation_finding(index, info, name, node, how)
            for name in _global_rebinds(info.node):
                if (info.module, name) in resets:
                    continue
                if _is_lazy_singleton(info, name):
                    continue
                yield self._mutation_finding(
                    index, info, name, info.node, "global rebinding"
                )

    def _mutation_finding(self, index, info, name, node, how) -> Finding:
        return self.finding(
            index, info.file, node,
            f"worker-executed {info.qualname}() mutates module-level "
            f"{name!r} ({how}) without a pool-initializer reset",
            hint=(
                "reset the state in the pool initializer (like "
                "obs.reset() in enter_worker), or "
                "make the mutation an idempotent guarded memo"
            ),
        )

    @staticmethod
    def _reset_names(
        init_reach: dict[str, FunctionInfo],
    ) -> set[tuple[str, str]]:
        """(module, name) pairs the initializer rebinds or clears."""
        resets: set[tuple[str, str]] = set()
        for info in init_reach.values():
            for name in _global_rebinds(info.node):
                resets.add((info.module, name))
            for sub in ast.walk(info.node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "clear"
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id in info.file.module_level_names
                ):
                    resets.add((info.module, sub.func.value.id))
        return resets
