"""REG001 — backends/decoders go through their registries.

PR 2/PR 3 put every sampler and decoder behind name-keyed registries
with capability flags (``packed_native``, ``batched``, ``graphlike_only``…):
the engine, CLI, harness and examples all resolve by name, so adding
an implementation is one ``register_*`` call.  Direct instantiation
outside the registry bypasses alias canonicalization, capability
checks, and the fingerprint-keyed caches — and forks the code path the
registries exist to unify.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail

_REGISTER_CALLS = frozenset({"register_decoder", "register_backend"})


def _registered_impls(index: SourceIndex) -> dict[str, set[str]]:
    """class name -> modules allowed to instantiate it directly.

    Discovered statically: every ``register_decoder``/``register_backend``
    call is located, its factory argument (a lambda or a same-module
    function) is walked, and class names instantiated inside it, or
    inside a function it calls, become the registered implementations.
    Allowed modules: the registering module and the module defining the
    class.
    """
    impls: dict[str, set[str]] = {}
    for file in index.files:
        for node in ast.walk(file.tree):
            if not (
                isinstance(node, ast.Call)
                and dotted_tail(node.func) in _REGISTER_CALLS
            ):
                continue
            factory = None
            if len(node.args) >= 2:
                factory = node.args[1]
            else:
                for kw in node.keywords:
                    if kw.arg == "factory":
                        factory = kw.value
            for cls in _factory_classes(index, file, factory):
                allowed = impls.setdefault(cls, set())
                allowed.add(file.module)
                allowed.update(index.class_modules.get(cls, ()))
    return impls


def _factory_classes(
    index: SourceIndex, file: SourceFile, factory: ast.expr | None
) -> Iterator[str]:
    """Classes a factory instantiates, directly or through one call to
    an indexed function (``compile_sampler(circuit)`` builds a
    ``CompiledSampler``)."""
    if factory is None:
        return
    body: ast.AST | None = None
    if isinstance(factory, ast.Lambda):
        body = factory.body
    elif isinstance(factory, ast.Name):
        info = file.functions.get(factory.id)
        if info is not None:
            body = info.node
    if body is None:
        return
    yield from _instantiated(index, body)
    for sub in ast.walk(body):
        if isinstance(sub, ast.Call):
            for callee in index.resolve_call(file, sub):
                yield from _instantiated(index, callee.node)


def _instantiated(index: SourceIndex, body: ast.AST) -> Iterator[str]:
    for sub in ast.walk(body):
        if isinstance(sub, ast.Call):
            tail = dotted_tail(sub.func)
            if tail in index.class_modules:
                yield tail


class RegistryRule(Rule):
    """REG001: no direct instantiation of registered implementations
    outside their registry module (tests exempt)."""

    id = "REG001"
    severity = "warning"
    title = "registered implementation instantiated directly"
    rationale = (
        "direct construction bypasses alias canonicalization, "
        "capability flags and the fingerprint-keyed caches; resolve by "
        "name through repro.backends / repro.decoders instead."
    )

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        impls = _registered_impls(index)
        if not impls:
            return
        for file in index.target_files():
            if "tests" in file.path.parts:
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not isinstance(func, ast.Name):
                    continue
                allowed = impls.get(func.id)
                if allowed is None or file.module in allowed:
                    continue
                yield self.finding(
                    index, file, node,
                    f"direct instantiation of registered implementation "
                    f"{func.id}()",
                    hint=(
                        "resolve by name: compile_backend(circuit, name) "
                        "/ compile_decoder(dem, name), or "
                        "Circuit.compile(sampler=..., decoder=...)"
                    ),
                )
