"""Parse-once source index: ASTs, imports, symbols, and a call graph.

The whole analyzed tree is parsed exactly once into
:class:`SourceFile`\\ s; rules share the resulting
:class:`SourceIndex` — import bindings resolved per module, every
function/method registered under ``module:qualname``, and a lightweight
intra-package call graph with conservative method-name fallback for
dynamic dispatch.  Rules never re-read or re-parse files.

Targets vs context: findings are only reported for *target* files, but
cross-module rules (call-graph reachability, registry discovery,
facade layering) need the whole package in view even when a single
subtree is analyzed, so the runner indexes the installed ``repro``
source as non-target *context*.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


@dataclass(frozen=True)
class ImportBinding:
    """What a local name means: a module, or an attribute of one."""

    module: str
    attr: str | None = None


def _module_name(path: Path) -> str:
    """Dotted module name derived from the package layout on disk."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class FunctionInfo:
    """One function or method definition."""

    module: str
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: "SourceFile"

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


class SourceFile:
    """One parsed source file plus its per-module lookup tables."""

    def __init__(self, path: Path, rel: str, is_target: bool):
        self.path = path
        self.rel = rel
        self.is_target = is_target
        text = path.read_text(encoding="utf-8")
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        self.module = _module_name(path)
        self.bindings = _import_bindings(self.tree)
        # (qualname, start, end) spans for enclosing_symbol lookups.
        self._spans: list[tuple[str, int, int]] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: list[str] = []
        self._collect_symbols(self.tree.body, prefix="")
        self.module_level_names = _module_level_names(self.tree)
        self.module_mutables = _module_mutables(self.tree)

    def _collect_symbols(self, body: Iterable[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                info = FunctionInfo(
                    module=self.module, qualname=qualname, node=node, file=self
                )
                self.functions[qualname] = info
                self._spans.append(
                    (qualname, node.lineno, node.end_lineno or node.lineno)
                )
                self._collect_symbols(node.body, prefix=f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}"
                self.classes.append(qualname)
                self._spans.append(
                    (qualname, node.lineno, node.end_lineno or node.lineno)
                )
                self._collect_symbols(node.body, prefix=f"{qualname}.")

    def enclosing_symbol(self, line: int) -> str:
        """Qualname of the innermost def/class containing ``line``."""
        best = "<module>"
        best_size = None
        for qualname, start, end in self._spans:
            if start <= line <= end:
                size = end - start
                if best_size is None or size <= best_size:
                    best, best_size = qualname, size
        return best


def _import_bindings(tree: ast.Module) -> dict[str, ImportBinding]:
    bindings: dict[str, ImportBinding] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = ImportBinding(alias.name)
                else:
                    # ``import a.b`` binds ``a``; attribute chains
                    # resolve the rest.
                    root = alias.name.split(".", 1)[0]
                    bindings[root] = ImportBinding(root)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                local = alias.asname or alias.name
                bindings[local] = ImportBinding(node.module, alias.name)
    return bindings


_CONTAINER_CTORS = {
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "Counter",
}


def _module_level_names(tree: ast.Module) -> frozenset[str]:
    names = set()
    for node in tree.body:
        for target in _assign_targets(node):
            names.add(target)
    return frozenset(names)


def _assign_targets(node: ast.stmt) -> Iterator[str]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                yield target.id
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            yield node.target.id


def _module_mutables(tree: ast.Module) -> dict[str, int]:
    """Module-level names bound to mutable containers -> def line."""
    mutables: dict[str, int] = {}
    for node in tree.body:
        value = getattr(node, "value", None)
        if value is None:
            continue
        is_container = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                    ast.DictComp, ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and dotted_tail(value.func) in _CONTAINER_CTORS
        )
        if is_container:
            for target in _assign_targets(node):
                mutables[target] = node.lineno
    return mutables


def dotted_parts(node: ast.expr) -> list[str] | None:
    """``a.b.c`` -> ``["a", "b", "c"]``; None for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.insert(0, node.id)
        return parts
    return None


def dotted_tail(node: ast.expr) -> str | None:
    """The final attribute/name of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


@dataclass(frozen=True)
class BrokenFile:
    """A file that failed to parse — indexed as a record, not a crash,
    so PARSE000 can report it while the rest of the tree analyzes."""

    rel: str
    is_target: bool
    line: int
    message: str


class SourceIndex:
    """All parsed files plus cross-module lookup structure."""

    def __init__(
        self, files: list[SourceFile], broken: list[BrokenFile] | None = None
    ):
        self.files = files
        self.broken: list[BrokenFile] = broken or []
        self.by_module: dict[str, SourceFile] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self._by_bare_name: dict[str, list[FunctionInfo]] = {}
        self.class_modules: dict[str, set[str]] = {}
        for file in files:
            self.by_module.setdefault(file.module, file)
            for info in file.functions.values():
                self.functions[info.key] = info
                self._by_bare_name.setdefault(info.name, []).append(info)
            for qualname in file.classes:
                bare = qualname.rsplit(".", 1)[-1]
                self.class_modules.setdefault(bare, set()).add(file.module)

    # -- iteration -------------------------------------------------------

    def target_files(self) -> Iterator[SourceFile]:
        for file in self.files:
            if file.is_target:
                yield file

    def is_target(self, file: SourceFile) -> bool:
        return file.is_target

    # -- call resolution -------------------------------------------------

    def resolve_call(
        self, file: SourceFile, call: ast.Call, fallback_by_name: bool = False
    ) -> list[FunctionInfo]:
        """Functions a call may dispatch to, resolved through imports.

        ``fallback_by_name`` additionally matches ``expr.m(...)`` against
        every indexed function named ``m`` — a deliberate
        over-approximation for reachability analyses (better to visit
        too much of the graph than to miss worker-executed code).
        """
        func = call.func
        if isinstance(func, ast.Name):
            info = file.functions.get(func.id)
            if info is not None:
                return [info]
            binding = file.bindings.get(func.id)
            if binding is not None and binding.attr is not None:
                return self._lookup(binding.module, binding.attr)
            return []
        parts = dotted_parts(func)
        if parts and len(parts) >= 2:
            binding = file.bindings.get(parts[0])
            if binding is not None and binding.attr is None:
                # ``import repro.obs as obs; obs.reset()`` and deeper
                # chains like ``repro.engine.faults.install()``.
                module = ".".join([binding.module] + parts[1:-1])
                resolved = self._lookup(module, parts[-1])
                if resolved:
                    return resolved
        if fallback_by_name and isinstance(func, ast.Attribute):
            return list(self._by_bare_name.get(func.attr, ()))
        return []

    def _lookup(self, module: str, name: str) -> list[FunctionInfo]:
        """The function ``module.name`` denotes, following re-exports
        (``repro.core.compile_sampler`` is defined in
        ``repro.core.compiled_sampler`` and imported by the package)."""
        seen: set[tuple[str, str]] = set()
        while (module, name) not in seen:
            seen.add((module, name))
            target = self.by_module.get(module)
            if target is None:
                return []
            if name in target.functions:
                return [target.functions[name]]
            binding = target.bindings.get(name)
            if binding is None or binding.attr is None:
                return []
            module, name = binding.module, binding.attr
        return []

    def reachable(
        self, roots: Iterable[FunctionInfo], fallback_by_name: bool = True
    ) -> dict[str, FunctionInfo]:
        """BFS closure of the call graph from ``roots``.

        Calls inside nested functions and lambdas count as calls of the
        enclosing definition (they run, at the latest, when the
        enclosure is executed by a worker).
        """
        seen: dict[str, FunctionInfo] = {}
        queue = list(roots)
        while queue:
            info = queue.pop()
            if info.key in seen:
                continue
            seen[info.key] = info
            for node in ast.walk(info.node):
                if isinstance(node, ast.Call):
                    for callee in self.resolve_call(
                        info.file, node, fallback_by_name=fallback_by_name
                    ):
                        if callee.key not in seen:
                            queue.append(callee)
        return seen


@dataclass
class IndexBuilder:
    """Collects file paths (targets + context) and builds the index."""

    root: Path
    targets: list[Path] = field(default_factory=list)
    context: list[Path] = field(default_factory=list)

    def build(self) -> SourceIndex:
        files: list[SourceFile] = []
        broken: list[BrokenFile] = []
        seen: set[Path] = set()
        for path, is_target in self._ordered_paths():
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            rel = self._rel(resolved)
            try:
                files.append(SourceFile(resolved, rel, is_target))
            except SyntaxError as exc:
                broken.append(
                    BrokenFile(
                        rel=rel,
                        is_target=is_target,
                        line=exc.lineno or 1,
                        message=exc.msg or "invalid syntax",
                    )
                )
        return SourceIndex(files, broken)

    def _ordered_paths(self) -> Iterator[tuple[Path, bool]]:
        for target in self.targets:
            for path in _python_files(target):
                yield path, True
        for ctx in self.context:
            for path in _python_files(ctx):
                yield path, False

    def _rel(self, path: Path) -> str:
        try:
            return path.relative_to(self.root.resolve()).as_posix()
        except ValueError:
            return path.as_posix()


def _python_files(path: Path) -> Iterator[Path]:
    if path.is_dir():
        yield from sorted(path.rglob("*.py"))
    elif path.suffix == ".py":
        yield path


def repro_source_root() -> Path | None:
    """The installed ``repro`` package source (context for partial runs)."""
    package_root = Path(__file__).resolve().parent.parent
    return package_root if (package_root / "__init__.py").exists() else None
