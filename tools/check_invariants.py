"""Invariant checks that no test can hold, as one plain AST walk.

Usage::

    python tools/check_invariants.py src/repro examples benchmarks

Prints one ``path:line: RULE message`` line per finding, and exits 1 when
there is any finding or any stale entry in :data:`ALLOWED`.

Rules:

* ``API001`` — ``examples/``, ``benchmarks/`` and ``repro/cli.py`` import
  only the facade modules in :data:`FACADES`: deep imports freeze
  internals into quasi-public API.
* ``EXC001`` — no ``repro.engine`` exception handler swallows an error
  silently (a body of ``pass``/constants, or a bare ``except:`` that does
  not re-raise): the supervisor must see every failure to count, retry
  or quarantine it.  ``contextlib.suppress(ExcType)`` is the explicit
  spelling of a deliberate ignore.
* ``OBS001`` — no ``repro.obs`` probe (span, event, counter, gauge,
  histogram) inside a per-shot loop (a loop whose iterable or test
  mentions "shot"): probes are budgeted per chunk.
* ``REG001`` — a class a ``register_backend`` / ``register_decoder``
  factory builds is instantiated only in its registering or defining
  module (and in tests): everything else resolves it by name through the
  registry, which canonicalises aliases and shares the cached builds.
* ``RES001`` — ``open()`` and the other constructors in :data:`ACQUIRE`
  appear only as ``with`` items or as a ``return`` value, so the handle is
  released on every path.

Accepted findings live in :data:`ALLOWED`, each with its reason; there
are no inline suppression comments.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]

#: Modules user-facing layers may import from.  Exact match: a facade
#: package's submodules are not facades (``repro.circuit`` yes,
#: ``repro.circuit.parser`` no).
FACADES = frozenset({
    "repro", "repro.study", "repro.qec", "repro.circuit", "repro.dem",
    "repro.backends", "repro.decoders", "repro.engine", "repro.obs",
    "repro.layout", "repro.workloads", "repro.noise", "repro.rng",
})

#: ``repro.obs`` entry points that cost per call.
TELEMETRY = frozenset({"span", "event", "counter", "gauge", "histogram"})

#: Constructors that hand the caller a handle to release.
ACQUIRE = frozenset({
    "open", "fdopen", "SharedMemory", "Pool", "ThreadPool",
    "ProcessPoolExecutor", "ThreadPoolExecutor", "TemporaryFile",
    "NamedTemporaryFile", "socket",
})

REGISTER_CALLS = frozenset({"register_backend", "register_decoder"})

#: Accepted findings: (rule, path, text the message contains, reason).
ALLOWED = [
    ("API001", "benchmarks/bench_decode.py", "repro.decoders.",
     "the tail leg times the compiled decoder's blossom matcher in "
     "isolation against NetworkX on the submatrices past the DP ceiling; "
     "the matcher and the ceiling are the subject under test"),
    ("API001", "benchmarks/bench_decode.py", "repro.gf2",
     "the tail leg feeds decode_batch_packed its wire format; packing DEM "
     "samples needs bitops.pack_rows, which no facade exports"),
    ("API001", "benchmarks/bench_decoding.py", "repro.core",
     "ablation bench times the analysis stage (CompiledSampler "
     "construction) in isolation; the facade deliberately hides that "
     "stage split"),
    ("API001", "benchmarks/bench_obs_overhead.py", "repro.engine.cache",
     "measures telemetry overhead around the engine's sampler cache; "
     "clearing the process-global cache between rounds is the point"),
    ("API001", "benchmarks/bench_pipeline.py", "repro.gf2",
     "benches the packed GF(2) bitops hot path directly; the deep import "
     "is the subject under test"),
    ("API001", "examples/fault_analysis.py", "repro.core",
     "pedagogical walkthrough of the symbolic phase matrix internals; "
     "showing the internals is the example's purpose"),
    ("API001", "examples/fault_analysis.py", "repro.gf2",
     "same walkthrough, GF(2) elimination shown step by step"),
    ("REG001", "examples/fault_analysis.py", "CompiledSampler",
     "the walkthrough builds the sampler from a simulator it keeps and "
     "reads (symbol table, widths); the registry only takes a circuit"),
    ("API001", "examples/fig1_walkthrough.py", "repro.core",
     "reproduces the paper's Fig. 1 by stepping the simulator's internal "
     "state; the facade intentionally has no per-gate stepping API"),
]


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class Source:
    path: str  # relative to the root, with forward slashes
    module: str  # dotted module under src/, else the file stem
    tree: ast.Module
    imports: dict[str, str]  # local name -> dotted target


def _imports(tree: ast.Module) -> dict[str, str]:
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    names[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def load(path: Path, root: Path) -> Source:
    path = path.resolve()
    try:
        rel = path.relative_to(root)
    except ValueError:
        rel = path
    parts = rel.parts
    if "src" in parts:
        dotted = list(parts[parts.index("src") + 1:])
        dotted[-1] = path.stem
        if dotted[-1] == "__init__":
            dotted.pop()
        module = ".".join(dotted)
    else:
        module = path.stem
    tree = ast.parse(path.read_text(), filename=str(path))
    return Source(rel.as_posix(), module, tree, _imports(tree))


def python_files(paths) -> list[Path]:
    files: list[Path] = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def _call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- API001 -----------------------------------------------------------------


def check_facade(source: Source) -> Iterator[Finding]:
    parts = source.path.split("/")
    if "examples" in parts:
        scope = "examples"
    elif "benchmarks" in parts:
        scope = "benchmarks"
    elif source.module == "repro.cli":
        scope = "the CLI"
    else:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules = [node.module]
        else:
            continue
        for module in modules:
            if module.split(".")[0] == "repro" and module not in FACADES:
                yield Finding(
                    source.path, node.lineno, "API001",
                    f"{scope} imports internal module {module!r}",
                )


# -- EXC001 -----------------------------------------------------------------


def check_silent_except(source: Source) -> Iterator[Finding]:
    if source.module.split(".")[:2] != ["repro", "engine"]:
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        silent = all(
            isinstance(stmt, ast.Pass)
            or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            for stmt in node.body
        )
        if silent:
            caught = ast.unparse(node.type) if node.type is not None else "all"
            yield Finding(
                source.path, node.lineno, "EXC001",
                f"handler for {caught} swallows the error silently",
            )
        elif node.type is None and not any(
            isinstance(sub, ast.Raise) for stmt in node.body for sub in ast.walk(stmt)
        ):
            yield Finding(
                source.path, node.lineno, "EXC001",
                "bare except: catches KeyboardInterrupt/SystemExit and "
                "does not re-raise",
            )


# -- OBS001 -----------------------------------------------------------------


def _telemetry_kind(source: Source, call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        target = source.imports.get(func.value.id, "")
        if target.startswith("repro.obs") and func.attr in TELEMETRY:
            return func.attr
    elif isinstance(func, ast.Name):
        target = source.imports.get(func.id, "")
        module, _, name = target.rpartition(".")
        if module.startswith("repro.obs") and name in TELEMETRY:
            return name
    return None


def check_shot_loops(source: Source) -> Iterator[Finding]:
    if source.module.startswith("repro.obs"):
        return
    for loop in ast.walk(source.tree):
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            header = loop.iter
        elif isinstance(loop, ast.While):
            header = loop.test
        else:
            continue
        if "shot" not in ast.unparse(header).lower():
            continue
        for sub in ast.walk(loop):
            if isinstance(sub, ast.Call):
                kind = _telemetry_kind(source, sub)
                if kind is not None:
                    yield Finding(
                        source.path, sub.lineno, "OBS001",
                        f"obs.{kind}() fires inside a per-shot loop",
                    )


# -- REG001 -----------------------------------------------------------------


def registered_classes(context: list[Source]) -> dict[str, set[str]]:
    """Class name -> modules allowed to instantiate it.

    A registered class is one a ``register_*`` factory (a lambda or a
    function of the registering module) instantiates, directly or inside
    a function it calls by name.  Allowed: the registering module and the
    module defining the class.
    """
    classes: dict[str, set[str]] = {}
    functions: dict[str, list[ast.AST]] = {}
    for source in context:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                classes.setdefault(node.name, set()).add(source.module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append(node)

    def instantiated(body: ast.AST) -> Iterator[str]:
        for sub in ast.walk(body):
            if isinstance(sub, ast.Call) and _call_name(sub.func) in classes:
                yield _call_name(sub.func)

    allowed: dict[str, set[str]] = {}
    for source in context:
        local = {
            node.name: node
            for node in source.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and _call_name(node.func) in REGISTER_CALLS
            ):
                continue
            factory = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "factory"), None
            )
            if isinstance(factory, ast.Lambda):
                body = factory.body
            elif isinstance(factory, ast.Name) and factory.id in local:
                body = local[factory.id]
            else:
                continue
            names = set(instantiated(body))
            for sub in ast.walk(body):
                if isinstance(sub, ast.Call):
                    for callee in functions.get(_call_name(sub.func), ()):
                        names.update(instantiated(callee))
            for name in names:
                allowed.setdefault(name, set()).add(source.module)
                allowed[name].update(classes[name])
    return allowed


def check_registry(source: Source, allowed: dict[str, set[str]]) -> Iterator[Finding]:
    if "tests" in source.path.split("/"):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            modules = allowed.get(node.func.id)
            if modules is not None and source.module not in modules:
                yield Finding(
                    source.path, node.lineno, "REG001",
                    "direct instantiation of registered implementation "
                    f"{node.func.id}(); resolve it by name through the registry",
                )


# -- RES001 -----------------------------------------------------------------


def check_resources(source: Source) -> Iterator[Finding]:
    owned: set[int] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            owned.update(id(item.context_expr) for item in node.items)
        elif isinstance(node, ast.Return) and node.value is not None:
            owned.add(id(node.value))
    for node in ast.walk(source.tree):
        if (
            isinstance(node, ast.Call)
            and _call_name(node.func) in ACQUIRE
            and id(node) not in owned
        ):
            yield Finding(
                source.path, node.lineno, "RES001",
                f"{_call_name(node.func)}(...) is neither a with item nor "
                "returned; a path that skips its release leaks it",
            )


# -- entry point ------------------------------------------------------------


def check(paths, root: Path = ROOT, context=None) -> tuple[list[Finding], list[tuple]]:
    """Findings not in :data:`ALLOWED`, and the stale allowlist entries.

    ``context`` names the trees whose registrations define REG001's
    registered classes (default: the ``src/repro`` package under
    ``root``)."""
    root = Path(root).resolve()
    sources = [load(path, root) for path in python_files(paths)]
    if context is None:
        context = [root / "src" / "repro"]
    allowed = registered_classes([load(p, root) for p in python_files(context)])
    findings: list[Finding] = []
    for source in sources:
        findings.extend(check_facade(source))
        findings.extend(check_silent_except(source))
        findings.extend(check_shot_loops(source))
        findings.extend(check_registry(source, allowed))
        findings.extend(check_resources(source))
    scanned = {source.path for source in sources}
    used: set[tuple] = set()
    kept: list[Finding] = []
    for finding in findings:
        entry = next(
            (
                entry for entry in ALLOWED
                if entry[:2] == (finding.rule, finding.path)
                and entry[2] in finding.message
            ),
            None,
        )
        if entry is None:
            kept.append(finding)
        else:
            used.add(entry)
    stale = [e for e in ALLOWED if e[1] in scanned and e not in used]
    return sorted(kept, key=lambda f: (f.path, f.line, f.rule)), stale


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/check_invariants.py PATH...")
        return 2
    try:
        findings, stale = check(argv)
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}: syntax error: {exc.msg}")
        return 1
    for finding in findings:
        print(finding)
    for rule, path, contains, _ in stale:
        print(f"{path}: stale ALLOWED entry: {rule} {contains!r} matches nothing")
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
