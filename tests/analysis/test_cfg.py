"""CFG lowering edge cases + structural properties over the real tree.

The snippet tests pin the tricky lowering semantics (finally inlining,
loop else clauses, exceptional edges); the property test then asserts
the two invariants the dataflow solver relies on — every block
reachable from entry, every block reaching exit — over every function
in the actual ``src/repro`` package and in the ``examples`` and
``benchmarks`` trees that CI also analyzes (against the baseline).
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cfg import build_cfg

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
#: Trees analyzed in CI besides ``src/repro``; their findings are
#: allowlisted in ``analysis-baseline.json``, but the dataflow solver
#: still builds a CFG for every function in them.
EXTRA_TREES = (ROOT / "examples", ROOT / "benchmarks")


def cfg_of(source):
    module = ast.parse(textwrap.dedent(source))
    func = module.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func, build_cfg(func)


def blocks_containing(cfg, predicate):
    return [
        block
        for block in cfg.blocks.values()
        if any(predicate(stmt) for stmt in block.stmts)
    ]


def is_return_of(stmt, value):
    return (
        isinstance(stmt, ast.Return)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value == value
    )


class TestFinallySemantics:
    def test_return_in_finally_overrides_try_return(self):
        _, cfg = cfg_of(
            """
            def f():
                try:
                    return 1
                finally:
                    return 2
            """
        )
        # Every path out of the function ends in the finally's own
        # return: the inlined finally copy overrides the try's jump.
        exit_preds = cfg.block(cfg.exit).preds
        assert exit_preds
        for pred in exit_preds:
            last = cfg.block(pred).stmts[-1]
            assert is_return_of(last, 2)

    def test_jump_through_finally_inlines_its_body(self):
        _, cfg = cfg_of(
            """
            def f(flag):
                try:
                    if flag:
                        return 1
                    work()
                finally:
                    cleanup()
            """
        )
        # The cleanup() call must run on the early-return path too, so
        # it appears in (at least) two blocks: the inlined jump copy
        # and the shared normal-completion subgraph.
        def is_cleanup(stmt):
            return (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "cleanup"
            )

        assert len(blocks_containing(cfg, is_cleanup)) >= 2

    def test_exceptional_path_into_finally_is_an_exc_edge(self):
        _, cfg = cfg_of(
            """
            def f():
                try:
                    risky()
                    return 1
                finally:
                    cleanup()
            """
        )
        # The body's only normal exit is the return (which inlines its
        # own finally copy), so the shared finally subgraph is reached
        # exclusively by the implicit in-body raise — and that edge
        # must be flagged exceptional so the solver joins over every
        # point of the body, not just its out-state.
        assert cfg.exc_edges
        for src, dst in cfg.exc_edges:
            assert dst in cfg.block(src).succs
            assert any(
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id == "cleanup"
                for stmt in cfg.block(dst).stmts
            )


class TestLoopElse:
    def test_while_else_runs_on_normal_exit_only(self):
        func, cfg = cfg_of(
            """
            def f(xs):
                while xs:
                    xs = step(xs)
                else:
                    done()
                return xs
            """
        )
        while_node = func.body[0]
        (header,) = blocks_containing(cfg, lambda s: s is while_node.test)
        (else_block,) = blocks_containing(
            cfg,
            lambda s: isinstance(s, ast.Expr)
            and isinstance(s.value, ast.Call)
            and isinstance(s.value.func, ast.Name)
            and s.value.func.id == "done",
        )
        (after,) = blocks_containing(cfg, lambda s: isinstance(s, ast.Return))
        # Normal loop exit goes through the else clause, never straight
        # to the statement after the loop.
        assert else_block.id in header.succs
        assert after.id not in header.succs
        assert after.id in else_block.succs

    def test_break_skips_the_else_clause(self):
        _, cfg = cfg_of(
            """
            def f(xs):
                while xs:
                    if found(xs):
                        break
                    xs = step(xs)
                else:
                    done()
                return xs
            """
        )
        (break_block,) = blocks_containing(
            cfg, lambda s: isinstance(s, ast.Break)
        )
        (after,) = blocks_containing(cfg, lambda s: isinstance(s, ast.Return))
        assert after.id in break_block.succs


class TestWith:
    def test_nested_with_stays_in_one_block(self):
        _, cfg = cfg_of(
            """
            def f(p, q):
                with open(p) as a:
                    with open(q) as b:
                        use(a, b)
                return 1
            """
        )
        # with introduces no control flow: both headers, the body call
        # and the return all lower into a single straight-line block.
        (block,) = [b for b in cfg.blocks.values() if b.stmts]
        kinds = [type(stmt).__name__ for stmt in block.stmts]
        assert kinds == ["With", "With", "Expr", "Return"]


class TestExceptHandlers:
    def test_bare_except_reraise_exits_without_reaching_tail(self):
        _, cfg = cfg_of(
            """
            def f():
                try:
                    work()
                except:
                    log()
                    raise
                return 1
            """
        )
        (handler_block,) = blocks_containing(
            cfg, lambda s: isinstance(s, ast.ExceptHandler)
        )
        (tail,) = blocks_containing(cfg, lambda s: isinstance(s, ast.Return))
        # The re-raise leaves the function directly: the handler block
        # edges to exit and never falls through to `return 1`.
        assert cfg.exit in handler_block.succs
        assert tail.id not in handler_block.succs

    def test_try_body_has_exceptional_edge_to_handler(self):
        _, cfg = cfg_of(
            """
            def f():
                try:
                    a = work()
                except ValueError:
                    a = None
                return a
            """
        )
        (handler_block,) = blocks_containing(
            cfg, lambda s: isinstance(s, ast.ExceptHandler)
        )
        assert any(dst == handler_block.id for _, dst in cfg.exc_edges)


def _functions_under(root, relative_to):
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # PACK002 also lowers each module's top level.
        yield pytest.param(
            tree, id=f"{path.relative_to(relative_to)}::<module>"
        )
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield pytest.param(
                    node, id=f"{path.relative_to(relative_to)}::{node.name}"
                )


def _real_functions():
    yield from _functions_under(SRC, SRC)
    for tree in EXTRA_TREES:
        yield from _functions_under(tree, ROOT)


@pytest.mark.parametrize("func", _real_functions())
def test_every_real_function_cfg_is_well_formed(func):
    """Property test over the actual tree (every function and module
    top level): every block is reachable from entry AND reaches exit,
    edges are symmetric, and exceptional edges are real edges between
    live blocks."""
    cfg = build_cfg(func)
    ids = set(cfg.blocks)
    assert cfg.entry in ids and cfg.exit in ids
    assert cfg.reachable_from_entry() == ids
    assert cfg.reaches_exit() == ids
    assert set(cfg.rpo()) == ids
    for block in cfg.blocks.values():
        for succ in block.succs:
            assert block.id in cfg.block(succ).preds
        for pred in block.preds:
            assert block.id in cfg.block(pred).succs
    for src, dst in cfg.exc_edges:
        assert src in ids and dst in ids
        assert dst in cfg.block(src).succs
