"""Per-function control-flow graphs over the raw AST.

The dataflow rules (:mod:`repro.analysis.dataflow`) need to follow a
value through branches, loops, ``try``/``except``/``finally``, ``with``
blocks and early returns — precision a flat ``ast.walk`` cannot give.
:func:`build_cfg` lowers one function body (or a module's top-level
statements) into basic blocks of *elements*:

* simple statements (``Assign``, ``Return``, ``Expr``, ...) appear
  whole;
* compound statements contribute only their *header* — an ``if``/
  ``while`` test expression, the ``ast.For`` node (its target binds
  from its iterable), the ``ast.With`` node (its items bind), the
  ``ast.ExceptHandler`` (its ``as`` name binds).  A transfer function
  must never walk into a compound node's body: those statements live in
  their own blocks.

Lowering guarantees (the properties ``tests/analysis/test_cfg.py``
asserts over every function in the real tree):

* every block is reachable from ``entry`` — statically dead code
  (after a ``return``, say) is dropped during lowering, not emitted as
  orphan blocks;
* every block reaches ``exit`` — loop headers always keep their exit
  edge (``while True`` without ``break`` included: the analyses here
  are conservative may/must approximations, not termination proofs).

``finally`` semantics: a jump (``return``/``break``/``continue``/
``raise``) that crosses a ``try``/``finally`` *inlines a fresh copy* of
the pending finally bodies on its path, innermost first, so a
``return`` inside a ``finally`` naturally overrides the jump — the
inlined copy's own ``return`` terminates the path.  Normal completion
routes through one shared finally subgraph.  Exceptions are modeled
from explicit ``raise`` statements and conservatively from *any* point
inside a ``try`` body (edge to every same-level handler).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["Block", "CFG", "build_cfg"]


class Block:
    """One basic block: an ordered run of elements plus edges."""

    __slots__ = ("id", "label", "stmts", "succs", "preds")

    def __init__(self, block_id: int, label: str = ""):
        self.id = block_id
        self.label = label
        self.stmts: list[ast.AST] = []
        self.succs: set[int] = set()
        self.preds: set[int] = set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block({self.id}, {self.label!r}, "
            f"stmts={len(self.stmts)}, succs={sorted(self.succs)})"
        )


class CFG:
    """The control-flow graph of one function definition (or module)."""

    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
        blocks: dict[int, Block],
        entry: int,
        exit: int,
        exc_edges: set[tuple[int, int]] | None = None,
    ):
        self.func = func
        self.blocks = blocks
        self.entry = entry
        self.exit = exit
        #: Edges modeling "any point in this block may raise" (try body
        #: -> handler / -> finally).  The solver flows the join over
        #: every point in the source block along these, not just its
        #: out-state — an exception may fire before the block finished.
        self.exc_edges: set[tuple[int, int]] = exc_edges or set()

    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def reachable_from_entry(self) -> set[int]:
        seen = {self.entry}
        queue = [self.entry]
        while queue:
            for succ in self.blocks[queue.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    queue.append(succ)
        return seen

    def reaches_exit(self) -> set[int]:
        seen = {self.exit}
        queue = [self.exit]
        while queue:
            for pred in self.blocks[queue.pop()].preds:
                if pred not in seen:
                    seen.add(pred)
                    queue.append(pred)
        return seen

    def rpo(self) -> list[int]:
        """Block ids in reverse postorder from entry (loop headers
        before their bodies — the order the worklist solver seeds)."""
        order: list[int] = []
        seen: set[int] = set()
        stack: list[tuple[int, Iterator[int]]] = [
            (self.entry, iter(sorted(self.blocks[self.entry].succs)))
        ]
        seen.add(self.entry)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(
                        (succ, iter(sorted(self.blocks[succ].succs)))
                    )
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order


@dataclass
class _Frame:
    """One enclosing construct a jump may have to unwind through."""

    kind: str  # "loop" | "try"
    continue_target: int = -1
    break_target: int = -1
    handlers: tuple[int, ...] = ()
    finalbody: list = field(default_factory=list)


class _Builder:
    def __init__(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module
    ):
        self.func = func
        self.blocks: dict[int, Block] = {}
        self._next = 0
        self.entry = self._new("entry").id
        self.exit = self._new("exit").id
        self.frames: list[_Frame] = []
        self.exc_edges: set[tuple[int, int]] = set()

    # -- plumbing --------------------------------------------------------

    def _new(self, label: str = "") -> Block:
        block = Block(self._next, label)
        self.blocks[self._next] = block
        self._next += 1
        return block

    def _edge(self, src: int | None, dst: int) -> None:
        if src is None:
            return
        self.blocks[src].succs.add(dst)
        self.blocks[dst].preds.add(src)

    # -- lowering --------------------------------------------------------

    def build(self) -> CFG:
        end = self._lower(self.func.body, self.entry)
        self._edge(end, self.exit)
        self._prune()
        return CFG(
            self.func, self.blocks, self.entry, self.exit, self.exc_edges
        )

    def _lower(self, body: list, current: int | None) -> int | None:
        """Lower ``body`` starting in block ``current``.  Returns the
        block that falls through, or None when every path jumped away
        (remaining statements are dead code and are dropped)."""
        for stmt in body:
            if current is None:
                break
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, node: ast.stmt, current: int) -> int | None:
        if isinstance(node, ast.If):
            return self._if(node, current)
        if isinstance(node, (ast.While,)):
            return self._while(node, current)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return self._for(node, current)
        if isinstance(node, ast.Try):
            return self._try(node, current)
        if isinstance(node, (ast.With, ast.AsyncWith)):
            return self._with(node, current)
        if isinstance(node, ast.Return):
            return self._return(node, current)
        if isinstance(node, ast.Raise):
            return self._raise(node, current)
        if isinstance(node, ast.Break):
            return self._break_continue(node, current, "break_target")
        if isinstance(node, ast.Continue):
            return self._break_continue(node, current, "continue_target")
        if isinstance(node, ast.Match):
            return self._match(node, current)
        # Simple statement (incl. nested def/class, which bind a name).
        self.blocks[current].stmts.append(node)
        return current

    def _if(self, node: ast.If, current: int) -> int | None:
        self.blocks[current].stmts.append(node.test)
        then_entry = self._new("then").id
        self._edge(current, then_entry)
        then_end = self._lower(node.body, then_entry)
        if node.orelse:
            else_entry = self._new("else").id
            self._edge(current, else_entry)
            else_end = self._lower(node.orelse, else_entry)
        else:
            else_end = current
        ends = [end for end in (then_end, else_end) if end is not None]
        if not ends:
            return None
        after = self._new("after-if").id
        for end in ends:
            self._edge(end, after)
        return after

    def _loop(
        self, node, current: int, header_element: ast.AST
    ) -> int | None:
        header = self._new("loop").id
        self._edge(current, header)
        self.blocks[header].stmts.append(header_element)
        after = self._new("after-loop").id
        self.frames.append(
            _Frame(kind="loop", continue_target=header, break_target=after)
        )
        body_entry = self._new("loop-body").id
        self._edge(header, body_entry)
        body_end = self._lower(node.body, body_entry)
        self.frames.pop()
        self._edge(body_end, header)
        if node.orelse:
            else_entry = self._new("loop-else").id
            self._edge(header, else_entry)
            else_end = self._lower(node.orelse, else_entry)
            self._edge(else_end, after)
        else:
            # Kept even for `while True`: exit reachability over
            # termination precision (see module docstring).
            self._edge(header, after)
        return after

    def _while(self, node: ast.While, current: int) -> int | None:
        return self._loop(node, current, node.test)

    def _for(self, node, current: int) -> int | None:
        # The ast.For node itself is the header element: its target
        # binds from its iterable on every iteration.
        return self._loop(node, current, node)

    def _with(self, node, current: int) -> int | None:
        self.blocks[current].stmts.append(node)
        return self._lower(node.body, current)

    def _try(self, node: ast.Try, current: int) -> int | None:
        body_entry = self._new("try").id
        self._edge(current, body_entry)
        handler_blocks = tuple(
            self._new(f"except-{i}").id
            for i in range(len(node.handlers))
        )
        if node.finalbody:
            self.frames.append(
                _Frame(kind="try", finalbody=list(node.finalbody))
            )
        finally_frame = self.frames[-1] if node.finalbody else None
        self.frames.append(_Frame(kind="try", handlers=handler_blocks))
        watermark = self._next
        body_end = self._lower(node.body, body_entry)
        body_blocks = [body_entry] + list(range(watermark, self._next))
        # Any point in the body may raise: edge to every same-level
        # handler (state at a handler entry joins the whole body).
        for block_id in body_blocks:
            if block_id in self.blocks:
                for handler in handler_blocks:
                    self._edge(block_id, handler)
                    self.exc_edges.add((block_id, handler))
        self.frames.pop()  # handler frame: handlers don't catch their own
        else_end = body_end
        if node.orelse and body_end is not None:
            else_end = self._lower(node.orelse, body_end)
        handler_ends = []
        for handler_block, handler in zip(handler_blocks, node.handlers):
            self.blocks[handler_block].stmts.append(handler)
            handler_ends.append(self._lower(handler.body, handler_block))
        if finally_frame is not None:
            self.frames.pop()
        ends = [
            end for end in (else_end, *handler_ends) if end is not None
        ]
        if node.finalbody:
            exceptional_ends: list[int] = []
            if not node.handlers:
                # try/finally with no handlers: an in-body exception
                # still runs the finally on its way out.
                exceptional_ends = [
                    block_id
                    for block_id in body_blocks
                    if block_id in self.blocks and block_id != else_end
                ]
            if not ends and not exceptional_ends:
                return None
            fin_entry = self._new("finally").id
            for end in ends:
                self._edge(end, fin_entry)
            for end in exceptional_ends:
                self._edge(end, fin_entry)
                self.exc_edges.add((end, fin_entry))
            fin_end = self._lower(node.finalbody, fin_entry)
            ends = [fin_end] if fin_end is not None else []
        if not ends:
            return None
        after = self._new("after-try").id
        for end in ends:
            self._edge(end, after)
        return after

    def _match(self, node: ast.Match, current: int) -> int | None:
        self.blocks[current].stmts.append(node.subject)
        after = self._new("after-match").id
        self._edge(current, after)  # no case may match
        for case in node.cases:
            case_entry = self._new("case").id
            self._edge(current, case_entry)
            self.blocks[case_entry].stmts.append(case.pattern)
            self._edge(self._lower(case.body, case_entry), after)
        return after

    # -- jumps -----------------------------------------------------------

    def _unwind(
        self, current: int | None, stop: _Frame | None
    ) -> int | None:
        """Inline the finally bodies pending between the jump site and
        ``stop`` (exclusive; None = unwind everything), innermost
        first.  Each body is lowered with the frame stack truncated to
        its own enclosing context, so a ``return`` *inside* a finally
        resolves against the right frames and overrides the jump."""
        for depth in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[depth]
            if frame is stop:
                break
            if frame.finalbody and current is not None:
                saved = self.frames
                self.frames = self.frames[:depth]
                try:
                    current = self._lower(frame.finalbody, current)
                finally:
                    self.frames = saved
            if current is None:
                return None
        return current

    def _return(self, node: ast.Return, current: int) -> None:
        self.blocks[current].stmts.append(node)
        self._edge(self._unwind(current, stop=None), self.exit)
        return None

    def _raise(self, node: ast.Raise, current: int) -> None:
        self.blocks[current].stmts.append(node)
        catcher = None
        for frame in reversed(self.frames):
            if frame.handlers:
                catcher = frame
                break
        if catcher is not None:
            caught = self._unwind(current, stop=catcher)
            for handler in catcher.handlers:
                self._edge(caught, handler)
        # The handler may not match (or there is none): the exception
        # unwinds every finally and leaves the function.
        self._edge(self._unwind(current, stop=None), self.exit)
        return None

    def _break_continue(
        self, node, current: int, target_attr: str
    ) -> None:
        self.blocks[current].stmts.append(node)
        loop = None
        for frame in reversed(self.frames):
            if frame.kind == "loop":
                loop = frame
                break
        if loop is None:
            # break/continue outside a loop is a SyntaxError upstream;
            # degrade to an exit edge rather than crashing.
            self._edge(self._unwind(current, stop=None), self.exit)
            return None
        self._edge(
            self._unwind(current, stop=loop), getattr(loop, target_attr)
        )
        return None

    # -- cleanup ---------------------------------------------------------

    def _prune(self) -> None:
        """Drop blocks unreachable from entry (eagerly-created joins
        whose every feeder jumped away) and give sink blocks an exit
        edge so every surviving block reaches exit."""
        reachable = {self.entry}
        queue = [self.entry]
        while queue:
            for succ in self.blocks[queue.pop()].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    queue.append(succ)
        reachable.add(self.exit)
        for block_id in list(self.blocks):
            if block_id not in reachable:
                del self.blocks[block_id]
        for block in self.blocks.values():
            block.succs &= reachable
            block.preds &= reachable
            if not block.succs and block.id != self.exit:
                self._edge(block.id, self.exit)
        self.exc_edges = {
            (src, dst)
            for src, dst in self.exc_edges
            if src in reachable and dst in reachable
        }


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef | ast.Module,
) -> CFG:
    """Lower one function definition (or a module's top level) into its
    control-flow graph."""
    return _Builder(func).build()
