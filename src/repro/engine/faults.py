"""Deterministic fault injection for the supervised chunk executor.

A :class:`FaultPlan` is a small declarative script of process-level
failures — *kill this worker right before chunk 2*, *stall chunk 5 for
half a second*, *raise inside chunk 3's decode* — that the executor's injection points consult
on the hot path.  It exists so the supervision machinery
(:mod:`repro.engine.supervise`) can be chaos-tested honestly: the chaos
suite and the CI chaos leg run real sweeps with faults firing and
assert the final counts are **bitwise identical** to an uninjected run.

Determinism: a clause fires on a specific ``chunk_index`` and, by
default, only on attempt 0 (``xN`` widens that to the first N attempts,
``x*`` to every attempt — the route to testing quarantine).  Because
the attempt number travels in the chunk spec and the chunk RNG is
derived purely from ``(base_seed, task_entropy, chunk_index)``, a
retried chunk replays the same shots, so an injected crash can delay a
result but never skew it.

Faults only ever fire inside pool workers (:func:`in_worker` is checked
at every injection point): a ``kill`` clause must never take down the
parent, and keeping serial runs fault-free gives every chaos test its
uninjected reference for free.

Activation: pass a plan (or its string syntax) as
``ExecutionOptions.fault_plan``, or set the ``REPRO_FAULTS``
environment variable — e.g. ``REPRO_FAULTS="kill@2,delay@5:0.5"`` —
which applies to any run that does not carry an explicit plan.  With
neither, the plan is the shared :data:`NOOP` and every injection point
is a single ``is``-check.

Syntax (comma-separated clauses)::

    kill@K            SIGKILL the worker right before it runs chunk K
    delay@K:SECONDS   sleep SECONDS before running chunk K
    raise@K           raise FaultInjected inside chunk K's decode stage

    any clause may append xN (fire on attempts < N) or x* (always).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass

__all__ = [
    "FaultClause",
    "FaultInjected",
    "FaultPlan",
    "NOOP",
    "active_plan",
    "install",
    "plan_from_env",
    "resolve_plan",
]

#: Environment variable carrying a fault-plan string for runs that do
#: not pass an explicit plan.
ENV_VAR = "REPRO_FAULTS"

ACTIONS = ("kill", "delay", "raise")


class FaultInjected(RuntimeError):
    """The exception a ``raise`` clause throws inside a worker chunk."""


@dataclass(frozen=True)
class FaultClause:
    """One injected failure: ``action`` on ``chunk_index``.

    ``attempts`` bounds which retry attempts fire: the clause triggers
    while ``attempt < attempts`` (``None`` means every attempt — the
    way to manufacture a poison chunk).  ``arg`` is the action's
    parameter (delay seconds); actions without one keep it at 0.
    """

    action: str
    chunk_index: int
    arg: float = 0.0
    attempts: int | None = 1

    def fires(self, action: str, chunk_index: int, attempt: int) -> bool:
        return (
            self.action == action
            and self.chunk_index == chunk_index
            and (self.attempts is None or attempt < self.attempts)
        )

    def __str__(self) -> str:
        text = f"{self.action}@{self.chunk_index}"
        if self.arg:
            text += f":{self.arg:g}"
        if self.attempts is None:
            text += "x*"
        elif self.attempts != 1:
            text += f"x{self.attempts}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A set of fault clauses consulted by the executor's injection
    points.  Empty (:data:`NOOP`) by default — the no-fault fast path
    is one identity check per injection point."""

    clauses: tuple[FaultClause, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``action@chunk[:arg][xN]`` comma syntax.

        An empty/whitespace string is the noop plan, so
        ``REPRO_FAULTS=""`` explicitly disables injection.
        """
        clauses = []
        for raw in text.split(","):
            part = raw.strip()
            if not part:
                continue
            action, sep, rest = part.partition("@")
            if action not in ACTIONS or not sep:
                raise ValueError(
                    f"bad fault clause {part!r}: expected "
                    f"action@chunk[:arg][xN] with action in {ACTIONS}"
                )
            attempts: int | None = 1
            if "x" in rest:
                rest, _, reps = rest.rpartition("x")
                attempts = None if reps == "*" else int(reps)
            chunk_text, _, arg_text = rest.partition(":")
            try:
                chunk_index = int(chunk_text)
                arg = float(arg_text) if arg_text else 0.0
            except ValueError:
                raise ValueError(
                    f"bad fault clause {part!r}: chunk must be an int, "
                    f"arg a float"
                ) from None
            clauses.append(FaultClause(action, chunk_index, arg, attempts))
        return cls(tuple(clauses))

    def __str__(self) -> str:
        return ",".join(str(clause) for clause in self.clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def match(
        self, action: str, chunk_index: int, attempt: int
    ) -> FaultClause | None:
        for clause in self.clauses:
            if clause.fires(action, chunk_index, attempt):
                return clause
        return None


#: The shared empty plan; ``plan is NOOP`` short-circuits every hook.
NOOP = FaultPlan()


def plan_from_env() -> FaultPlan:
    """The plan :data:`ENV_VAR` describes (noop when unset/empty)."""
    text = os.environ.get(ENV_VAR, "")
    return FaultPlan.parse(text) if text.strip() else NOOP


def resolve_plan(plan: "FaultPlan | str | None") -> FaultPlan:
    """Normalize an options-level plan: an explicit plan (or syntax
    string) wins; ``None`` falls back to the environment.  Clauseless
    plans normalize to :data:`NOOP` so the hooks stay disarmed — an
    explicit empty plan is how a test opts out of ``REPRO_FAULTS``."""
    if plan is None:
        return plan_from_env()
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    return plan if plan.clauses else NOOP


# -- the installed plan ------------------------------------------------------

_ACTIVE: FaultPlan = NOOP


def install(plan: "FaultPlan | str | None") -> None:
    """Install the process's active plan (workers call this from their
    initializer with the plan the parent resolved)."""
    global _ACTIVE
    _ACTIVE = resolve_plan(plan)


def active_plan() -> FaultPlan:
    return _ACTIVE


# -- injection points --------------------------------------------------------
#
# Each hook is called from exactly one place in the executor; all of
# them no-op unless running inside a pool worker with a non-empty plan.


def _armed(in_worker: bool) -> bool:
    return in_worker and _ACTIVE is not NOOP


def on_chunk_start(chunk_index: int, attempt: int, in_worker: bool) -> None:
    """``kill`` / ``delay`` hooks, fired before a chunk executes."""
    if not _armed(in_worker):
        return
    if _ACTIVE.match("kill", chunk_index, attempt) is not None:
        # SIGKILL, not sys.exit: the point is an unflushable, no-cleanup
        # death — exactly what a segfault or OOM kill looks like.
        os.kill(os.getpid(), signal.SIGKILL)
    clause = _ACTIVE.match("delay", chunk_index, attempt)
    if clause is not None:
        time.sleep(clause.arg)


def on_decode(chunk_index: int, attempt: int, in_worker: bool) -> None:
    """``raise`` hook, fired at the top of a chunk's decode stage."""
    if not _armed(in_worker):
        return
    if _ACTIVE.match("raise", chunk_index, attempt) is not None:
        raise FaultInjected(
            f"injected decode failure (chunk {chunk_index}, "
            f"attempt {attempt})"
        )

