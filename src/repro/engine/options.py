"""Execution policy for collection runs, as one typed object.

:class:`ExecutionOptions` gathers every knob that describes *how* a
collection runs — worker count, chunk size, base seed, early-stop
policy, result store, progress hook — as distinct from the
:class:`~repro.engine.tasks.Task` list that describes *what* is being
measured.  One options object can drive many sweeps; none of its fields
participate in task identity (``strong_id``), so stored rows always
remain addressable.  ``workers``, ``store`` and ``progress`` are pure
scheduling/reporting choices and may vary freely between runs of one
store; ``base_seed`` is seed-checked on resume (a different explicit
seed re-collects, by design), and ``chunk_shots`` is part of the
statistical protocol (it sets which shots are drawn), so keep both
fixed across runs that share a store.

Every entry point that runs a collection — ``engine.collect``,
``ChunkRunner``, ``Sweep.collect``, ``CompiledCircuit.collect`` and
``logical_error_rate`` — takes ``options=`` plus keyword overrides and
resolves them once through :meth:`ExecutionOptions.resolve`;
``__post_init__`` is the only place the knobs are validated.

``base_seed=None`` requests fresh OS entropy: the run draws one random
seed word, records it in every row it writes (so the run itself remains
auditable), and accepts *any* completed row on resume — an unseeded run
asks for "a" sample, not a specific one.  Pass an int for reproducible,
seed-checked resumable runs.
"""

from __future__ import annotations

import numbers
import os  # noqa: F401 - referenced in field annotations
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.collector import TaskStats  # noqa: F401


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run a collection (the engine's execution policy).

    * ``workers`` — process-pool size (``1`` = in-process serial).
      Aggregate counts are identical for every value, by construction.
    * ``chunk_shots`` — shots per derived-seed chunk.  Part of the
      statistical protocol (it sets the RNG chunking, the per-chunk
      accounting and the early-stop granularity), so keep it fixed
      across runs that share a store.  The decode batch is separate:
      up to 4096 shots of consecutive chunks of one task per decode
      call (a larger chunk is a batch of one), with every count still
      the chunk's own.
    * ``base_seed`` — int for reproducible runs, ``None`` (the
      default, matching every other seed entry point in the package)
      for fresh OS entropy — see the module docstring for the resume
      semantics.
    * ``max_errors`` — default early-stop policy applied to every task
      whose own ``max_errors`` is ``None``; a task-level value always
      wins.
    * ``store`` — JSONL result-store path (or ``ResultStore``); enables
      resume.
    * ``progress`` — callback invoked with each finished ``TaskStats``.
    * ``profile`` — turn on :mod:`repro.obs` metrics for the duration
      of the run (flags restored afterwards; the registry is left
      intact for the caller to read).  Purely observational: no effect
      on the collected counts.
    * ``max_chunk_retries`` — how many times a failed chunk lease
      (worker death, expired deadline, in-chunk exception) is retried
      before the chunk is quarantined as a structured failure row.
      A failed chunk goes straight back on the queue, with no delay.
      Retries replay identical shots (the chunk RNG derives from the
      spec alone), so recovery never changes counts.
    * ``chunk_timeout_seconds`` — per-chunk lease deadline for pooled
      runs; an overdue lease kills its worker and requeues the chunk.
      Workers compile a circuit lazily, on their first chunk of it, so
      the deadline also covers that first compile.  ``None`` (the
      default) means no deadline.
    * ``fault_plan`` — a :class:`repro.engine.faults.FaultPlan` (or its
      string syntax) injecting deterministic worker crashes for chaos
      testing; ``None`` defers to the ``REPRO_FAULTS`` environment
      variable, which is a noop when unset.  Faults fire only inside
      pool workers, so the counts still come out identical — that is
      the point.
    """

    workers: int = 1
    chunk_shots: int = 2_000
    base_seed: int | None = None
    max_errors: int | None = None
    store: "str | os.PathLike | Any | None" = None
    progress: "Callable[[TaskStats], None] | None" = field(
        default=None, compare=False
    )
    profile: bool = False
    max_chunk_retries: int = 2
    chunk_timeout_seconds: float | None = None
    fault_plan: Any = None

    def __post_init__(self) -> None:
        seed = self.base_seed
        if seed is not None:
            if type(seed) is not int:
                raise TypeError(
                    f"base_seed must be None or an int, got {seed!r}"
                )
            if seed < 0:
                raise ValueError(f"base_seed must be >= 0, got {seed}")
        for name in ("workers", "chunk_shots", "max_chunk_retries", "max_errors"):
            value = getattr(self, name)
            bad = isinstance(value, bool) or not isinstance(value, int)
            if bad and not (name == "max_errors" and value is None):
                raise TypeError(f"{name} must be an int, got {value!r}")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.chunk_shots < 1:
            raise ValueError("chunk_shots must be positive")
        if self.max_errors is not None and self.max_errors < 1:
            raise ValueError("max_errors must be positive when set")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        timeout = self.chunk_timeout_seconds
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, numbers.Real)
        ):
            raise TypeError(
                f"chunk_timeout_seconds must be a real number, got {timeout!r}"
            )
        if timeout is not None and not timeout > 0:
            raise ValueError("chunk_timeout_seconds must be positive")

    def replace(self, **changes: Any) -> "ExecutionOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    @classmethod
    def resolve(
        cls, options: "ExecutionOptions | None", **overrides: Any
    ) -> "ExecutionOptions":
        """``options`` — or the defaults when ``None`` — with keyword
        ``overrides`` patched in: the one rule every entry point shares
        (see the module docstring).  An unknown override name raises
        ``TypeError``."""
        resolved = options if options is not None else cls()
        return resolved.replace(**overrides) if overrides else resolved
