"""Orchestration: run tasks to statistical convergence, resumably.

The collection loop mirrors sinter's shape: plan deterministic chunks,
stream them through a :class:`~repro.engine.workers.ChunkRunner`
(serial or pooled), and fold the results in **chunk-index order** into a
:class:`TaskStats`.  Early stopping is a pure function of that ordered
fold — a task stops at the first chunk where cumulative errors reach
``max_errors`` — so serial and pooled runs aggregate exactly the same
prefix of chunks and report bitwise-identical counts.

Results land in a JSONL :class:`ResultStore` (one row per finished
task, keyed by the task's content-based ``strong_id``).  Restarting a
collection against the same store skips every task that already has a
row, which makes long sweeps cheap to resume after interruption.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable

import numpy as np

import repro.obs as obs
from repro.decoders.metrics import wilson_interval
from repro.engine.options import ExecutionOptions
from repro.engine.tasks import NO_DECODER, Task
from repro.engine.workers import ChunkRunner, plan_chunks


@dataclass
class TaskStats:
    """Aggregated counts for one task (the engine's unit of reporting).

    ``seconds`` is the task's wall-clock collection time;
    ``worker_seconds`` sums the chunks' in-worker time (across all
    workers, so it can exceed wall time on a pool).  The per-stage
    split of that time lives in the metrics registry
    (``repro_stage_seconds_total``), not here.

    ``queue_wait_seconds`` (submit -> worker start) and
    ``hold_seconds`` (result received -> yielded past the reorder
    buffer) sum the runner's scheduling overheads across the task's
    chunks, and ``transport_bytes`` the pickled spec+result payloads
    both ways.  All three stay 0 for runs without telemetry (they are
    observations, not part of the counts).  In-process runs with
    telemetry measure small but nonzero queue wait and hold (the
    runner's own bookkeeping between stamps) and no transport bytes.

    ``failed_chunks`` counts quarantined chunks — chunks that exhausted
    their retry budget.  Their shots are *not* in ``shots``: the task's
    counts stay honest, the task is considered incomplete (no store row
    is written for it), and a resume re-attempts it.
    """

    task_id: str
    decoder: str
    sampler: str
    metadata: dict[str, Any] = field(default_factory=dict)
    shots: int = 0
    errors: int = 0
    seconds: float = 0.0
    chunks: int = 0
    base_seed: int | None = None
    resumed: bool = False
    worker_seconds: float = 0.0
    queue_wait_seconds: float = 0.0
    hold_seconds: float = 0.0
    transport_bytes: int = 0
    failed_chunks: int = 0

    @property
    def error_rate(self) -> float:
        return self.errors / self.shots if self.shots else 0.0

    def wilson(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(self.errors, self.shots, z)

    def to_row(self) -> dict[str, Any]:
        low, high = self.wilson()
        row = asdict(self)
        row.pop("resumed")
        # Rows are only written for complete tasks, so the count is
        # always 0 there; it lives on the object for progress reporting.
        row.pop("failed_chunks")
        row.update(error_rate=self.error_rate, wilson_low=low, wilson_high=high)
        return row

    @classmethod
    def from_row(cls, row: dict[str, Any]) -> "TaskStats":
        metadata = row.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("metadata is not a JSON object")
        if not isinstance(row["task_id"], str):
            raise ValueError("task_id is not a string")
        shots, errors = _count(row, "shots"), _count(row, "errors")
        if errors > shots:
            raise ValueError(f"errors ({errors}) exceed shots ({shots})")
        return cls(
            task_id=row["task_id"],
            decoder=row.get("decoder", "matching"),
            sampler=row.get("sampler", "symbolic"),
            metadata=metadata,
            shots=shots,
            errors=errors,
            seconds=float(row.get("seconds", 0.0)),
            chunks=_count(row, "chunks", 0),
            base_seed=row.get("base_seed"),
            resumed=True,
            worker_seconds=float(row.get("worker_seconds", 0.0)),
            # Telemetry fields arrived after the first store format;
            # older rows resume with them at zero.  Rows from before the
            # stage split moved to the metrics registry also carry
            # sample_seconds/decode_seconds, which are ignored.
            queue_wait_seconds=float(row.get("queue_wait_seconds", 0.0)),
            hold_seconds=float(row.get("hold_seconds", 0.0)),
            transport_bytes=_count(row, "transport_bytes", 0),
        )


def _count(row: dict[str, Any], name: str, default: int | None = None) -> int:
    """A stored count field: a non-negative JSON integer, never coerced
    (``2.9``, ``true``, ``"12"`` and ``-3`` are corrupt, not 2/1/12/-3).
    A missing field takes ``default`` when one is given."""
    value = row[name] if default is None else row.get(name, default)
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} is not a non-negative integer: {value!r}")
    return value


class ResultStore:
    """Append-only JSONL store of finished task rows.

    One line per finished task, written atomically enough for crash
    recovery: each append is a single ``write`` + ``flush`` +
    ``fsync``, so a killed run leaves at most one torn *final* line —
    which ``load()`` silently drops (the durability contract makes any
    earlier line complete, so mid-file garbage still warns).  Duplicate
    task ids keep the latest row on load.

    Besides task rows the store records *quarantine rows* — structured
    failure records (``{"kind": "quarantine", ...}``) for chunks that
    exhausted their retry budget.  A task with quarantined chunks gets
    no task row, so a resume re-attempts it (and thereby its poison
    chunks); the failure rows remain as the durable audit trail of what
    failed and why.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)

    def _iter_rows(self):
        """Parsed ``(line_number, row_dict)`` pairs, with crash-tail
        recovery: an unparsable *final* line with no trailing newline is
        what a killed ``append`` leaves behind and is skipped silently;
        corruption anywhere else still warns."""
        if not os.path.exists(self.path):
            return
        with open(self.path, errors="replace") as handle:
            content = handle.read()
        lines = content.split("\n")
        # A file ending in "\n" splits to a trailing "" — then no line
        # is torn.  Otherwise the final element is an unterminated
        # (possibly half-written) line.
        torn_candidate = len(lines) - 1 if lines[-1] != "" else -1
        for number, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError("row is not a JSON object")
            except (ValueError, RecursionError):
                # JSONDecodeError is a ValueError; absurdly deep nesting
                # overflows the decoder's recursion instead.
                if number == torn_candidate:
                    # Torn tail from a killed run: expected, recover
                    # silently; the row's task simply re-collects.
                    continue
                print(
                    f"warning: skipping corrupt row at "
                    f"{self.path}:{number + 1}",
                    file=sys.stderr,
                )
                continue
            yield number + 1, row

    def load(self) -> dict[str, TaskStats]:
        """All completed task rows keyed by ``task_id`` (empty if no
        file yet).  Kind-tagged rows (quarantine records) are not task
        rows and are skipped here — see :meth:`load_failures`."""
        rows: dict[str, TaskStats] = {}
        for number, row in self._iter_rows():
            if row.get("kind") is not None:
                continue
            try:
                stats = TaskStats.from_row(row)
            except (KeyError, TypeError, ValueError, OverflowError):
                # OverflowError: an integer past the double range fed
                # to float() (a ``seconds`` field of 400 digits).
                print(
                    f"warning: skipping corrupt row at "
                    f"{self.path}:{number}",
                    file=sys.stderr,
                )
                continue
            rows[stats.task_id] = stats
        return rows

    def load_failures(self) -> list[dict[str, Any]]:
        """Every quarantine row, in append order."""
        return [
            row
            for _number, row in self._iter_rows()
            if row.get("kind") == "quarantine"
        ]

    def _append_row(self, row: dict[str, Any]) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(row) + "\n")
            handle.flush()
            # fsync bounds crash damage to one torn final line: every
            # preceding line is durably complete, which is what lets
            # load() treat mid-file corruption as an anomaly worth
            # warning about and the tail as routine crash recovery.
            os.fsync(handle.fileno())

    def append(self, stats: TaskStats) -> None:
        self._append_row(stats.to_row())

    def append_failure(
        self,
        task_id: str,
        chunk_index: int,
        attempts: int,
        error: str,
        base_seed: int | None = None,
    ) -> None:
        """Record one quarantined chunk as a structured failure row."""
        self._append_row(
            {
                "kind": "quarantine",
                "task_id": task_id,
                "chunk_index": chunk_index,
                "attempts": attempts,
                "error": error,
                "base_seed": base_seed,
            }
        )


def fresh_base_seed() -> int:
    """One 64-bit seed word drawn from OS entropy.

    Used when a run requests ``base_seed=None``: the drawn word is
    recorded in every row the run writes, so even "unseeded" results
    stay auditable and individually reproducible.
    """
    return int(np.random.SeedSequence().entropy) & ((1 << 64) - 1)


def collect(
    tasks: Iterable[Task],
    *,
    options: ExecutionOptions | None = None,
    **overrides: Any,
) -> list[TaskStats]:
    """Collect statistics for every task; returns one TaskStats per task.

    Execution policy is ``options`` (an
    :class:`~repro.engine.options.ExecutionOptions`, the defaults when
    ``None``) with keyword ``overrides`` patched in —
    ``collect(tasks, workers=4, base_seed=0)`` or
    ``collect(tasks, options=opts, workers=4)`` — through
    :meth:`ExecutionOptions.resolve`, the rule every entry point
    shares.  An unknown override name raises :class:`TypeError`.

    * ``workers`` — process-pool size (``1`` = in-process serial);
      aggregate counts are identical for every value, by construction.
    * ``chunk_shots`` — shots per chunk.  Part of the statistical
      protocol (it sets the RNG chunking, the per-chunk accounting and
      the early-stop granularity), so changing it changes which shots
      are drawn — keep it fixed across runs that share a store.  It
      does not set the decode call's size: consecutive chunks of a task
      are decoded together, up to 4,096 shots per call for a task with
      an error budget (so an early stop wastes at most that) and, in
      process, up to 32,768 for one without.
    * ``base_seed`` — int for reproducible runs; ``None`` draws one
      fresh OS-entropy seed for the whole run (recorded in every row)
      and accepts any completed stored row on resume.
    * ``max_errors`` — default early-stop policy for tasks whose own
      ``max_errors`` is ``None``; a task-level value always wins.
    * ``store`` — path or :class:`ResultStore`; tasks with an existing
      row are returned as ``resumed`` without sampling a single shot.
    * ``progress`` — callback invoked with each finished TaskStats.
    * ``profile`` — enable :mod:`repro.obs` metrics for this run
      (restored afterwards; the registry is left populated for the
      caller).  Observational only — counts are unaffected.
    * ``max_chunk_retries`` / ``chunk_timeout_seconds`` /
      ``fault_plan`` — fault-tolerance policy for pooled runs (lease
      deadlines, immediate retry, quarantine, chaos injection); see
      :class:`~repro.engine.options.ExecutionOptions`.  A task with
      quarantined chunks gets quarantine rows instead of a task row,
      so resuming against the same store re-attempts it.
    """
    options = ExecutionOptions.resolve(options, **overrides)
    task_list = list(tasks)
    store = options.store
    if isinstance(store, (str, os.PathLike)):
        store = ResultStore(store)
    progress = options.progress
    completed = store.load() if store is not None else {}
    run_seed = (
        options.base_seed if options.base_seed is not None else fresh_base_seed()
    )

    # --profile turns metrics on for the run only; the prior flag state
    # is restored afterwards but the registry is deliberately left
    # populated so the caller can read/print/export what was measured.
    restore_flags = None
    if options.profile and not obs.is_metrics():
        restore_flags = obs.wire_config()
        obs.enable(tracing=obs.is_tracing(), metrics=True)

    # A decoder-less task keeps its circuit's pass when a later task
    # decodes that circuit, so a mixed sweep runs Algorithm 1 once.
    decoded: set[str] = set()
    decoded_later = []
    for task in reversed(task_list):
        decoded_later.append(task.circuit_fingerprint() in decoded)
        if task.decoder != NO_DECODER:
            decoded.add(task.circuit_fingerprint())
    decoded_later.reverse()

    results: list[TaskStats] = []
    try:
        with ChunkRunner(options) as runner:
            for task, keeps_pass in zip(task_list, decoded_later):
                task_id = task.strong_id()
                stored = completed.get(task_id)
                # A row only satisfies this run if it was collected
                # under the same base seed (legacy rows without one are
                # accepted) — changing --seed must produce fresh,
                # independent counts.  An unseeded run (base_seed=None)
                # asks for *a* sample, not a specific one, so any
                # completed row satisfies it.
                if stored is not None and (
                    options.base_seed is None
                    or stored.base_seed in (None, options.base_seed)
                ):
                    results.append(stored)
                    if progress is not None:
                        progress(stored)
                    continue
                stats = _collect_one(
                    task, runner, run_seed, options, store, int(keeps_pass)
                )
                # A task with quarantined chunks is incomplete: its
                # quarantine rows are already in the store, but no task
                # row is written, so a resume re-attempts the whole
                # task (and thereby its poison chunks).
                if store is not None and stats.failed_chunks == 0:
                    store.append(stats)
                results.append(stats)
                if progress is not None:
                    progress(stats)
    finally:
        if restore_flags is not None:
            obs.configure(restore_flags)
    return results


def _collect_one(
    task: Task,
    runner: ChunkRunner,
    base_seed: int,
    options: ExecutionOptions,
    store: ResultStore | None = None,
    keeps_pass: int = 0,
) -> TaskStats:
    """Run one task's chunks through the runner with ordered early stop
    (``keeps_pass``: see :attr:`~repro.engine.workers.ChunkSpec.keeps_pass`)."""
    stats = TaskStats(
        task_id=task.strong_id(),
        decoder=task.decoder,
        sampler=task.sampler,
        metadata=dict(task.metadata),
        base_seed=base_seed,
    )
    max_errors = (
        task.max_errors if task.max_errors is not None else options.max_errors
    )
    specs = plan_chunks(task, base_seed, options.chunk_shots, keeps_pass)
    wall_start = time.perf_counter()
    with obs.span(
        "task", task=stats.task_id, decoder=task.decoder, sampler=task.sampler
    ) as task_sp:
        # Without an error budget the fold never breaks, so the runner
        # may decode longer runs of chunks per call.
        for result in runner.run(specs, may_stop_early=max_errors is not None):
            if result.failed:
                # Quarantined: the chunk's shots never happened, so
                # they must not enter the counts.  Record the failure
                # durably and keep folding — one poison chunk degrades
                # the task to partial instead of aborting the sweep.
                stats.failed_chunks += 1
                if store is not None:
                    store.append_failure(
                        task_id=stats.task_id,
                        chunk_index=result.chunk_index,
                        attempts=result.attempt + 1,
                        error=result.error,
                        base_seed=base_seed,
                    )
                continue
            stats.shots += result.shots
            stats.errors += result.errors
            stats.chunks += 1
            stats.worker_seconds += result.finished_at - result.started_at
            stats.queue_wait_seconds += result.queue_wait_seconds
            stats.hold_seconds += result.hold_seconds
            stats.transport_bytes += result.spec_bytes + result.result_bytes
            if max_errors is not None and stats.errors >= max_errors:
                break
        task_sp.set(shots=stats.shots, errors=stats.errors,
                    chunks=stats.chunks)
    stats.seconds = time.perf_counter() - wall_start
    return stats
