"""Parallel Monte-Carlo collection engine (sinter-style batch sampling).

Compile once, sample everywhere: the engine amortizes Algorithm 1's
Initialization through a fingerprint-keyed sampler cache, fans a task's
shot budget out across worker processes in reproducible chunks, stops
early once enough logical errors have accumulated, and persists rows to
a resumable JSONL result store.

Typical use::

    from repro.engine import Task, collect

    tasks = [Task(circuit, decoder="matching", max_shots=100_000,
                  max_errors=500, metadata={"d": 5, "p": 0.01})]
    for stats in collect(tasks, workers=4, store="results.jsonl"):
        print(stats.metadata, stats.error_rate, stats.wilson())

or from the command line: ``python -m repro collect --help``.

Execution policy is one :class:`ExecutionOptions`: ``collect`` and
:class:`ChunkRunner` (like ``repro.study``'s ``collect`` methods) take
``options=`` plus keyword overrides and resolve them once through
:meth:`ExecutionOptions.resolve`.  A failed chunk lease is retried at
once (no backoff) up to ``max_chunk_retries`` times, then quarantined.
"""

from repro.engine.cache import SamplerCache, shared_cache
from repro.engine.collector import ResultStore, TaskStats, collect, fresh_base_seed
from repro.engine.faults import FaultClause, FaultInjected, FaultPlan
from repro.engine.options import ExecutionOptions
from repro.engine.tasks import Task
from repro.engine.workers import (
    ChunkResult,
    ChunkRunner,
    ChunkSpec,
    plan_chunks,
    run_chunk,
    run_chunks,
)

__all__ = [
    "ChunkResult",
    "ChunkRunner",
    "ChunkSpec",
    "ExecutionOptions",
    "FaultClause",
    "FaultInjected",
    "FaultPlan",
    "ResultStore",
    "SamplerCache",
    "Task",
    "TaskStats",
    "collect",
    "fresh_base_seed",
    "plan_chunks",
    "run_chunk",
    "run_chunks",
    "shared_cache",
]
