"""Chunked execution of collection tasks, serially or on supervised workers.

A task's shot budget is split into fixed-size :class:`ChunkSpec`s.  Each
chunk is self-contained and picklable — it carries the circuit's text
serialization, the decoder/sampler choice, and the ``(base_seed,
task_entropy, chunk_index)`` triple of the derived-seed scheme
(:mod:`repro.rng`) — so it can run on any worker process in any order
and still produce exactly the same :class:`ChunkResult`.  That property
is also what makes the executor *fault tolerant*: a chunk whose worker
dies is simply leased to another worker, and the replay is bitwise
identical, so crashes can delay results but never skew counts.

Pooled execution runs on a :class:`~repro.engine.supervise.SupervisedPool`
of directly-owned worker processes rather than a fire-and-forget
``multiprocessing.Pool``: every in-flight chunk is a *lease* tied to a
specific worker with an optional deadline, worker deaths are detected
via process sentinels (and hung workers via expired leases), failed
leases go straight back on the queue, and a chunk that keeps failing
is quarantined as a structured failure result instead of aborting the
sweep.  :mod:`repro.engine.faults` injects deterministic
crashes into this machinery under test.

Workers keep a process-global :class:`~repro.engine.cache.SamplerCache`
and compile lazily: the first chunk of a circuit a worker sees pays
Algorithm 1's Initialization (plus DEM extraction and decoder
construction), every later chunk is pure Eq. 4 sampling + decoding.
So ``backend.compile`` runs at most once per worker per circuit, and
only on workers that actually receive a chunk of it.

Decoding is batched across chunks: :func:`run_chunks` samples a run of
consecutive chunks of one task (up to :data:`_DECODE_BATCH_SHOTS` while
an early stop may discard the batch, up to :data:`_DECODE_RUN_SHOTS`
in-process when none can), each from its own generator, and decodes
them with one call, so a matcher's per-call cost is paid once per batch
while every count stays the chunk's own.

The parent-worker wire is the pipe itself: each leased chunk ships as a
pickled :class:`ChunkSpec` and comes back as a pickled
:class:`ChunkResult` (counts plus any buffered telemetry).
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import repro.obs as obs
from repro.decoders.metrics import count_chunk_errors
from repro.engine import faults
from repro.engine.cache import (
    cached_decoder,
    cached_sampler,
    circuit_loader,
    decoder_key,
    sampler_key,
    shared_cache,
)
from repro.engine.options import ExecutionOptions
from repro.engine.supervise import SupervisedPool
from repro.engine.tasks import NO_DECODER, Task
from repro.rng import chunk_generator

#: Base supervisor poll tick: the longest the scheduler sleeps when no
#: worker message or lease deadline is nearer.
_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class ChunkSpec:
    """One self-contained unit of sampling + decoding work.

    ``attempt`` counts prior failed executions of this chunk (0 on the
    first try).  It exists for observability and fault-plan matching
    only — the RNG seed derives from ``(base_seed, task_entropy,
    chunk_index)`` alone, so every attempt replays identical shots.

    ``keeps_pass`` is 1 when a later task of the same collection decodes
    this circuit: a decoder-less chunk then keeps the cached pass for
    that task's DEM instead of dropping it (see
    :func:`~repro.engine.cache.cached_sampler`).
    """

    task_id: str
    fingerprint: str
    circuit_text: str
    decoder: str
    sampler: str
    chunk_index: int
    shots: int
    base_seed: int
    task_entropy: int
    attempt: int = 0
    keeps_pass: int = 0


@dataclass(frozen=True)
class ChunkResult:
    """Counts streamed back from a worker for one chunk.

    ``started_at``/``finished_at`` are the worker's ``perf_counter``
    stamps (comparable with the parent's on one machine; their
    difference is the chunk's in-worker time, which for the last chunk
    of a decode batch includes the batch's decode) and ``pid`` the process
    that ran the chunk.  Per-stage times come from the ``obs`` spans
    (``repro collect --profile`` reads them from the metrics registry).
    ``queue_wait_seconds`` (submit -> worker start) and
    ``hold_seconds`` (result received -> yielded past the reorder
    buffer) are filled in by :meth:`ChunkRunner.run` on the way out;
    ``spec_bytes``/``result_bytes`` record the pickled transport
    payload both ways when :mod:`repro.obs` metrics are on (0 for
    in-process runs — there is no transport to account).

    ``attempt`` is the execution attempt that produced the result
    (counts are attempt-independent by construction).  ``failed`` marks
    a *quarantined* chunk — one that exhausted its retry budget; its
    ``shots``/``errors`` are then the planned shots and 0, its
    ``error`` the last failure, and downstream aggregation must skip
    it (the collector records it as a structured failure row instead
    of counting it).

    ``spans``/``metrics`` piggyback the worker's buffered
    :mod:`repro.obs` telemetry back to the parent, once per decode
    batch on its last result (wire tuples; the runner absorbs them and
    strips both before yielding).
    """

    task_id: str
    chunk_index: int
    shots: int
    errors: int
    started_at: float = 0.0
    finished_at: float = 0.0
    pid: int = 0
    queue_wait_seconds: float = 0.0
    hold_seconds: float = 0.0
    spec_bytes: int = 0
    result_bytes: int = 0
    attempt: int = 0
    failed: bool = False
    error: str = ""
    spans: tuple = ()
    metrics: tuple = ()


def plan_chunks(
    task: Task, base_seed: int, chunk_shots: int, keeps_pass: int = 0
) -> list[ChunkSpec]:
    """Split ``task``'s budget into deterministic chunk specs (each with
    :attr:`ChunkSpec.keeps_pass` ``keeps_pass``).

    The split depends only on the task and ``chunk_shots``, never on
    scheduling, so chunk ``i`` is the same work in every run.
    """
    if chunk_shots < 1:
        raise ValueError("chunk_shots must be positive")
    task_id = task.strong_id()
    fingerprint = task.circuit_fingerprint()
    text = task.circuit_text()
    entropy = task.seed_entropy()
    specs = []
    remaining = task.max_shots
    index = 0
    while remaining > 0:
        shots = min(chunk_shots, remaining)
        specs.append(
            ChunkSpec(
                task_id=task_id,
                fingerprint=fingerprint,
                circuit_text=text,
                decoder=task.decoder,
                sampler=task.sampler,
                chunk_index=index,
                shots=shots,
                base_seed=base_seed,
                task_entropy=entropy,
                keeps_pass=keeps_pass,
            )
        )
        remaining -= shots
        index += 1
    return specs


#: Most shots one decode batch holds while its consumer may stop early:
#: the pool workers, and :meth:`ChunkRunner.run` for a task with an error
#: budget, hand :func:`run_chunks` runs of consecutive chunks of one task
#: up to this size (a larger chunk is a batch of one), so the matcher's
#: per-call cost is paid once per run, not once per chunk.  An early stop
#: then discards at most one such batch minus one chunk.
_DECODE_BATCH_SHOTS = 4096
#: Most shots one in-process decode batch holds when nothing can stop
#: the task before its shot budget, so no batch can be wasted: a whole
#: ``surface_d5_chunked`` operation (64 chunks of 512 shots) is one call.
_DECODE_RUN_SHOTS = 32_768


def joins_batch(
    batch: list[ChunkSpec], spec: ChunkSpec, limit: int = _DECODE_BATCH_SHOTS
) -> bool:
    """Whether ``spec`` may extend the decode ``batch``: a chunk of the
    same task that keeps it within ``limit`` shots."""
    return (
        spec.task_id == batch[0].task_id
        and sum(chunk.shots for chunk in batch) + spec.shots <= limit
    )


def decode_batches(
    specs: Iterable[ChunkSpec], limit: int = _DECODE_BATCH_SHOTS
) -> Iterator[list[ChunkSpec]]:
    """Group ``specs`` into the longest runs of consecutive chunks that
    :func:`joins_batch` allows within ``limit`` shots: the default
    :data:`_DECODE_BATCH_SHOTS` (4,096) while the consumer may stop
    early, so a stop wastes at most one batch minus one chunk, and
    :data:`_DECODE_RUN_SHOTS` (32,768) when it takes every chunk.
    Pulls one spec past each run, lazily."""
    batch: list[ChunkSpec] = []
    for spec in specs:
        if batch and not joins_batch(batch, spec, limit):
            yield batch
            batch = []
        batch.append(spec)
    if batch:
        yield batch


def run_chunk(spec: ChunkSpec) -> ChunkResult:
    """Sample + decode one chunk: :func:`run_chunks` on a batch of one."""
    return run_chunks([spec])[0]


def run_chunks(specs: list[ChunkSpec]) -> list[ChunkResult]:
    """Sample a decode batch of chunks, decode it with one call, and
    count each chunk (runs in a worker or in-process).

    ``specs`` are chunks of one task.  Each chunk is reproducible in
    isolation: the RNG is seeded purely from the spec's ``(base_seed,
    task_entropy, chunk_index)`` triple — never from the attempt number
    or the batch it rides in, so a retried or differently batched chunk
    replays the same shots and the same count.

    Per chunk, inside its own ``chunk`` span: one cache lookup of the
    sampler (and of the decoder), one ``sample_detectors_packed`` call
    from the chunk's generator in its own ``sample`` span, and the
    decode fault hook.  Then, unless the decoder is ``none``, one
    ``decode`` span inside the last chunk's ``chunk`` span runs
    :func:`~repro.decoders.metrics.count_chunk_errors` over the whole
    batch (``decode_chunks_packed``; decoders with no batched core
    answer it through the registry's adapters), and each chunk gets its
    own :class:`ChunkResult`.  Counts are bitwise those
    of the unpacked pipeline, one chunk at a time: the packed and
    unpacked views of one seed are the same sample, and a chunk's
    packed predictions are its unpacked ones, packed, whatever it is
    decoded with.
    """
    if len({spec.task_id for spec in specs}) != 1:
        raise ValueError("a decode batch holds one or more chunks of one task")
    pid = os.getpid()
    cache = shared_cache()
    chunks, stamps, chunk_spans = [], [], []
    decoder = None
    for position, spec in enumerate(specs):
        started = time.perf_counter()
        with obs.span(
            "chunk",
            task=spec.task_id,
            chunk=spec.chunk_index,
            shots=spec.shots,
            sampler=spec.sampler,
            decoder=spec.decoder,
        ) as chunk_sp:
            if obs.is_tracing():
                key = sampler_key(spec.fingerprint, spec.sampler)
                chunk_sp.set(sampler_cache="hit" if key in cache else "miss")
            circuit = circuit_loader(spec.circuit_text, spec.fingerprint)
            sampler = cached_sampler(
                circuit, spec.fingerprint, spec.sampler,
                builds_dem=spec.decoder != NO_DECODER or spec.keeps_pass == 1,
            )
            rng = chunk_generator(
                spec.base_seed, spec.task_entropy, spec.chunk_index
            )
            with obs.span("sample", chunk=spec.chunk_index) as sp:
                detectors, observables = sampler.sample_detectors_packed(
                    spec.shots, rng
                )
                sp.set(
                    detector_bytes=int(detectors.nbytes),
                    observable_bytes=int(observables.nbytes),
                )
            chunks.append((detectors, observables))
            if spec.decoder != NO_DECODER:
                if obs.is_tracing():
                    key = decoder_key(spec.fingerprint, spec.decoder)
                    chunk_sp.set(
                        decoder_cache="hit" if key in cache else "miss"
                    )
                # spec.decoder is already canonical (Task resolves aliases).
                decoder = cached_decoder(
                    circuit, spec.fingerprint, spec.sampler, spec.decoder
                )
                faults.on_decode(spec.chunk_index, spec.attempt, _IN_WORKER)
            if position == len(specs) - 1:
                if decoder is None:
                    errors = count_chunk_errors(None, chunks)
                else:
                    with obs.span(
                        "decode", chunk=spec.chunk_index, chunks=len(specs)
                    ):
                        errors = count_chunk_errors(decoder, chunks)
        stamps.append((started, time.perf_counter()))
        chunk_spans.append(chunk_sp)
    results = []
    for spec, count, (started, finished), chunk_sp in zip(
        specs, errors, stamps, chunk_spans
    ):
        # Counts arrive with the batch decode; a closed span's record
        # still takes attributes (see obs.span).
        chunk_sp.set(errors=count)
        if obs.is_metrics():
            worker = str(pid)
            obs.counter("repro_chunks_total", pid=worker).inc()
            obs.counter("repro_shots_total", pid=worker).inc(spec.shots)
            obs.counter("repro_errors_total", pid=worker).inc(count)
            obs.histogram("repro_chunk_seconds", pid=worker).observe(
                finished - started
            )
        results.append(
            ChunkResult(
                task_id=spec.task_id,
                chunk_index=spec.chunk_index,
                shots=spec.shots,
                errors=count,
                started_at=started,
                finished_at=finished,
                pid=pid,
                attempt=spec.attempt,
            )
        )
    # Piggyback buffered telemetry only when running in a pool worker,
    # once per batch, on its last result: in-process runs already share
    # the parent's buffers, and shipping+merging there would
    # double-count every metric.
    if _IN_WORKER and (obs.is_tracing() or obs.is_metrics()):
        results[-1] = replace(
            results[-1],
            spans=obs.drain_wire_spans() if obs.is_tracing() else (),
            metrics=obs.flush_wire() if obs.is_metrics() else (),
        )
    return results


_IN_WORKER = False


def enter_worker(config) -> None:
    """Worker initializer: adopt the parent's telemetry flags and mark
    this process as a worker so ``run_chunks`` ships its telemetry back
    on the wire (spawned children start with everything off; forked
    ones inherit flags but still need the worker mark).

    The inherited telemetry buffers are dropped first: a forked child
    starts with the parent's registry *including its unshipped deltas*,
    and its first ``flush_wire`` would re-ship them — every parent-side
    counter would double-count once per worker.  A worker's wire must
    carry only what the worker itself measured.
    """
    global _IN_WORKER
    _IN_WORKER = True
    obs.reset()
    obs.configure(config)


def execute_chunks(specs: list[ChunkSpec]) -> list[ChunkResult]:
    """Worker-side execution of a batch of leased chunks: fire each
    chunk's chunk-start fault hooks, then run the batch."""
    for spec in specs:
        faults.on_chunk_start(spec.chunk_index, spec.attempt, _IN_WORKER)
    return run_chunks(specs)


@dataclass
class _Lease:
    """Parent-side record of one dispatched chunk attempt."""

    slot: int  # worker slot holding the lease
    attempt: int
    submitted: float  # perf_counter stamp, for the chunk.queue span
    deadline: float | None  # monotonic expiry, None = no deadline


@dataclass
class _RunState:
    """Mutable bookkeeping of one supervised run (one `run()` call)."""

    token: int
    specs: dict[int, ChunkSpec] = field(default_factory=dict)
    attempts: dict[int, int] = field(default_factory=dict)
    pending: deque = field(default_factory=deque)
    leases: dict[int, _Lease] = field(default_factory=dict)
    reorder: dict = field(default_factory=dict)
    submit_times: dict[int, float] = field(default_factory=dict)
    spec_sizes: dict[int, int] = field(default_factory=dict)
    next_submit: int = 0
    next_yield: int = 0
    exhausted: bool = False

    def live(self) -> int:
        """Chunks admitted but not yet yielded — the window occupancy."""
        return len(self.pending) + len(self.leases) + len(self.reorder)


class ChunkRunner:
    """Executes chunk specs, in-process (``workers == 1``) or on a
    supervised worker pool.  Context-managed so the workers are always
    reclaimed::

        with ChunkRunner(workers=4) as runner:
            for result in runner.run(specs):
                ...

    The runner reads ``workers``, ``max_chunk_retries``,
    ``chunk_timeout_seconds`` and ``fault_plan`` from ``options``
    with keyword ``overrides`` patched in
    (:meth:`~repro.engine.options.ExecutionOptions.resolve`), so its
    knobs are validated in one place.  Any other keyword override
    raises ``TypeError``: the runner would ignore it.

    Pooled chunks travel as pickled :class:`ChunkSpec`s over each
    worker's pipe and come back as pickled :class:`ChunkResult`s.

    Fault tolerance: each dispatched chunk is a *lease* on a specific
    worker.  A worker death (sentinel) or an expired lease
    (``chunk_timeout_seconds``) puts the worker's leased chunks straight
    back on the queue and replenishes the pool; a chunk failing more than
    ``max_chunk_retries`` times is *quarantined* — yielded as a
    ``failed`` :class:`ChunkResult` instead of aborting the sweep.
    Replays are bitwise identical by the derived-seed scheme, so none
    of this can change counts.

    Workers compile lazily, so a lease deadline covers everything the
    chunk's worker does for it — including that worker's first compile
    of the chunk's circuit.  Size ``chunk_timeout_seconds`` to fit one
    compile plus one chunk.
    """

    def __init__(
        self, options: ExecutionOptions | None = None, **overrides
    ):
        ignored = set(overrides) - {
            "workers", "max_chunk_retries", "chunk_timeout_seconds", "fault_plan"
        }
        if ignored:
            raise TypeError(f"ChunkRunner ignores {', '.join(sorted(ignored))}")
        options = ExecutionOptions.resolve(options, **overrides)
        self.workers = options.workers
        self.max_chunk_retries = options.max_chunk_retries
        self.chunk_timeout_seconds = options.chunk_timeout_seconds
        self.fault_plan = options.fault_plan
        self._pool: SupervisedPool | None = None
        self._run_token = 0

    def __enter__(self) -> "ChunkRunner":
        if self.workers > 1:
            self._pool = SupervisedPool(
                self.workers,
                wire_config=obs.wire_config(),
                fault_plan=faults.resolve_plan(self.fault_plan),
            )
            self._pool.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        if self._pool is not None:
            # Clean shutdown waits (bounded) for in-flight chunks so
            # forked children flush coverage data; the exception path
            # terminates immediately.
            self._pool.stop(graceful=exc_type is None)
            self._pool = None

    @staticmethod
    def _finalize(
        result: ChunkResult,
        submitted: float,
        received: float,
        spec_bytes: int = 0,
        result_bytes: int = 0,
        transport: str = "inproc",
    ) -> ChunkResult:
        """Complete a chunk's telemetry on the way out of the runner.

        Absorbs any piggybacked worker telemetry into the parent's
        buffers, derives queue wait (submit -> worker start) and
        reorder-buffer hold (received -> yielded), records them as the
        ``chunk.queue``/``chunk.hold`` spans on the scheduler's ``pid
        0`` track (``tid`` = chunk index), and strips the wire payload
        from the yielded result.  A single no-op when telemetry is off.
        """
        if not (obs.is_tracing() or obs.is_metrics()):
            return result
        if result.spans:
            obs.absorb_spans(result.spans)
        if result.metrics:
            obs.merge_wire(result.metrics)
        yielded = time.perf_counter()
        queue_wait = max(result.started_at - submitted, 0.0)
        hold = max(yielded - received, 0.0)
        if obs.is_metrics() and (spec_bytes or result_bytes):
            obs.counter("repro_transport_spec_bytes_total").inc(spec_bytes)
            obs.counter("repro_transport_result_bytes_total").inc(
                result_bytes
            )
        attrs = dict(
            task=result.task_id,
            chunk=result.chunk_index,
            shots=result.shots,
            worker_pid=result.pid,
            spec_bytes=spec_bytes,
            result_bytes=result_bytes,
            transport=transport,
            attempt=result.attempt,
        )
        for name, start, duration in (
            ("chunk.queue", submitted, queue_wait),
            ("chunk.hold", received, hold),
        ):
            obs.record_span(
                name, start, duration, pid=0, tid=result.chunk_index,
                **attrs,
            )
        return replace(
            result,
            queue_wait_seconds=queue_wait,
            hold_seconds=hold,
            spec_bytes=spec_bytes,
            result_bytes=result_bytes,
            spans=(),
            metrics=(),
        )

    def run(
        self, specs: Iterable[ChunkSpec], *, may_stop_early: bool = True
    ) -> Iterator[ChunkResult]:
        """Yield results in chunk-submission order.

        In-process execution runs :func:`decode_batches` of the specs —
        the longest runs of consecutive chunks of one task up to
        :data:`_DECODE_BATCH_SHOTS` (4,096) shots — through
        :func:`run_chunks`, one decode call per run, and yields each
        chunk's result.  A consumer that stops early therefore discards
        at most one batch minus one chunk of finished work.  A consumer
        that promises to take every result (``may_stop_early=False``,
        as :func:`~repro.engine.collector.collect` does for a task
        without ``max_errors``) gets runs of up to
        :data:`_DECODE_RUN_SHOTS` (32,768) shots instead; breaking out of
        such a run may discard up to that many shots of work, never
        miscount them.

        Pooled execution leases chunks to supervised workers with a
        bounded in-flight window of ``2 * workers`` and an
        order-restoring reorder buffer, so downstream aggregation sees
        the same deterministic stream serial execution produces while a
        slow chunk never barriers its peers.  The window doubles as the
        speculative-overrun bound the max-errors early stop relies on:
        a consumer that stops early wastes at most one window of work.
        Each worker decodes the leases it already holds as one batch
        (see :func:`~repro.engine.supervise.worker_main`), within that
        window and within :data:`_DECODE_BATCH_SHOTS`, whatever
        ``may_stop_early`` says.

        Failed leases (worker death, expiry, in-chunk exception) are
        retried in place — the retried chunk re-enters the window it
        already occupies, so recovery never widens the overrun bound —
        and chunks that exhaust their retry budget are yielded as
        ``failed`` results in their deterministic position.

        One pooled run at a time: close (or exhaust) a run's iterator
        before starting another — abandoning it to the garbage
        collector also works, which is what a ``for``-loop ``break``
        does; results still in flight from the abandoned run carry its
        stale token and are dropped.
        """
        if self._pool is None:
            limit = (
                _DECODE_BATCH_SHOTS if may_stop_early else _DECODE_RUN_SHOTS
            )
            for batch in decode_batches(specs, limit):
                submitted = time.perf_counter()
                results = run_chunks(batch)
                # In-process there is no transport.  A chunk is submitted
                # when the runner is free for it (its predecessor's
                # finish), and its count is received once the batch
                # decode has returned and the consumer asks for it, so
                # queue waits and holds never overlap each other or the
                # chunks: their sum stays within the run's wall time.
                # The bytes stay 0 so profiles never invent overhead.
                for result in results:
                    yield self._finalize(
                        result, submitted=submitted,
                        received=time.perf_counter(),
                    )
                    submitted = result.finished_at
            return
        yield from self._run_pooled(specs)

    # -- supervised scheduling -------------------------------------------

    def _run_pooled(
        self, specs: Iterable[ChunkSpec]
    ) -> Iterator[ChunkResult]:
        pool = self._pool
        measure = obs.is_metrics()
        window = 2 * self.workers
        # Matches the window: with 2 leases per worker, one chunk is
        # always queued behind the one executing, so a worker never
        # idles waiting for the next dispatch round-trip.
        per_worker = max(1, window // self.workers)
        self._run_token += 1
        state = _RunState(token=self._run_token)
        spec_iter = iter(specs)

        def lease_capacity() -> list[tuple[int, int]]:
            """(load, slot) for live workers with lease headroom."""
            loads: dict[int, int] = {}
            for lease in state.leases.values():
                loads[lease.slot] = loads.get(lease.slot, 0) + 1
            return sorted(
                (loads.get(slot, 0), slot)
                for slot in pool.live_slots()
                if loads.get(slot, 0) < per_worker
            )

        def requeue(index: int, lease: _Lease, reason: str) -> None:
            """A lease failed: retry it at once, or quarantine."""
            failed_attempts = lease.attempt + 1
            if failed_attempts > self.max_chunk_retries:
                quarantine(index, failed_attempts, reason)
                return
            if measure:
                obs.counter("repro_chunk_retries_total").inc()
            state.attempts[index] = failed_attempts
            state.pending.append(index)

        def quarantine(index: int, tries: int, reason: str) -> None:
            """Retry budget exhausted: emit a structured failure result
            in the chunk's deterministic position instead of aborting
            the sweep."""
            if measure:
                obs.gauge("repro_chunks_quarantined").add(1)
            spec = state.specs[index]
            obs.event(
                "chunk quarantined",
                task=spec.task_id,
                chunk=spec.chunk_index,
                attempts=tries,
                reason=reason,
            )
            state.submit_times.pop(index, None)
            state.spec_sizes.pop(index, None)
            state.reorder[index] = (
                ChunkResult(
                    task_id=spec.task_id,
                    chunk_index=spec.chunk_index,
                    shots=spec.shots,
                    errors=0,
                    attempt=tries - 1,
                    failed=True,
                    error=f"quarantined after {tries} attempts: {reason}",
                ),
                time.perf_counter(),
                0,
            )

        def on_worker_down(slot: int, *, expired: bool = False) -> None:
            """Requeue a dead worker's leases and replace it in place."""
            if measure and not expired:
                obs.counter("repro_worker_deaths_total").inc()
            mine = [
                index
                for index, lease in state.leases.items()
                if lease.slot == slot
            ]
            pool.respawn(slot)
            for index in mine:
                lease = state.leases.pop(index)
                requeue(
                    index,
                    lease,
                    "lease expired" if expired else "worker died",
                )

        def dispatch(index: int) -> bool:
            """Lease one pending chunk to the least-loaded live worker."""
            capacity = lease_capacity()
            while True:
                if not capacity:
                    return False
                _load, slot = capacity.pop(0)
                spec = state.specs[index]
                attempt = state.attempts[index]
                if spec.attempt != attempt:
                    spec = replace(spec, attempt=attempt)
                state.submit_times[index] = time.perf_counter()
                if measure:
                    state.spec_sizes[index] = len(pickle.dumps(spec))
                if pool.send(slot, ("chunk", state.token, index, spec)):
                    state.leases[index] = _Lease(
                        slot=slot,
                        attempt=attempt,
                        submitted=state.submit_times[index],
                        deadline=(
                            time.monotonic() + self.chunk_timeout_seconds
                            if self.chunk_timeout_seconds
                            else None
                        ),
                    )
                    return True
                # The worker died between poll and send.  The chunk was
                # never leased (no retry charged); replace the worker
                # and try the next candidate.
                on_worker_down(slot)
                capacity = lease_capacity()

        def on_message(payload: tuple) -> None:
            kind = payload[0]
            if kind == "result":
                _, token, index, result = payload
                if token != state.token or index not in state.leases:
                    return  # stale: abandoned run or already-requeued lease
                del state.leases[index]
                received = time.perf_counter()
                result_bytes = (
                    len(pickle.dumps(result)) if measure else 0
                )
                state.reorder[index] = (result, received, result_bytes)
            elif kind == "error":
                _, token, index, message = payload
                if token != state.token or index not in state.leases:
                    return
                requeue(index, state.leases.pop(index), message)

        while True:
            # Admit new chunks while the window has room.
            while not state.exhausted and state.live() < window:
                try:
                    spec = next(spec_iter)
                except StopIteration:
                    state.exhausted = True
                    break
                state.specs[state.next_submit] = spec
                state.attempts[state.next_submit] = 0
                state.pending.append(state.next_submit)
                state.next_submit += 1
            # Lease out pending chunks up to per-worker capacity.
            while state.pending:
                if not dispatch(state.pending[0]):
                    break
                state.pending.popleft()
            # Done?  Everything admitted has been yielded.
            if state.exhausted and state.live() == 0:
                return
            # Wait for worker events, but no longer than the nearest
            # lease deadline needs.
            wait = _POLL_SECONDS
            now = time.monotonic()
            deadlines = [
                lease.deadline
                for lease in state.leases.values()
                if lease.deadline is not None
            ]
            if deadlines:
                wait = min(wait, min(deadlines) - now)
            for event in pool.poll(max(0.01, wait)):
                if event.kind == "died":
                    on_worker_down(event.slot)
                elif event.payload:
                    on_message(event.payload)
            # Expire overdue leases: the holder is killed (it may be
            # wedged, and killing guarantees no late duplicate result),
            # which fails all its leases at once.
            if self.chunk_timeout_seconds:
                now = time.monotonic()
                overdue = {
                    lease.slot
                    for lease in state.leases.values()
                    if lease.deadline is not None and lease.deadline <= now
                }
                for slot in overdue:
                    if measure:
                        obs.counter("repro_lease_expired_total").inc()
                    pool.kill(slot)
                    on_worker_down(slot, expired=True)
            # Drain the reorder buffer in deterministic order.
            while state.next_yield in state.reorder:
                result, received_at, result_bytes = state.reorder.pop(
                    state.next_yield
                )
                if result.failed:
                    # Quarantined: no worker stamps to build the
                    # scheduler spans from; yield the failure as-is.
                    yield result
                else:
                    yield self._finalize(
                        result,
                        submitted=state.submit_times.pop(
                            state.next_yield, received_at
                        ),
                        received=received_at,
                        spec_bytes=state.spec_sizes.pop(
                            state.next_yield, 0
                        ),
                        result_bytes=result_bytes,
                        transport="pickle",
                    )
                state.next_yield += 1
