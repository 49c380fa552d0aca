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
via process sentinels (and stalls via heartbeats), failed leases are
requeued with bounded exponential backoff, and a chunk that keeps
failing is quarantined as a structured failure result instead of
aborting the sweep.  :mod:`repro.engine.faults` injects deterministic
crashes into this machinery under test.

Workers keep a process-global :class:`~repro.engine.cache.SamplerCache`;
the first chunk of a circuit a worker sees pays Algorithm 1's
Initialization (plus DEM extraction and decoder construction), every
later chunk is pure Eq. 4 sampling + decoding.  A pooled runner can
also *warm* that cache up front — :meth:`ChunkRunner.warm` sends one
"compile this fingerprint" task to each worker over its own pipe (and
re-warms replacement workers after a crash), so ``backend.compile``
runs once per worker per circuit before the first real chunk instead
of serializing into it.

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
from repro.decoders.metrics import count_logical_errors
from repro.engine import faults
from repro.engine.cache import cached_dem, cached_sampler, shared_cache
from repro.engine.supervise import SupervisedPool
from repro.engine.tasks import Task
from repro.rng import chunk_generator

#: Hard cap on the exponential retry backoff, whatever the attempt count.
_MAX_BACKOFF_SECONDS = 30.0

#: How long a warm broadcast waits for every worker's ack; generous
#: because it covers each worker's full compile, but bounded so a
#: wedged worker cannot stall collection forever (an unwarmed worker
#: just pays its compile on its first chunk).
_WARM_TIMEOUT_SECONDS = 60.0

#: Base supervisor poll tick: the longest the scheduler sleeps when no
#: worker message, lease deadline or retry timer is nearer.
_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class ChunkSpec:
    """One self-contained unit of sampling + decoding work.

    ``attempt`` counts prior failed executions of this chunk (0 on the
    first try).  It exists for observability and fault-plan matching
    only — the RNG seed derives from ``(base_seed, task_entropy,
    chunk_index)`` alone, so every attempt replays identical shots.
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


@dataclass(frozen=True)
class ChunkResult:
    """Counts streamed back from a worker for one chunk.

    ``started_at``/``finished_at`` are the worker's ``perf_counter``
    stamps (comparable with the parent's on one machine; their
    difference is the chunk's in-worker time) and ``pid`` the process
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
    :mod:`repro.obs` telemetry back to the parent (wire tuples; the
    runner absorbs them and strips both before yielding).
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
    task: Task, base_seed: int, chunk_shots: int
) -> list[ChunkSpec]:
    """Split ``task``'s budget into deterministic chunk specs.

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
            )
        )
        remaining -= shots
        index += 1
    return specs


def _circuit_loader(spec: ChunkSpec):
    """Loads the spec's circuit, parsing its text at most once per
    process, and only when an artifact build actually needs it."""
    from repro.circuit.circuit import Circuit

    return lambda: shared_cache().get_or_build(
        ("circuit", spec.fingerprint),
        lambda: Circuit.from_text(spec.circuit_text),
    )


def _cached_decoder(spec: ChunkSpec, circuit):
    from repro.decoders import compile_decoder

    # spec.decoder is already canonical (Task resolves aliases), so one
    # compiled decoder per (circuit, decoder) serves every alias.
    return shared_cache().get_or_build(
        ("decoder", spec.fingerprint, spec.decoder),
        lambda: compile_decoder(
            cached_dem(circuit, spec.fingerprint, spec.sampler), spec.decoder
        ),
    )


def run_chunk(spec: ChunkSpec) -> ChunkResult:
    """Sample + decode one chunk (runs in a worker or in-process).

    Reproducible in isolation: the RNG is seeded purely from the spec's
    ``(base_seed, task_entropy, chunk_index)`` triple — never from the
    attempt number, so a retried chunk replays the same shots.

    One path for every sampler and decoder: one
    ``sample_detectors_packed`` call, then (unless the decoder is
    ``none``) :func:`~repro.decoders.metrics.count_logical_errors` over
    ``decode_batch_packed``.  Decoders that are not packed-native
    answer that through the registry's pack-adapter.  Counts are
    bitwise those of the unpacked pipeline: the packed and unpacked
    views of one seed are the same sample, and packed predictions are
    the unpacked ones, packed.
    """
    started = time.perf_counter()
    pid = os.getpid()
    cache = shared_cache()
    with obs.span(
        "chunk",
        task=spec.task_id,
        chunk=spec.chunk_index,
        shots=spec.shots,
        sampler=spec.sampler,
        decoder=spec.decoder,
    ) as chunk_sp:
        if obs.is_tracing():
            sampler_key = ("sampler", spec.fingerprint, spec.sampler)
            chunk_sp.set(
                sampler_cache="hit" if sampler_key in cache else "miss"
            )
        circuit = _circuit_loader(spec)
        sampler = cached_sampler(circuit, spec.fingerprint, spec.sampler)
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
        if spec.decoder == "none":
            errors = count_logical_errors(None, detectors, observables)
        else:
            if obs.is_tracing():
                decoder_key = ("decoder", spec.fingerprint, spec.decoder)
                chunk_sp.set(
                    decoder_cache="hit" if decoder_key in cache else "miss"
                )
            decoder = _cached_decoder(spec, circuit)
            faults.on_decode(spec.chunk_index, spec.attempt, _IN_WORKER)
            with obs.span("decode", chunk=spec.chunk_index):
                errors = count_logical_errors(
                    decoder, detectors, observables
                )
        chunk_sp.set(errors=errors)
    finished = time.perf_counter()
    if obs.is_metrics():
        worker = str(pid)
        obs.counter("repro_chunks_total", pid=worker).inc()
        obs.counter("repro_shots_total", pid=worker).inc(spec.shots)
        obs.counter("repro_errors_total", pid=worker).inc(errors)
        obs.histogram("repro_chunk_seconds", pid=worker).observe(
            finished - started
        )
    return ChunkResult(
        task_id=spec.task_id,
        chunk_index=spec.chunk_index,
        shots=spec.shots,
        errors=errors,
        started_at=started,
        finished_at=finished,
        pid=pid,
        attempt=spec.attempt,
        # Piggyback buffered telemetry only when running in a pool
        # worker: in-process runs already share the parent's buffers,
        # and shipping+merging there would double-count every metric.
        spans=(
            obs.drain_wire_spans()
            if _IN_WORKER and obs.is_tracing()
            else ()
        ),
        metrics=(
            obs.flush_wire() if _IN_WORKER and obs.is_metrics() else ()
        ),
    )


_IN_WORKER = False


def enter_worker(config) -> None:
    """Worker initializer: adopt the parent's telemetry flags and mark
    this process as a worker so ``run_chunk`` ships its telemetry back
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


def _warm_cache(spec: ChunkSpec) -> None:
    """Build this worker's cached artifacts for one (circuit, sampler,
    decoder) triple — the exact keys ``run_chunk`` will hit."""
    circuit = _circuit_loader(spec)
    cached_sampler(circuit, spec.fingerprint, spec.sampler)
    if spec.decoder != "none":
        _cached_decoder(spec, circuit)


def warm_in_worker(payload) -> tuple:
    """Warm-task target, called from the supervised worker loop.

    Compiles the payload's artifacts into this worker's process cache
    and returns ``(pid, spans, metrics)`` so the parent can absorb the
    compile telemetry immediately.  No barrier is needed: each worker
    receives its warm task over its own pipe, so distribution is by
    construction — ``workers`` warm tasks land on ``workers`` distinct
    processes.
    """
    with obs.span(
        "warm",
        fingerprint=payload.fingerprint,
        sampler=payload.sampler,
        decoder=payload.decoder,
    ):
        _warm_cache(payload)
    return (
        os.getpid(),
        obs.drain_wire_spans() if _IN_WORKER and obs.is_tracing() else (),
        obs.flush_wire() if _IN_WORKER and obs.is_metrics() else (),
    )


def warm_spec(task: Task, base_seed: int) -> ChunkSpec:
    """A zero-shot template spec for :meth:`ChunkRunner.warm`."""
    return ChunkSpec(
        task_id=task.strong_id(),
        fingerprint=task.circuit_fingerprint(),
        circuit_text=task.circuit_text(),
        decoder=task.decoder,
        sampler=task.sampler,
        chunk_index=0,
        shots=0,
        base_seed=base_seed,
        task_entropy=task.seed_entropy(),
    )


def execute_chunk(spec: ChunkSpec) -> ChunkResult:
    """Worker-side execution of one leased chunk: fire the chunk-start
    fault hooks, then run the chunk."""
    faults.on_chunk_start(spec.chunk_index, spec.attempt, _IN_WORKER)
    return run_chunk(spec)


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
    delayed: list = field(default_factory=list)  # (ready_monotonic, index)
    leases: dict[int, _Lease] = field(default_factory=dict)
    reorder: dict = field(default_factory=dict)
    submit_times: dict[int, float] = field(default_factory=dict)
    spec_sizes: dict[int, int] = field(default_factory=dict)
    next_submit: int = 0
    next_yield: int = 0
    exhausted: bool = False

    def live(self) -> int:
        """Chunks admitted but not yet yielded — the window occupancy."""
        return (
            len(self.pending)
            + len(self.delayed)
            + len(self.leases)
            + len(self.reorder)
        )


class ChunkRunner:
    """Executes chunk specs, in-process (``workers <= 1``) or on a
    supervised worker pool.  Context-managed so the workers are always
    reclaimed::

        with ChunkRunner(workers=4) as runner:
            for result in runner.run(specs):
                ...

    Pooled chunks travel as pickled :class:`ChunkSpec`s over each
    worker's pipe and come back as pickled :class:`ChunkResult`s.

    Fault tolerance: each dispatched chunk is a *lease* on a specific
    worker.  A worker death (sentinel), a stalled heartbeat (opt-in via
    ``heartbeat_timeout_seconds``) or an expired lease
    (``chunk_timeout_seconds``) requeues the worker's leased chunks
    with exponential backoff (``retry_backoff * 2**attempt``, capped)
    and replenishes the pool; a chunk failing more than
    ``max_chunk_retries`` times is *quarantined* — yielded as a
    ``failed`` :class:`ChunkResult` instead of aborting the sweep.
    Replays are bitwise identical by the derived-seed scheme, so none
    of this can change counts.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        max_chunk_retries: int = 2,
        chunk_timeout_seconds: float | None = None,
        retry_backoff: float = 0.1,
        heartbeat_interval_seconds: float = 0.5,
        heartbeat_timeout_seconds: float | None = None,
        fault_plan: "faults.FaultPlan | str | None" = None,
    ):
        self.workers = max(1, int(workers))
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if chunk_timeout_seconds is not None and chunk_timeout_seconds <= 0:
            raise ValueError("chunk_timeout_seconds must be positive")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        self.max_chunk_retries = int(max_chunk_retries)
        self.chunk_timeout_seconds = chunk_timeout_seconds
        self.retry_backoff = float(retry_backoff)
        self.heartbeat_interval_seconds = heartbeat_interval_seconds
        self.heartbeat_timeout_seconds = heartbeat_timeout_seconds
        self.fault_plan = fault_plan
        self._pool: SupervisedPool | None = None
        # key -> template spec, kept so replacement workers spawned
        # after a crash can be re-warmed with the same payloads.
        self._warmed: dict[tuple[str, str, str], ChunkSpec] = {}
        self._run_token = 0

    def __enter__(self) -> "ChunkRunner":
        if self.workers > 1:
            self._pool = SupervisedPool(
                self.workers,
                wire_config=obs.wire_config(),
                fault_plan=faults.resolve_plan(self.fault_plan),
                heartbeat_interval=self.heartbeat_interval_seconds,
            )
            self._pool.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        try:
            if self._pool is not None:
                # Clean shutdown waits (bounded) for in-flight chunks so
                # forked children flush coverage data; the exception
                # path terminates immediately.
                self._pool.stop(graceful=exc_type is None)
                self._pool = None
        finally:
            self._warmed.clear()

    @property
    def pooled(self) -> bool:
        """Whether chunks run on a worker pool (else in-process)."""
        return self._pool is not None

    def warm(self, spec: ChunkSpec) -> bool:
        """Send "compile this fingerprint" to every pool worker.

        Each worker builds the spec's circuit, sampler and (non-none)
        decoder into its process cache, so ``backend.compile`` runs
        once per worker per circuit *before* chunks flow instead of
        serializing into each worker's first chunk.  Dedup-keyed by
        ``(fingerprint, sampler, decoder)``; a no-op in-process (the
        serial path compiles lazily, once, anyway).  Returns whether a
        broadcast actually ran.  The workers' compile telemetry is
        merged into the parent's buffers immediately, not deferred to
        their first chunk.  The template is retained so a replacement
        worker spawned after a crash is re-warmed before it takes
        leases.
        """
        key = (spec.fingerprint, spec.sampler, spec.decoder)
        if self._pool is None or key in self._warmed:
            return False
        self._warmed[key] = spec
        with obs.span(
            "warm.broadcast",
            fingerprint=spec.fingerprint,
            sampler=spec.sampler,
            decoder=spec.decoder,
            workers=self.workers,
        ):
            sent = [
                slot
                for slot in self._pool.live_slots()
                if self._pool.send(slot, ("warm", spec))
            ]
            acks = self._pool.drain_warm_acks(
                sent, time.monotonic() + _WARM_TIMEOUT_SECONDS
            )
            for _slot in sorted(acks):
                _pid, spans, metrics = acks[_slot]
                if spans:
                    obs.absorb_spans(spans)
                if metrics:
                    obs.merge_wire(metrics)
        if obs.is_metrics():
            obs.counter("repro_warm_broadcasts_total").inc()
        return True

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

    def run(self, specs: Iterable[ChunkSpec]) -> Iterator[ChunkResult]:
        """Yield results in chunk-submission order.

        Pooled execution leases chunks to supervised workers with a
        bounded in-flight window of ``2 * workers`` and an
        order-restoring reorder buffer, so downstream aggregation sees
        the same deterministic stream serial execution produces while a
        slow chunk never barriers its peers.  The window doubles as the
        speculative-overrun bound the max-errors early stop relies on:
        a consumer that stops early wastes at most one window of work.

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
            for spec in specs:
                submitted = time.perf_counter()
                result = run_chunk(spec)
                # In-process there is no transport or queue; received
                # coincides with the worker finish stamp and the bytes
                # stay 0 so profiles never invent overhead.
                yield self._finalize(
                    result,
                    submitted=submitted,
                    received=result.finished_at,
                )
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
            """A lease failed: back off and retry, or quarantine."""
            failed_attempts = lease.attempt + 1
            if failed_attempts > self.max_chunk_retries:
                quarantine(index, failed_attempts, reason)
                return
            if measure:
                obs.counter("repro_chunk_retries_total").inc()
            state.attempts[index] = failed_attempts
            delay = min(
                self.retry_backoff * (2 ** lease.attempt),
                _MAX_BACKOFF_SECONDS,
            )
            state.delayed.append((time.monotonic() + delay, index))

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
            # Re-warm the replacement before it takes leases: its pipe
            # delivers these warm tasks ahead of any later chunk, so it
            # never pays a compile inside a leased chunk's deadline.
            for template in self._warmed.values():
                pool.send(slot, ("warm", template))
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
            elif kind == "warm":
                # Late warm ack from a re-warmed replacement worker.
                _, _pid, spans, metrics = payload
                if spans:
                    obs.absorb_spans(spans)
                if metrics:
                    obs.merge_wire(metrics)

        while True:
            # Ripen retry timers.
            if state.delayed:
                now = time.monotonic()
                ripe = sorted(
                    index for ready, index in state.delayed if ready <= now
                )
                if ripe:
                    state.delayed = [
                        entry for entry in state.delayed if entry[0] > now
                    ]
                    state.pending.extend(ripe)
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
            # lease deadline or retry timer needs.
            wait = _POLL_SECONDS
            now = time.monotonic()
            if state.delayed:
                wait = min(
                    wait, min(ready for ready, _ in state.delayed) - now
                )
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
            # Hung-worker detection (opt-in): a worker whose heartbeat
            # thread has gone silent is dead weight even without lease
            # deadlines.
            if self.heartbeat_timeout_seconds:
                for slot in pool.live_slots():
                    if (
                        pool.heartbeat_age(slot)
                        > self.heartbeat_timeout_seconds
                    ):
                        pool.kill(slot)
                        on_worker_down(slot)
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
