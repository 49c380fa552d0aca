"""Supervised worker processes: pipes, crash detection, respawn.

This is the actor-style supervision layer under
:class:`~repro.engine.workers.ChunkRunner`.  Where the old executor
handed chunks to an opaque ``multiprocessing.Pool`` — whose
``imap_unordered`` hangs forever if a worker is SIGKILLed mid-chunk —
:class:`SupervisedPool` owns each worker :class:`multiprocessing.Process`
directly:

* **One duplex pipe per worker.**  The parent *leases* chunks to a
  specific worker over its pipe, so it always knows exactly which
  chunks a dead worker was holding — a crash fails only those leases,
  never the run.
* **One liveness signal.**  Every worker's process ``sentinel`` is
  polled together with its pipe in one :func:`multiprocessing.connection.wait`
  call, so a death wakes the supervisor immediately.  A *hung* worker —
  alive but stuck — is the scheduler's business: its lease deadline
  expires and :meth:`SupervisedPool.kill` takes it down.
* **Replenishment.**  :meth:`SupervisedPool.respawn` replaces a dead
  worker in place; the scheduler re-leases its chunks and the sweep
  continues.  The derived per-chunk seed scheme makes every replayed
  chunk bitwise identical, so recovery can never skew counts.

The worker main loop (:func:`worker_main`) is deliberately dumb: recv a
message (and any leases of the same run and task already queued behind
it), do the work, send one reply per lease.  All policy — retry budgets,
quarantine, lease deadlines — lives with the scheduler in
:mod:`repro.engine.workers`; all *mechanism* for keeping processes
alive lives here.  This split is the single-node version of the
scheduler/worker contract the ROADMAP's multi-node sharded collection
item needs: the messages crossing the pipe are already lease-shaped.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any

import repro.obs as obs
from repro.engine import faults

__all__ = ["SupervisedPool", "WorkerEvent", "worker_main"]

#: How long a graceful stop waits for workers to drain their queued
#: messages before escalating to terminate/kill.
_STOP_GRACE_SECONDS = 30.0


# -- worker side -------------------------------------------------------------


def worker_main(conn, wire_config: tuple, fault_plan) -> None:
    """A supervised worker: a recv/execute/send loop.

    Messages in: ``("chunk", token, index, payload)``, ``("stop",)``.
    Messages out: ``("result", token, index, ChunkResult)``,
    ``("error", token, index, message)``.

    On a chunk lease the worker also takes, without waiting, the leases
    of the same run already queued in its pipe that
    :func:`~repro.engine.workers.joins_batch` allows, and runs them as one
    :func:`~repro.engine.workers.execute_chunks` batch (one decode call);
    it still answers one message per lease.  A message that does not
    join the batch is handled next.

    A chunk that raises does **not** kill the worker: a failed batch
    re-runs its chunks one at a time, so only the failing chunk reports
    the error, and the loop continues — the parent decides whether to
    retry or quarantine.  Only a ``stop`` message, a closed pipe, or an
    actual process death ends the loop.
    """
    # Imported lazily: workers imports this module at top level, and
    # the late import also means a monkeypatched workers.run_chunks
    # (inherited under fork) is honored.
    from repro.engine import workers

    workers.enter_worker(wire_config)
    faults.install(fault_plan)
    held = None  # read while gathering a batch; handled next
    try:
        while True:
            message, held = held, None
            if message is None:
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
            kind = message[0]
            if kind == "stop":
                break
            if kind != "chunk":
                continue
            batch = [message]
            try:
                while held is None and conn.poll(0):
                    queued = conn.recv()
                    if (
                        queued[0] == "chunk"
                        and queued[1] == message[1]
                        and workers.joins_batch(
                            [lease[3] for lease in batch], queued[3]
                        )
                    ):
                        batch.append(queued)
                    else:
                        held = queued
            except (EOFError, OSError):
                held = ("stop",)  # the parent is gone: end after the batch
            _execute(conn, workers, batch)
    finally:
        with contextlib.suppress(OSError):
            conn.close()


def _execute(conn, workers, batch: list[tuple]) -> None:
    """Run a batch of ``("chunk", token, index, spec)`` leases and send
    one reply per lease; a failed batch of several re-runs its leases
    one at a time."""
    try:
        results = workers.execute_chunks([message[3] for message in batch])
    except Exception as exc:
        if len(batch) > 1:
            for message in batch:
                _execute(conn, workers, [message])
            return
        _, token, index, _ = batch[0]
        _send(conn, ("error", token, index, f"{type(exc).__name__}: {exc}"))
        return
    for (_, token, index, _), result in zip(batch, results):
        _send(conn, ("result", token, index, result))


def _send(conn, message: tuple) -> None:
    # A send can only fail when the parent is gone (closed its end or
    # died); the next recv then raises EOFError and ends the loop, so
    # suppressing here never hides a live failure.
    with contextlib.suppress(OSError, ValueError):
        conn.send(message)


# -- parent side -------------------------------------------------------------


@dataclass
class WorkerEvent:
    """One supervision event: a worker message, or a worker death."""

    kind: str  # "message" | "died"
    slot: int
    pid: int
    payload: tuple = ()


class _Handle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "conn", "slot", "dead")

    def __init__(self, process, conn, slot: int):
        self.process = process
        self.conn = conn
        self.slot = slot
        self.dead = False


class SupervisedPool:
    """A fixed-size set of supervised worker processes.

    Mechanism only: spawn/respawn, targeted sends, event polling
    (messages + deaths in one wait), shutdown.  The chunk scheduler in
    :mod:`repro.engine.workers` layers leases, retries and quarantine
    on top.
    """

    def __init__(
        self,
        workers: int,
        wire_config: tuple | None = None,
        fault_plan=faults.NOOP,
    ):
        self.workers = workers
        self._wire_config = (
            wire_config if wire_config is not None else obs.wire_config()
        )
        self._fault_plan = fault_plan
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._handles: list[_Handle | None] = [None] * workers

    def start(self) -> None:
        for slot in range(self.workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> _Handle:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_conn, self._wire_config, self._fault_plan),
            daemon=True,
            name=f"repro-worker-{slot}",
        )
        process.start()
        child_conn.close()
        handle = _Handle(process, parent_conn, slot)
        self._handles[slot] = handle
        return handle

    # -- liveness --------------------------------------------------------

    def live_slots(self) -> list[int]:
        return [
            h.slot for h in self._handles if h is not None and not h.dead
        ]

    def kill(self, slot: int) -> None:
        """Forcibly take a worker down (hung / lease-expired)."""
        handle = self._handles[slot]
        if handle is None or handle.dead:
            return
        handle.process.terminate()
        handle.process.join(1.0)
        if handle.process.is_alive():  # pragma: no cover - stuck in C
            handle.process.kill()
            handle.process.join(1.0)
        self._reap(handle)

    def respawn(self, slot: int) -> int:
        """Replace a dead worker in place; returns the new pid."""
        handle = self._handles[slot]
        if handle is not None and not handle.dead:
            self.kill(slot)
        return self._spawn(slot).process.pid or 0

    def _reap(self, handle: _Handle) -> None:
        handle.dead = True
        with contextlib.suppress(OSError):
            handle.conn.close()
        # join() on an already-exited process only collects the zombie.
        handle.process.join(0.1)

    # -- messaging -------------------------------------------------------

    def send(self, slot: int, message: tuple) -> bool:
        """Send to one worker; ``False`` means it is (now) dead."""
        handle = self._handles[slot]
        if handle is None or handle.dead:
            return False
        try:
            handle.conn.send(message)
        except (OSError, ValueError, BrokenPipeError):
            self._reap(handle)
            return False
        return True

    def poll(self, timeout: float) -> list[WorkerEvent]:
        """Wait up to ``timeout`` for worker messages and/or deaths.

        One ``connection.wait`` over every live worker's pipe *and*
        process sentinel: a result wakes us, and so does a SIGKILL.  A
        recv that fails mid-message (worker died while sending) is a
        death, not an error — the chunk it was carrying stays leased
        and the scheduler requeues it.
        """
        live = [h for h in self._handles if h is not None and not h.dead]
        if not live:
            return []
        waitables: list[Any] = []
        for handle in live:
            waitables.append(handle.conn)
            waitables.append(handle.process.sentinel)
        ready = set(connection.wait(waitables, timeout))
        events: list[WorkerEvent] = []
        for handle in live:
            pid = handle.process.pid or 0
            died = False
            if handle.conn in ready:
                while True:
                    try:
                        if not handle.conn.poll():
                            break
                        message = handle.conn.recv()
                    except Exception:
                        # EOF, a torn pickle from a mid-send death, or
                        # a closed pipe: all mean this worker is gone.
                        died = True
                        break
                    events.append(
                        WorkerEvent("message", handle.slot, pid, message)
                    )
            if not died and handle.process.sentinel in ready:
                died = not handle.process.is_alive()
            if died:
                self._reap(handle)
                events.append(WorkerEvent("died", handle.slot, pid))
        return events

    # -- shutdown --------------------------------------------------------

    def stop(self, graceful: bool = True) -> None:
        """Stop every worker.

        Graceful: send ``stop`` sentinels and give workers a bounded
        grace window to drain queued messages (so a clean exit never
        kills a worker mid-chunk), then escalate.  Non-graceful
        (exception path): terminate immediately.
        """
        handles = [h for h in self._handles if h is not None]
        if graceful:
            for handle in handles:
                if not handle.dead:
                    self.send(handle.slot, ("stop",))
            deadline = time.monotonic() + _STOP_GRACE_SECONDS
            for handle in handles:
                if handle.dead:
                    continue
                handle.process.join(max(0.0, deadline - time.monotonic()))
        for handle in handles:
            if handle.process.is_alive():
                handle.process.terminate()
        for handle in handles:
            if handle.process.is_alive():
                handle.process.join(1.0)
            if handle.process.is_alive():  # pragma: no cover - stuck in C
                handle.process.kill()
                handle.process.join(1.0)
            with contextlib.suppress(OSError):
                handle.conn.close()
        self._handles = [None] * self.workers
