"""LRU memoization of per-circuit initialization work.

The paper's whole point is that Algorithm 1's Initialization is the
expensive part and Eq. 4 sampling is cheap; a collection run should
therefore pay initialization once per distinct circuit, not once per
chunk.  :class:`SamplerCache` memoizes any fingerprint-keyed artifact —
the symbolic pass, compiled samplers, frame simulators, decoders built
from extracted DEMs — with least-recently-used eviction so unbounded
sweeps cannot exhaust memory.

Each worker process owns one process-global cache (:func:`shared_cache`):
forked/spawned workers cannot share Python objects, but because chunks
of the same task always carry the same fingerprint, every worker pays
initialization at most once per distinct circuit it touches.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Callable, Hashable

import repro.obs as obs


def _key_kind(key: Hashable) -> str:
    """The artifact family of a cache key (circuit/pass/sampler/dem/decoder).

    Keys are ``(kind, fingerprint, ...)`` tuples by convention; the
    kind tags hit/miss metrics and build spans so per-artifact compile
    cost is attributable in profiles.
    """
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return "other"


class SamplerCache:
    """Fingerprint-keyed LRU cache with build-on-miss semantics."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get_or_build(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building and inserting it
        on a miss (evicting the least recently used entry if full).

        When :mod:`repro.obs` metrics are on, hits and misses count
        into ``repro_cache_{hits,misses}_total{kind,pid}``.  Each
        miss's build runs inside a ``cache.build.<kind>`` span, so its
        time lands in ``repro_stage_seconds_total`` — the per-worker
        compile column of ``repro collect --profile``.
        """
        if key in self._entries:
            self.hits += 1
            if obs.is_metrics():
                obs.counter(
                    "repro_cache_hits_total",
                    kind=_key_kind(key), pid=str(os.getpid()),
                ).inc()
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        kind = _key_kind(key)
        if obs.is_metrics():
            obs.counter(
                "repro_cache_misses_total", kind=kind, pid=str(os.getpid())
            ).inc()
        with obs.span(f"cache.build.{kind}"):
            value = build()
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return value

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s entry if there is one."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
        }


_SHARED: SamplerCache | None = None


def shared_cache() -> SamplerCache:
    """The process-global cache used by engine workers (one per process)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = SamplerCache()
    return _SHARED


def reset_shared_cache() -> None:
    """Drop the process-global cache (tests / memory pressure)."""
    global _SHARED
    _SHARED = None


# Artifact keys are spelled in this module only, so engine workers and
# CompiledCircuit handles always share entries.


def sampler_key(fingerprint: str, sampler: str) -> tuple:
    return ("sampler", fingerprint, sampler)


def decoder_key(fingerprint: str, decoder: str) -> tuple:
    return ("decoder", fingerprint, decoder)


def _loader(circuit) -> Callable[[], Any]:
    """``circuit`` itself may be a zero-argument loader, called only when
    a build misses (engine chunks parse their circuit text lazily)."""
    return circuit if callable(circuit) else lambda: circuit


def circuit_loader(text: str, fingerprint: str) -> Callable[[], Any]:
    """A loader that parses ``text`` at most once per process, and only
    when an artifact build actually needs it."""
    from repro.circuit.circuit import Circuit

    return lambda: shared_cache().get_or_build(
        ("circuit", fingerprint), lambda: Circuit.from_text(text)
    )


def cached_pass(circuit, fingerprint: str):
    """Algorithm 1's symbolic pass of ``circuit`` (its
    :class:`~repro.core.compiled_sampler.CompiledSampler`), built once
    per process under ``("pass", fingerprint)``.

    The one traversal every other artifact reads: it is the ``symbolic``
    sampler, its constant column is the frame samplers' reference
    record, and the DEM is read off its matrices.  Its own cache kind
    keeps ``kind="sampler"`` lookups at one per chunk.  Tasks whose
    sampler is not the pass drop it once it is spent (see
    :func:`_release_pass`).  ``circuit`` may be a loader (see
    :func:`_loader`)."""
    from repro.core import compile_sampler

    load = _loader(circuit)
    return shared_cache().get_or_build(
        ("pass", fingerprint), lambda: compile_sampler(load())
    )


def cached_sampler(
    circuit, fingerprint: str, sampler: str, *, builds_dem: bool = True
):
    """The compiled ``sampler`` backend of ``circuit`` (canonical name),
    built once per process under :func:`sampler_key`.  Backends that
    read the symbolic pass get :func:`cached_pass`'s.  ``builds_dem=False``
    says no DEM will follow (a task whose decoder is ``none``), so the
    pass is spent once the sampler is built (see :func:`_release_pass`).
    ``circuit`` may be a loader (see :func:`_loader`)."""
    from repro.backends import get_backend

    load = _loader(circuit)

    def build():
        backend = get_backend(sampler)
        if not backend.info.reads_pass:
            return backend.compile(load())
        return backend.compile(load(), cached_pass(load, fingerprint))

    return _build_then_release(
        sampler_key(fingerprint, sampler), build, fingerprint, sampler,
        builds_dem,
    )


def cached_dem(circuit, fingerprint: str, sampler: str):
    """The merged DEM of ``circuit``, built once per process under
    ``("dem", fingerprint)``, read off :func:`cached_pass` whatever the
    task's canonical ``sampler`` (so it is the same DEM, bit for bit,
    and no second pass runs).  ``circuit`` may be a loader (see
    :func:`_loader`).
    """
    from repro.dem import extract_dem

    return _build_then_release(
        ("dem", fingerprint),
        lambda: extract_dem(cached_pass(circuit, fingerprint)),
        fingerprint,
        sampler,
    )


def _build_then_release(
    key: tuple, build, fingerprint: str, sampler: str, builds_dem: bool = True
):
    """``get_or_build`` that runs :func:`_release_pass` only when this
    lookup built ``key``: a hit finds the pass already released or
    still needed, so it must not drop a pass that ``symbolic()`` has
    since rebuilt."""
    cache = shared_cache()
    built = key not in cache
    value = cache.get_or_build(key, build)
    if built:
        _release_pass(fingerprint, sampler, builds_dem)
    return value


def _release_pass(fingerprint: str, sampler: str, builds_dem: bool) -> None:
    """Drop the cached pass once a build completes what the task needs
    of it: its (``sampler``, DEM) pair, or the sampler alone when
    ``builds_dem`` is false (no decoder).

    A frame sampler keeps only the pass's constant column and the DEM
    its own arrays, so from then on the pass would hold memory (about
    2 MB on surface d=9, r=9: 40% of what the task's other artifacts
    hold) and an LRU slot for nothing.  A DEM wanted later reruns the
    pass and drops it again.  The ``symbolic`` sampler *is* the pass,
    so its tasks keep it."""
    cache = shared_cache()
    if (
        sampler != "symbolic"
        and (not builds_dem or ("dem", fingerprint) in cache)
        and sampler_key(fingerprint, sampler) in cache
    ):
        cache.discard(("pass", fingerprint))


def cached_decoder(circuit, fingerprint: str, sampler: str, decoder: str):
    """The compiled ``decoder`` (canonical name, so one per circuit
    serves every alias) over :func:`cached_dem`, built once per process.
    ``circuit`` may be a loader (see :func:`_loader`)."""
    from repro.decoders import compile_decoder

    return shared_cache().get_or_build(
        decoder_key(fingerprint, decoder),
        lambda: compile_decoder(
            cached_dem(circuit, fingerprint, sampler), decoder
        ),
    )

