"""LRU memoization of per-circuit initialization work.

The paper's whole point is that Algorithm 1's Initialization is the
expensive part and Eq. 4 sampling is cheap; a collection run should
therefore pay initialization once per distinct circuit, not once per
chunk.  :class:`SamplerCache` memoizes any fingerprint-keyed artifact —
compiled samplers, frame simulators, decoders built from extracted DEMs
— with least-recently-used eviction so unbounded sweeps cannot exhaust
memory.

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
    """The artifact family of a cache key (circuit/sampler/dem/decoder).

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


def cached_sampler(circuit, fingerprint: str, sampler: str):
    """The compiled ``sampler`` backend of ``circuit`` (canonical name),
    built once per process under :func:`sampler_key`.
    ``circuit`` may be a loader (see :func:`_loader`)."""
    from repro.backends import compile_backend

    load = _loader(circuit)
    return shared_cache().get_or_build(
        sampler_key(fingerprint, sampler),
        lambda: compile_backend(load(), sampler),
    )


def cached_dem(circuit, fingerprint: str, sampler: str):
    """The merged DEM of ``circuit``, built once per process under
    ``("dem", fingerprint)``.

    The DEM is read off Algorithm 1's compiled sampler.  When the
    task's canonical sampler is ``symbolic`` that sampler is the task's
    own cached one, so the symbolic pass runs once per circuit; any
    other sampler compiles it transiently, so it is freed once the DEM
    is built.  Either way the DEM is the same, bit for bit.  ``circuit``
    may be a loader (see :func:`_loader`).
    """
    from repro.dem import extract_dem

    def build():
        if sampler == "symbolic":
            return extract_dem(cached_sampler(circuit, fingerprint, sampler))
        return extract_dem(_loader(circuit)())

    return shared_cache().get_or_build(("dem", fingerprint), build)


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


def cached_symbolic(circuit, fingerprint: str):
    """The circuit's :class:`~repro.core.simulator.SymPhaseSimulator`
    (Algorithm 1's Initialization), built once per process under
    ``("symbolic-analysis", fingerprint)`` whatever the sampler backend."""
    from repro.core import SymPhaseSimulator

    return shared_cache().get_or_build(
        ("symbolic-analysis", fingerprint),
        lambda: SymPhaseSimulator.from_circuit(circuit),
    )
