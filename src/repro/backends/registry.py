"""Name-keyed registry of sampler backends.

The engine (:mod:`repro.engine`), the experiment harness, the CLI and
the examples all select samplers through this registry, so adding a new
backend — say a DEM-direct sampler — is one :func:`register_backend`
call, not a code fork across five layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import repro.obs as obs
from repro.backends.protocol import BackendInfo, Sampler
from repro.circuit.circuit import Circuit
from repro.registry import Registry


@dataclass(frozen=True)
class Backend:
    """A registered backend: capability info plus its compile entry."""

    info: BackendInfo
    factory: Callable[[Circuit], Sampler]

    def compile(self, circuit: Circuit) -> Sampler:
        """Run this backend's one-time analysis; returns the sampler."""
        with obs.span("backend.compile", backend=self.info.name):
            return self.factory(circuit)


_BACKENDS: Registry[Backend] = Registry("backend", "sampler backend")


def register_backend(
    info: BackendInfo,
    factory: Callable[[Circuit], Sampler],
    aliases: Iterable[str] = (),
) -> Backend:
    """Register a backend under ``info.name`` (plus optional aliases).

    Re-registering a name replaces it (tests swap in instrumented
    backends); aliases may not shadow a canonical name.
    """
    return _BACKENDS.register(
        info.name, Backend(info=info, factory=factory), aliases
    )


#: Name or alias -> canonical name (``KeyError`` naming the known
#: backends on an unknown name).
canonical_name = _BACKENDS.canonical_name
#: Look up a backend by canonical name or alias.
get_backend = _BACKENDS.get
#: Sorted canonical names of every registered backend.
available_backends = _BACKENDS.available
#: Canonical names plus aliases (for CLI ``choices=``).
backend_choices = _BACKENDS.choices


def compile_backend(circuit: Circuit, backend: str = "frame") -> Sampler:
    """Compile ``circuit`` with the named backend; returns its sampler."""
    return get_backend(backend).compile(circuit)
