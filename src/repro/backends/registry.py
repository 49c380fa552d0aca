"""Name-keyed registry of sampler backends.

The engine (:mod:`repro.engine`), the experiment harness, the CLI and
the examples all select samplers through this registry, so adding a new
backend — say a DEM-direct sampler — is one :func:`register_backend`
call, not a code fork across five layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import repro.obs as obs
from repro.backends.protocol import BackendInfo, Sampler
from repro.circuit.circuit import Circuit
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.compiled_sampler import CompiledSampler


@dataclass(frozen=True)
class Backend:
    """A registered backend: capability info plus its compile entry.

    The factory takes the circuit; when ``info.reads_pass`` is set it
    also takes the circuit's symbolic pass, or ``None`` to run its own.
    """

    info: BackendInfo
    factory: Callable[..., Sampler]

    def compile(
        self, circuit: Circuit, symbolic: CompiledSampler | None = None
    ) -> Sampler:
        """Run this backend's one-time analysis; returns the sampler.

        ``symbolic`` is the circuit's Algorithm 1 pass if the caller
        already holds it; only backends whose ``info.reads_pass`` is set
        read it."""
        with obs.span("backend.compile", backend=self.info.name):
            if self.info.reads_pass:
                return self.factory(circuit, symbolic)
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
