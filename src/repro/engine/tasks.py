"""Declarative collection tasks.

A :class:`Task` bundles everything the engine needs to estimate one
logical-error-rate data point: a noisy circuit, the decoder to run on
its detector samples, the sampler backend, a shot budget with an
optional error-count early-stop, and free-form metadata (code family,
distance, physical error rate, ...) that rides along into the result
store.

Identity is content-based: :meth:`Task.strong_id` hashes the circuit's
canonical fingerprint together with the decoder and sampler choice, the
sampler's RNG stream token and the metadata, so the same sweep
regenerated by a different process maps onto the same result-store rows,
and circuits that flatten to the same execution stream share one
:class:`~repro.engine.cache.SamplerCache` entry.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.backends import available_backends, canonical_name, get_backend
from repro.circuit.circuit import Circuit
from repro.decoders import registry as decoder_registry
from repro.rng import entropy_from_hex

# "none" skips decoding entirely (raw observable flips count as errors);
# every other decoder name resolves through repro.decoders.registry.
NO_DECODER = "none"


def resolve_decoder_name(decoder: str) -> str:
    """Canonical registry spelling of a decoder name (``NO_DECODER``
    passes through), with a descriptive error for unknown names.  The
    one validation :class:`Task` and ``Circuit.compile()`` share."""
    if decoder == NO_DECODER:
        return decoder
    try:
        return decoder_registry.canonical_name(decoder)
    except KeyError:
        raise ValueError(
            f"decoder must be {NO_DECODER!r} or a registered "
            f"decoder {decoder_registry.available_decoders()}, "
            f"got {decoder!r}"
        ) from None


def resolve_sampler_name(sampler: str) -> str:
    """Canonical registry spelling of a sampler backend name, with a
    descriptive error for unknown names."""
    try:
        return canonical_name(sampler)
    except KeyError:
        raise ValueError(
            f"sampler must be a registered backend "
            f"{available_backends()}, got {sampler!r}"
        ) from None


@dataclass
class Task:
    """One Monte-Carlo collection job: circuit x decoder x shot budget.

    ``decoder``: any registered :mod:`repro.decoders` name or alias
    (``"matching"``/``"mwpm"``, ``"compiled-matching"``, ``"lookup"``,
    ...) applied to the DEM extracted from the circuit, or ``"none"``
    for no decoding (an "error" is then any raw observable flip).
    Resolved to its canonical name at construction, like ``sampler``.

    ``sampler``: any registered :mod:`repro.backends` name or alias
    (``"symbolic"``/``"symphase"``, ``"frame"``, ``"frame-interp"``,
    ``"tableau"``, ...).  Resolved to its canonical name at
    construction so aliases share one ``strong_id`` and one
    :class:`~repro.engine.cache.SamplerCache` entry.

    ``max_errors``: stop collecting once this many logical errors have
    accumulated (the statistics have converged); ``None`` runs the full
    ``max_shots`` budget.
    """

    circuit: Circuit
    decoder: str = "matching"
    sampler: str = "symbolic"
    max_shots: int = 10_000
    max_errors: int | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.decoder = resolve_decoder_name(self.decoder)
        self.sampler = resolve_sampler_name(self.sampler)
        if self.max_shots < 1:
            raise ValueError("max_shots must be positive")
        if self.max_errors is not None and self.max_errors < 1:
            raise ValueError("max_errors must be positive when set")
        self._fingerprint: str | None = None
        self._text: str | None = None
        self._strong_id: str | None = None

    def circuit_fingerprint(self) -> str:
        """Cached circuit fingerprint.

        Computed once per Task (the flatten + hash is O(circuit size)
        and identity is queried several times per collection).  Do not
        mutate ``circuit`` after constructing the Task.
        """
        if self._fingerprint is None:
            self._fingerprint = self.circuit.fingerprint()
        return self._fingerprint

    def circuit_text(self) -> str:
        """Cached circuit text, the form chunk specs carry to workers
        (cached like :meth:`circuit_fingerprint`)."""
        if self._text is None:
            self._text = self.circuit.to_text()
        return self._text

    def strong_id(self) -> str:
        """Content hash identifying this (circuit, decoder, noise) row.

        Deliberately excludes the shot budget: budgets describe *how
        long* to collect, not *what* is being measured, so resuming with
        a different budget still finds the row.  Includes the sampler's
        ``rng_stream`` token, so rows drawn under an older RNG
        consumption scheme are never resumed into.
        """
        if self._strong_id is not None:
            return self._strong_id
        payload = json.dumps(
            {
                "circuit": self.circuit_fingerprint(),
                "decoder": self.decoder,
                "sampler": self.sampler,
                "rng_stream": get_backend(self.sampler).info.rng_stream,
                "metadata": self.metadata,
            },
            sort_keys=True,
        )
        self._strong_id = hashlib.sha256(payload.encode()).hexdigest()
        return self._strong_id

    def seed_entropy(self) -> int:
        """The task-level entropy word of the derived-seed scheme
        (see :mod:`repro.rng`)."""
        return entropy_from_hex(self.circuit_fingerprint())

    def describe(self) -> str:
        """Short human label: metadata if present, else the fingerprint."""
        if self.metadata:
            return ",".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        return self.circuit_fingerprint()[:12]
