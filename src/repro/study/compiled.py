"""One handle from circuit to logical error rate.

:class:`CompiledCircuit` is the object the paper's workflow wants:
``Circuit.compile()`` names a sampler backend and a decoder once, and
everything behind that choice — the compiled backend sampler, the
merged detector error model, the compiled decoder — is built lazily on
first use and memoized through the engine's fingerprint-keyed
:class:`~repro.engine.cache.SamplerCache`.  Two handles over equal
circuits (same canonical text) therefore share one compiled sampler,
and a handle whose artifacts were built interactively shares them with
any in-process engine run that touches the same circuit, because both
sides use the same cache keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.cache import cached_decoder, cached_dem, cached_pass, cached_sampler
from repro.engine.options import ExecutionOptions
from repro.engine.tasks import (
    NO_DECODER,
    Task,
    resolve_decoder_name,
    resolve_sampler_name,
)
from repro.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import Circuit
    from repro.engine.collector import TaskStats


class CompiledCircuit:
    """A circuit bound to a sampler backend and a decoder, compiled once.

    Construction is cheap: it only resolves the ``sampler`` and
    ``decoder`` names to their canonical registry spellings (aliases
    like ``"symphase"`` or ``"mwpm"`` share one cache entry and one
    ``strong_id`` with their canonical names).  The heavy artifacts are
    built on first use:

    * :attr:`sampler` — the compiled backend sampler,
    * :attr:`dem` — the merged detector error model,
    * :attr:`decoder` — the compiled decoder over that DEM,

    each memoized in the process-global sampler cache under the same
    keys the engine's workers use.

    Every sampling method accepts ``seed_or_rng``: ``None`` (fresh OS
    entropy), an int seed, a ``SeedSequence``, or a ``Generator``.
    """

    def __init__(
        self,
        circuit: "Circuit",
        *,
        sampler: str = "symbolic",
        decoder: str = "compiled-matching",
    ):
        self.circuit = circuit
        self.sampler_name = resolve_sampler_name(sampler)
        self.decoder_name = resolve_decoder_name(decoder)
        self._fingerprint: str | None = None
        self._text: str | None = None

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.fingerprint[:12]}, "
            f"sampler={self.sampler_name!r}, decoder={self.decoder_name!r})"
        )

    # -- lazily built, cache-shared artifacts ----------------------------

    @property
    def fingerprint(self) -> str:
        """The circuit's content fingerprint (cached; do not mutate the
        circuit after compiling it)."""
        if self._fingerprint is None:
            self._fingerprint = self.circuit.fingerprint()
        return self._fingerprint

    @property
    def text(self) -> str:
        """The circuit's text, the form chunk specs carry to workers
        (cached like :attr:`fingerprint`)."""
        if self._text is None:
            self._text = self.circuit.to_text()
        return self._text

    @property
    def sampler(self):
        """The compiled backend sampler (built on first access)."""
        return cached_sampler(
            self.circuit, self.fingerprint, self.sampler_name,
            builds_dem=self.decoder_name != NO_DECODER,
        )

    def symbolic(self):
        """The circuit's symbolic pass (Algorithm 1's Initialization).

        The :class:`~repro.core.compiled_sampler.CompiledSampler` the
        engine caches once per circuit, whatever the sampler backend:
        ``measurement_expression(k)`` reads measurement ``k``'s
        expression off its matrix ``M``.
        """
        return cached_pass(self.circuit, self.fingerprint)

    @property
    def dem(self):
        """The merged detector error model (built on first access; read
        off the circuit's one cached symbolic pass, whatever the
        sampler)."""
        return cached_dem(self.circuit, self.fingerprint, self.sampler_name)

    @property
    def decoder(self):
        """The compiled decoder over :attr:`dem` (built on first access)."""
        if self.decoder_name == NO_DECODER:
            raise ValueError(
                "this circuit was compiled with decoder='none'; "
                "re-compile with a registered decoder to decode"
            )
        return cached_decoder(
            self.circuit, self.fingerprint, self.sampler_name,
            self.decoder_name,
        )

    # -- sampling --------------------------------------------------------

    def sample(self, shots: int, seed_or_rng=None) -> np.ndarray:
        """Measurement records, one row per shot."""
        return self.sampler.sample(shots, as_generator(seed_or_rng))

    def detect(self, shots: int, seed_or_rng=None):
        """``(detectors, observables)`` sample arrays, one row per shot."""
        return self.sampler.sample_detectors(shots, as_generator(seed_or_rng))

    def detect_packed(self, shots: int, seed_or_rng=None):
        """``(detectors, observables)`` in the packed wire format.

        Shot-major uint64 rows — ``(shots, words_for(n))`` per side,
        little-endian bit order, padding bits zero.  For any seed this
        is bit-for-bit the packed view of :meth:`detect`: frame backends
        produce it natively without ever materializing uint8 matrices,
        the others pack an unpacked sample through the backends'
        pack-adapter.
        """
        return self.sampler.sample_detectors_packed(
            shots, as_generator(seed_or_rng)
        )

    def decode_packed(self, shots: int, seed_or_rng=None):
        """Sample and decode one batch entirely in the packed domain.

        Returns packed ``(predictions, observables)``, with every
        decoder: ``compiled-matching`` decodes packed rows natively,
        the reference decoders through the registry's pack-adapter.
        Predictions are bitwise identical to packing :meth:`decode`'s
        output.
        """
        detectors, observables = self.detect_packed(shots, seed_or_rng)
        return self.decoder.decode_batch_packed(detectors), observables

    def decode(self, shots: int, seed_or_rng=None):
        """Sample ``shots`` detector rows and decode them in one batch.

        Returns ``(predictions, observables)``: the decoder's predicted
        observable flips next to the true ones.  Bitwise identical to
        running the manual pipeline — ``sample_detectors`` on the same
        backend and generator, ``extract_dem``, ``compile_decoder``,
        ``decode_batch`` — because that is exactly what it does.
        """
        detectors, observables = self.detect(shots, seed_or_rng)
        return self.decoder.decode_batch(detectors), observables

    # -- engine integration ----------------------------------------------

    def task(
        self,
        *,
        max_shots: int = 10_000,
        max_errors: int | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> Task:
        """An engine :class:`~repro.engine.tasks.Task` for this handle.

        The task reuses the handle's cached fingerprint and text, so the
        circuit is hashed and serialised at most once per handle, not
        once per task.
        """
        task = Task(
            self.circuit,
            decoder=self.decoder_name,
            sampler=self.sampler_name,
            max_shots=max_shots,
            max_errors=max_errors,
            metadata=dict(metadata or {}),
        )
        task._fingerprint = self.fingerprint
        task._text = self.text
        return task

    def collect(
        self,
        options: ExecutionOptions | None = None,
        *,
        max_shots: int = 10_000,
        max_errors: int | None = None,
        metadata: dict[str, Any] | None = None,
        **overrides: Any,
    ) -> "TaskStats":
        """Estimate this circuit's logical error rate through the engine.

        The shot budget streams through the collection engine in
        derived-seed chunks (optionally across ``options.workers``
        processes); counts are independent of the worker count.  Extra
        keyword ``overrides`` patch ``options`` (e.g. ``workers=4``).
        """
        import repro.obs as obs
        from repro.engine.collector import collect as engine_collect

        options = ExecutionOptions.resolve(options, **overrides)
        task = self.task(
            max_shots=max_shots, max_errors=max_errors, metadata=metadata
        )
        with obs.span(
            "circuit.collect",
            sampler=self.sampler_name,
            decoder=self.decoder_name,
            max_shots=max_shots,
        ):
            return engine_collect([task], options=options)[0]

    def logical_error_rate(
        self, shots: int, seed=None, **overrides: Any
    ) -> float:
        """Fraction of ``shots`` where decoding fails to predict the
        observable flips.

        With an int seed (or ``None``), the budget runs through the
        collection engine's derived-seed chunking, so the counts are
        bitwise identical to ``collect([self.task(...)],
        base_seed=seed)`` — interactive estimates and batch sweeps agree
        shot for shot.  Keyword ``overrides`` (``workers``,
        ``chunk_shots``, ``max_errors``, ...) patch the execution
        options through :meth:`ExecutionOptions.resolve`, as on every
        other entry point.  With an explicit ``Generator`` or
        ``SeedSequence`` (whose state cannot be threaded into
        independent per-chunk streams), the shots are drawn as one
        in-process batch from that stream instead, and overrides are
        rejected.

        With ``decoder="none"`` there is no decoding: an "error" is any
        raw observable flip (the engine's ``none`` semantics), on both
        paths.
        """
        if isinstance(seed, (np.random.Generator, np.random.SeedSequence)):
            if overrides:
                raise ValueError(
                    f"{'/'.join(sorted(overrides))} require an int seed (or "
                    f"None): an explicit Generator/SeedSequence stream "
                    f"samples one in-process batch, outside the engine's "
                    f"chunked early-stopping path"
                )
            # The in-process batch is scored exactly like an engine
            # chunk: one packed sample, one packed error count.
            from repro.decoders.metrics import count_logical_errors

            detectors, observables = self.detect_packed(shots, seed)
            decoder = (
                None if self.decoder_name == NO_DECODER else self.decoder
            )
            errors = count_logical_errors(decoder, detectors, observables)
            return errors / shots
        options = ExecutionOptions.resolve(None, base_seed=seed, **overrides)
        return self.collect(options, max_shots=shots).error_rate
