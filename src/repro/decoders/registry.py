"""Name-keyed registry of syndrome decoders.

The mirror of :mod:`repro.backends` for the decoding side of the
pipeline: the engine workers, the experiment harness, the CLI and the
examples all resolve decoders through this registry, so adding a decoder
(say, a union-find or belief-propagation decoder) is one
:func:`register_decoder` call, not a code fork across five layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.dem.model import DetectorErrorModel
from repro.gf2 import bitops
from repro.registry import Registry


@runtime_checkable
class SyndromeDecoder(Protocol):
    """What every compiled decoder must answer.

    Both batch entry points raise ``ValueError`` on a batch whose shape
    does not match the decoder's DEM (see :func:`check_syndromes`), and
    the packed one on a row with a padding bit set (see
    :func:`check_packed_syndromes`).
    """

    n_detectors: int
    n_observables: int

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predicted observable flips: uint8 array of shape (n_obs,)."""
        ...

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Predictions for a (shots, n_detectors) batch of syndromes:
        uint8 array of shape (shots, n_observables)."""
        ...

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Predictions for packed syndromes, as packed rows.

        The packed wire format of
        :meth:`repro.backends.Sampler.sample_detectors_packed`:
        ``(shots, words_for(n_detectors))`` uint64 rows in,
        ``(shots, words_for(n_observables))`` out, little-endian bit
        order, padding bits zero.  Bitwise identical to packing
        ``decode_batch``'s output.  This is the one entry the engine's
        sample -> decode -> count path uses; a decoder that does not
        work in the packed domain natively answers it with the
        :func:`pack_decode_batch` adapter.
        """
        ...

    def decode_chunks_packed(self, chunks: Sequence[np.ndarray]) -> list:
        """Packed predictions for each of a list of packed syndrome
        chunks: bitwise ``[decode_batch_packed(c) for c in chunks]``.

        The engine decodes a run of consecutive chunks through this one
        call, so a decoder with a per-call cost pays it once per run.
        A decoder without a batched core answers it with the
        :func:`loop_decode_chunks` adapter.
        """
        ...


def _checked(array: np.ndarray, width: int, what: str) -> np.ndarray:
    if array.ndim != 2 or array.shape[1] != width:
        raise ValueError(
            f"expected {what} of shape (shots, {width}), got {array.shape}"
        )
    return array


def check_syndromes(syndromes, n_detectors: int) -> np.ndarray:
    """``syndromes`` as a uint8 ``(shots, n_detectors)`` batch.

    Raises ``ValueError`` on any other shape (a 1-D row, a width off by
    one) instead of decoding garbage.
    """
    return _checked(
        np.asarray(syndromes, dtype=np.uint8), n_detectors, "syndromes"
    )


def check_packed_syndromes(syndromes, n_detectors: int) -> np.ndarray:
    """``syndromes`` as a uint64 ``(shots, words_for(n_detectors))``
    packed batch.

    Raises ``ValueError`` on any other shape, and on a row with a
    padding bit (at or above ``n_detectors`` in its last word) set:
    the wire format keeps padding zero, and a decoder would otherwise
    read such a bit as a detector that does not exist.
    """
    syndromes = _checked(
        np.asarray(syndromes, dtype=np.uint64),
        bitops.words_for(n_detectors),
        "packed syndromes",
    )
    used = n_detectors % 64
    if used:
        padding = ~np.uint64((1 << used) - 1)
        (stray,) = np.nonzero(syndromes[:, -1] & padding)
        if stray.size:
            raise ValueError(
                f"packed syndrome row {stray[0]} sets padding bits (bit "
                f">= n_detectors = {n_detectors}); padding must be zero"
            )
    return syndromes


def pack_decode_batch(
    decoder: SyndromeDecoder, syndromes: np.ndarray
) -> np.ndarray:
    """Generic pack-adapter: unpack, ``decode_batch``, pack.

    The decoding mirror of
    :func:`repro.backends.protocol.pack_detector_samples`: decoders
    that only decode unpacked rows (the per-shot reference ones)
    implement ``decode_batch_packed`` with this helper, so predictions
    are bitwise ``pack_rows(decode_batch(unpack_rows(syndromes)))``.
    """
    syndromes = check_packed_syndromes(syndromes, decoder.n_detectors)
    predictions = decoder.decode_batch(
        bitops.unpack_rows(syndromes, decoder.n_detectors)
    )
    return bitops.pack_rows(predictions)


def loop_decode_chunks(
    decoder: SyndromeDecoder, chunks: Sequence[np.ndarray]
) -> list:
    """Generic chunk-list adapter: one ``decode_batch_packed`` call per
    chunk.  Decoders with no per-call cost to share implement
    ``decode_chunks_packed`` with this helper."""
    return [decoder.decode_batch_packed(chunk) for chunk in chunks]


@dataclass(frozen=True)
class DecoderInfo:
    """Static capability description of one decoder.

    ``graphlike_only`` — the decoder silently restricts the DEM to its
    graphlike mechanisms (the standard MWPM practice); hyperedge
    probability mass is not corrected for.

    ``batched`` — ``decode_batch`` is vectorized across shots rather
    than a Python loop over ``decode``.

    ``exact`` — maximum-likelihood over the mechanisms it enumerates
    (the lookup table), as opposed to the matching approximation.

    ``compile_once`` — construction does all path-finding/enumeration
    up front; decoding afterwards never re-analyzes the DEM.

    No flag chooses between packed and unpacked decoding: every decoder
    answers ``decode_batch_packed`` (natively, or through
    :func:`pack_decode_batch`), so callers never have to ask.
    """

    name: str
    description: str
    graphlike_only: bool = False
    batched: bool = False
    exact: bool = False
    compile_once: bool = True


@dataclass(frozen=True)
class RegisteredDecoder:
    """A registered decoder: capability info plus its compile entry."""

    info: DecoderInfo
    factory: Callable[[DetectorErrorModel], SyndromeDecoder]

    def compile(self, dem: DetectorErrorModel) -> SyndromeDecoder:
        """Run this decoder's one-time analysis; returns the decoder."""
        return self.factory(dem)


_DECODERS: Registry[RegisteredDecoder] = Registry("decoder", "decoder")


def register_decoder(
    info: DecoderInfo,
    factory: Callable[[DetectorErrorModel], SyndromeDecoder],
    aliases: Iterable[str] = (),
) -> RegisteredDecoder:
    """Register a decoder under ``info.name`` (plus optional aliases).

    Re-registering a name replaces it (tests swap in instrumented
    decoders); aliases may not shadow a canonical name.
    """
    return _DECODERS.register(
        info.name, RegisteredDecoder(info=info, factory=factory), aliases
    )


#: Name or alias -> canonical name (``KeyError`` naming the known
#: decoders on an unknown name).
canonical_name = _DECODERS.canonical_name
#: Look up a decoder by canonical name or alias.
get_decoder = _DECODERS.get
#: Sorted canonical names of every registered decoder.
available_decoders = _DECODERS.available
#: Canonical names plus aliases (for CLI ``choices=``).
decoder_choices = _DECODERS.choices


def compile_decoder(
    dem: DetectorErrorModel, decoder: str = "matching"
) -> SyndromeDecoder:
    """Compile ``dem`` with the named decoder; returns the decoder."""
    return get_decoder(decoder).compile(dem)
