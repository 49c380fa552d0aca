"""Decoders over detector error models.

The paper motivates fast sampling with "evaluate the performance of a
fault-tolerant gadget": draw millions of detector samples, decode them,
count logical failures.  This package closes that loop.  Every decoder
sits behind one protocol — ``compile_decoder(dem, name)`` returns an
object answering ``decode(syndrome)``, ``decode_batch(syndromes)`` and
``decode_batch_packed(packed_syndromes)`` — and is selected by registry
name, mirroring :mod:`repro.backends`:

``matching`` (alias ``mwpm``)
    Minimum-weight perfect matching on graphlike DEMs via per-shot
    Dijkstra + NetworkX blossom.  The readable reference.
``compiled-matching`` (aliases ``cmwpm``, ``batch-matching``)
    The same matching decoder lowered once into flat CSR arrays with
    precomputed all-pairs shortest-path distances and path observable
    masks; batches decode through vectorized pair lookups.  Bitwise
    identical predictions to ``matching`` and the throughput default.
``lookup`` (alias ``table``)
    Maximum-likelihood table decoding for small DEMs (exact up to the
    enumerated fault weight).

:func:`logical_error_rate` runs the loop end to end: sample, decode,
score; :func:`count_logical_errors` is its packed counting step, one
chunk of the :func:`~repro.decoders.metrics.count_chunk_errors` the
collection engine runs per decode batch.

Decoder *classes* are imported lazily (PEP 562) and the registry
factories defer their imports, so name resolution — CLI ``choices=``,
``Task`` validation — never pays for NetworkX; only actually compiling
a matching decoder does.
"""

from repro.decoders.metrics import (
    count_logical_errors,
    logical_error_rate,
    shots_per_error,
    wilson_interval,
)
from repro.decoders.registry import (
    DecoderInfo,
    RegisteredDecoder,
    SyndromeDecoder,
    available_decoders,
    canonical_name,
    compile_decoder,
    decoder_choices,
    get_decoder,
    register_decoder,
)

__all__ = [
    "CompiledMatchingDecoder",
    "DecoderInfo",
    "LookupDecoder",
    "MatchingDecoder",
    "RegisteredDecoder",
    "SyndromeDecoder",
    "available_decoders",
    "build_decoding_graph",
    "canonical_name",
    "compile_decoder",
    "count_logical_errors",
    "decoder_choices",
    "get_decoder",
    "logical_error_rate",
    "register_decoder",
    "shots_per_error",
    "wilson_interval",
]

_LAZY = {
    "MatchingDecoder": "repro.decoders.matching",
    "build_decoding_graph": "repro.decoders.matching",
    "CompiledMatchingDecoder": "repro.decoders.compiled",
    "LookupDecoder": "repro.decoders.lookup",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def _compile_matching(dem):
    from repro.decoders.matching import MatchingDecoder

    return MatchingDecoder(dem)


def _compile_compiled_matching(dem):
    from repro.decoders.compiled import CompiledMatchingDecoder

    return CompiledMatchingDecoder(dem)


def _compile_lookup(dem):
    from repro.decoders.lookup import LookupDecoder

    return LookupDecoder(dem)


register_decoder(
    DecoderInfo(
        name="matching",
        description=(
            "minimum-weight perfect matching (per-shot Dijkstra + "
            "blossom; the readable reference)"
        ),
        graphlike_only=True,
        compile_once=False,
    ),
    _compile_matching,
    aliases=("mwpm",),
)

register_decoder(
    DecoderInfo(
        name="compiled-matching",
        description=(
            "MWPM lowered to flat CSR arrays with precomputed all-pairs "
            "paths; batched decoding, bitwise identical to 'matching'"
        ),
        graphlike_only=True,
        batched=True,
    ),
    _compile_compiled_matching,
    aliases=("cmwpm", "batch-matching"),
)

register_decoder(
    DecoderInfo(
        name="lookup",
        description=(
            "maximum-likelihood syndrome table (exact up to the "
            "enumerated fault weight; small DEMs only)"
        ),
        exact=True,
    ),
    _compile_lookup,
    aliases=("table",),
)
