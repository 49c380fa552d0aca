"""Pauli noise channels.

Every channel is normalized into a :class:`SymbolGroup`: ``k`` bit-symbols
with X/Z Pauli actions and one categorical distribution over the ``2^k``
joint bit patterns — exactly the encoding §3.1 of the paper prescribes
(e.g. DEPOLARIZE1 -> ``X^{s1} Z^{s2}`` with pattern probabilities
``(1-p, p/3, p/3, p/3)``).  The symbolic simulator allocates the symbols
of a whole instruction at once from its ``NoiseChannel``
(``channels.noise_channel``: the sites plus the shared encoding); the
batch samplers draw only the non-identity outcomes (:func:`sample_hits`),
and the per-shot oracles draw one pattern per site.
"""

from repro.noise.channels import (
    SymbolGroup,
    measurement_group,
    noise_groups,
    pattern_bits,
    sample_hits,
)

__all__ = [
    "SymbolGroup",
    "measurement_group",
    "noise_groups",
    "pattern_bits",
    "sample_hits",
]
