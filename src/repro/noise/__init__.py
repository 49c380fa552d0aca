"""Pauli noise channels.

Every noise instruction is normalized into one :class:`NoiseChannel`
(:func:`noise_channel`): ``k`` bit-symbols with X/Z Pauli actions and one
categorical distribution over the ``2^k`` joint bit patterns — exactly
the encoding §3.1 of the paper prescribes (e.g. DEPOLARIZE1 ->
``X^{s1} Z^{s2}`` with pattern probabilities ``(1-p, p/3, p/3, p/3)``) —
plus a ``(sites, arity)`` array of the target qubits every site applies
it to.  The symbolic simulator allocates the symbols of a whole
instruction at once, the batch samplers draw only the non-identity
outcomes (:func:`sample_hits`, from a :class:`HitPlan` built once per
channel by :func:`hit_plan`) and scatter them by whole target columns,
and the per-shot oracles draw one pattern per site
(:func:`sample_patterns_batch`).
"""

from repro.noise.channels import (
    HitPlan,
    NoiseChannel,
    hit_plan,
    noise_channel,
    sample_hits,
    sample_patterns_batch,
)

__all__ = [
    "HitPlan",
    "NoiseChannel",
    "hit_plan",
    "noise_channel",
    "sample_hits",
    "sample_patterns_batch",
]
