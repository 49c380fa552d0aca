"""Normalization of noise instructions into symbol groups."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.circuit.instructions import Instruction, PauliTarget

# Pauli letter -> (x bit, z bit)
_LETTER_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

# Stim's argument order for PAULI_CHANNEL_1 / PAULI_CHANNEL_2.
_PC1_ORDER = ("X", "Y", "Z")
_PC2_ORDER = (
    "IX", "IY", "IZ",
    "XI", "XX", "XY", "XZ",
    "YI", "YX", "YY", "YZ",
    "ZI", "ZX", "ZY", "ZZ",
)


@dataclass(frozen=True)
class SymbolGroup:
    """``k`` jointly-distributed bit-symbols and their Pauli actions.

    ``actions[j]`` lists the ``(pauli_letter, qubit)`` pairs applied when
    symbol ``j`` has value 1.  ``probabilities[pattern]`` is the joint
    probability of the bit pattern whose ``j``-th bit (LSB first) is the
    value of symbol ``j``.
    """

    actions: tuple[tuple[tuple[str, int], ...], ...]
    probabilities: tuple[float, ...]
    kind: str  # "noise" or "measurement"

    @property
    def n_symbols(self) -> int:
        return len(self.actions)

    def sample_patterns(
        self, n_samples: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``n_samples`` joint bit patterns (integers in [0, 2^k))."""
        return sample_patterns_batch(self.probabilities, (n_samples,), rng)


def sample_patterns_batch(
    probabilities: tuple[float, ...] | np.ndarray,
    size: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw categorical samples by thresholding uniform floats.

    For the small outcome counts of Pauli channels (<= 16) this beats
    ``Generator.choice`` with a probability vector by a wide margin: one
    uniform draw plus ``len(probabilities) - 1`` vectorized comparisons.
    Batch samplers do not call this per site and shot:
    :func:`sample_hits` draws only the non-identity outcomes.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    thresholds = np.cumsum(probs / probs.sum())[:-1]
    uniforms = rng.random(size)
    patterns = np.zeros(size, dtype=np.uint8)  # <= 16 outcomes fit easily
    for threshold in thresholds:
        patterns += uniforms >= threshold
    return patterns


#: Expected hits one slab of :func:`sample_hits` draws, so the
#: temporaries stay cache/page friendly even for millions of noise sites.
_SLAB_ELEMENTS = 4_000_000


def sample_hits(
    probabilities: tuple[float, ...] | np.ndarray,
    n_sites: int,
    shots: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Non-identity outcomes of ``n_sites`` i.i.d. sites over ``shots`` shots.

    Every site draws pattern ``k`` with probability ``probabilities[k]``
    in every shot, and pattern 0 is the identity.  Yields, per slab of
    sites, ``(sites, shot_indices, patterns)`` for the outcomes that are
    *not* the identity, sorted by ``(site, shot)``; the slabs come in
    site order.  Hit positions in the flattened ``(site, shot)`` grid
    come from geometric gaps, then each hit's pattern from the
    conditional distribution ``probabilities[1:] / p_hit``, so the cost
    follows the number of hits, not of sites.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    probs = probs / probs.sum()
    # Not 1 - probs[0]: exact at tiny p.  Clipped so a certain fault's
    # rounding cannot push it past 1.
    p_hit = min(probs[1:].sum(), 1.0)
    if n_sites == 0 or shots == 0 or p_hit <= 0.0:
        return
    slab_sites = max(1, int(_SLAB_ELEMENTS // max(shots * p_hit, 1.0)))
    for start in range(0, n_sites, slab_sites):
        n_cells = min(slab_sites, n_sites - start) * shots
        cells = _hit_positions(n_cells, p_hit, rng)
        patterns = 1 + sample_patterns_batch(probs[1:], (cells.size,), rng)
        sites, shot_indices = np.divmod(cells, shots)
        yield sites + start, shot_indices, patterns


def _hit_positions(n_cells: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Sorted Bernoulli(``p``) hit positions in ``[0, n_cells)``.

    Consecutive hits are separated by geometric gaps, so the draw costs
    O(hits): batches of gaps sized a few sigma above the expected count,
    topped up until the running position passes the end.
    """
    batches = []
    last = -1
    while True:
        expected = (n_cells - 1 - last) * p
        gaps = rng.geometric(p, int(expected + 4.0 * math.sqrt(expected)) + 16)
        # A gap past the end is as good as any longer one; clipping keeps
        # the running sum from overflowing at vanishing p.
        positions = last + np.cumsum(np.minimum(gaps, n_cells + 1))
        if positions[-1] >= n_cells:
            batches.append(positions[: np.searchsorted(positions, n_cells)])
            return np.concatenate(batches)
        batches.append(positions)
        last = int(positions[-1])


def pattern_bits(patterns: np.ndarray, symbol: int) -> np.ndarray:
    """Extract one symbol's bit from an array of joint patterns."""
    return ((patterns >> symbol) & 1).astype(np.uint8)


def measurement_group() -> SymbolGroup:
    """The fair-coin group behind one random measurement outcome."""
    return SymbolGroup(actions=((),), probabilities=(0.5, 0.5), kind="measurement")


def _two_symbol_xz(qubit: int) -> tuple[tuple[tuple[str, int], ...], ...]:
    return ((("X", qubit),), (("Z", qubit),))


def _single_qubit_group(
    qubit: int, px: float, py: float, pz: float
) -> SymbolGroup:
    """General 1-qubit Pauli channel as X^{s1} Z^{s2} with joint probs."""
    p_rest = 1.0 - px - py - pz
    # Pattern bit 0 = X symbol, bit 1 = Z symbol; Y sets both.
    probabilities = (p_rest, px, pz, py)
    return SymbolGroup(_two_symbol_xz(qubit), probabilities, "noise")


def _flip_group(qubit: int, letter: str, p: float) -> SymbolGroup:
    """Single-symbol X_ERROR / Y_ERROR / Z_ERROR."""
    return SymbolGroup(
        actions=(((letter, qubit),),),
        probabilities=(1.0 - p, p),
        kind="noise",
    )


def _two_qubit_group(
    qubit_a: int, qubit_b: int, pair_probs: dict[str, float]
) -> SymbolGroup:
    """General 2-qubit Pauli channel: 4 symbols (Xa, Za, Xb, Zb)."""
    actions = (
        (("X", qubit_a),),
        (("Z", qubit_a),),
        (("X", qubit_b),),
        (("Z", qubit_b),),
    )
    probabilities = [0.0] * 16
    total = 0.0
    for pair, prob in pair_probs.items():
        xa, za = _LETTER_XZ[pair[0]]
        xb, zb = _LETTER_XZ[pair[1]]
        pattern = xa | (za << 1) | (xb << 2) | (zb << 3)
        probabilities[pattern] += prob
        total += prob
    probabilities[0] += 1.0 - total
    return SymbolGroup(actions, tuple(probabilities), "noise")


def noise_groups(instruction: Instruction) -> list[SymbolGroup]:
    """Decompose a noise instruction into one SymbolGroup per site.

    Sites are single qubits (1-qubit channels), qubit pairs (2-qubit
    channels) or the whole target list (CORRELATED_ERROR).
    """
    name = instruction.name
    args = instruction.args
    targets = instruction.targets

    if name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
        letter = name[0]
        return [_flip_group(q, letter, args[0]) for q in targets]

    if name == "DEPOLARIZE1":
        p = args[0]
        return [_single_qubit_group(q, p / 3, p / 3, p / 3) for q in targets]

    if name == "PAULI_CHANNEL_1":
        px, py, pz = args
        return [_single_qubit_group(q, px, py, pz) for q in targets]

    if name == "DEPOLARIZE2":
        p = args[0]
        pair_probs = {
            a + b: p / 15
            for a in "IXYZ"
            for b in "IXYZ"
            if a + b != "II"
        }
        return [
            _two_qubit_group(a, b, pair_probs)
            for a, b in zip(targets[0::2], targets[1::2])
        ]

    if name == "PAULI_CHANNEL_2":
        pair_probs = dict(zip(_PC2_ORDER, args))
        return [
            _two_qubit_group(a, b, pair_probs)
            for a, b in zip(targets[0::2], targets[1::2])
        ]

    if name == "CORRELATED_ERROR":
        action = tuple(
            (t.pauli, t.qubit) for t in targets if isinstance(t, PauliTarget)
        )
        return [
            SymbolGroup(
                actions=(action,),
                probabilities=(1.0 - args[0], args[0]),
                kind="noise",
            )
        ]

    raise ValueError(f"{name} is not a noise instruction")
