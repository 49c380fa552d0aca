"""Normalization of noise instructions into channels and symbol groups."""

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
    uniform draw, and each outcome is the number of cumulative thresholds
    at or below it (one ``searchsorted``).  Batch samplers do not call
    this per site and shot: :func:`sample_hits` draws only the
    non-identity outcomes.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    thresholds = np.cumsum(probs / probs.sum())[:-1]
    uniforms = rng.random(size)
    # <= 16 outcomes fit a uint8 easily.
    return np.searchsorted(thresholds, uniforms, side="right").astype(np.uint8)


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


@dataclass(frozen=True)
class NoiseChannel:
    """What every site of one noise instruction shares, plus its sites.

    ``qubits`` holds one row of target qubits per site.  Symbol ``j`` of
    a site applies the Paulis ``(letter, qubits[site, slot])`` for each
    ``(letter, slot)`` in ``columns[j]``; ``probabilities`` is the joint
    distribution of one site's symbols, shared by all sites.
    """

    qubits: np.ndarray
    columns: tuple[tuple[tuple[str, int], ...], ...]
    probabilities: tuple[float, ...]

    @property
    def n_sites(self) -> int:
        return self.qubits.shape[0]

    def actions(self, site: int) -> tuple[tuple[tuple[str, int], ...], ...]:
        """The ``(letter, qubit)`` actions of each symbol of one site."""
        row = self.qubits[site]
        return tuple(
            tuple((letter, int(row[slot])) for letter, slot in column)
            for column in self.columns
        )


_XZ_COLUMNS = ((("X", 0),), (("Z", 0),))
_PAIR_COLUMNS = ((("X", 0),), (("Z", 0),), (("X", 1),), (("Z", 1),))


def _single_qubit_probabilities(
    px: float, py: float, pz: float
) -> tuple[float, ...]:
    """General 1-qubit Pauli channel as X^{s1} Z^{s2} with joint probs."""
    p_rest = 1.0 - px - py - pz
    # Pattern bit 0 = X symbol, bit 1 = Z symbol; Y sets both.
    return (p_rest, px, pz, py)


def _two_qubit_probabilities(pair_probs: dict[str, float]) -> tuple[float, ...]:
    """General 2-qubit Pauli channel: 4 symbols (Xa, Za, Xb, Zb)."""
    probabilities = [0.0] * 16
    total = 0.0
    for pair, prob in pair_probs.items():
        xa, za = _LETTER_XZ[pair[0]]
        xb, zb = _LETTER_XZ[pair[1]]
        pattern = xa | (za << 1) | (xb << 2) | (zb << 3)
        probabilities[pattern] += prob
        total += prob
    probabilities[0] += 1.0 - total
    return tuple(probabilities)


def _sites(targets: tuple, arity: int) -> np.ndarray:
    """Target qubits as one row per site (a trailing partial site drops)."""
    qubits = np.asarray(targets[: len(targets) // arity * arity], dtype=np.int64)
    return qubits.reshape(-1, arity)


def noise_channel(instruction: Instruction) -> NoiseChannel:
    """Decompose a noise instruction into its sites and shared channel.

    Sites are single qubits (1-qubit channels), qubit pairs (2-qubit
    channels) or the whole target list (CORRELATED_ERROR).
    """
    name = instruction.name
    args = instruction.args
    targets = instruction.targets

    if name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
        return NoiseChannel(
            _sites(targets, 1), (((name[0], 0),),), (1.0 - args[0], args[0])
        )

    if name == "DEPOLARIZE1":
        p = args[0]
        probabilities = _single_qubit_probabilities(p / 3, p / 3, p / 3)
        return NoiseChannel(_sites(targets, 1), _XZ_COLUMNS, probabilities)

    if name == "PAULI_CHANNEL_1":
        probabilities = _single_qubit_probabilities(*args)
        return NoiseChannel(_sites(targets, 1), _XZ_COLUMNS, probabilities)

    if name == "DEPOLARIZE2":
        p = args[0]
        pair_probs = {
            a + b: p / 15
            for a in "IXYZ"
            for b in "IXYZ"
            if a + b != "II"
        }
        probabilities = _two_qubit_probabilities(pair_probs)
        return NoiseChannel(_sites(targets, 2), _PAIR_COLUMNS, probabilities)

    if name == "PAULI_CHANNEL_2":
        probabilities = _two_qubit_probabilities(dict(zip(_PC2_ORDER, args)))
        return NoiseChannel(_sites(targets, 2), _PAIR_COLUMNS, probabilities)

    if name == "CORRELATED_ERROR":
        paulis = [t for t in targets if isinstance(t, PauliTarget)]
        return NoiseChannel(
            np.array([[t.qubit for t in paulis]], dtype=np.int64),
            (tuple((t.pauli, slot) for slot, t in enumerate(paulis)),),
            (1.0 - args[0], args[0]),
        )

    raise ValueError(f"{name} is not a noise instruction")


def noise_groups(instruction: Instruction) -> list[SymbolGroup]:
    """One SymbolGroup per site of a noise instruction (see
    :func:`noise_channel`)."""
    channel = noise_channel(instruction)
    return [
        SymbolGroup(channel.actions(site), channel.probabilities, "noise")
        for site in range(channel.n_sites)
    ]
