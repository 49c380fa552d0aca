"""Symbol allocation and joint sampling of symbol values.

Symbol index 0 is the constant 1 (the paper's ``s_0``); real symbols are
numbered from 1.  Symbols are allocated in *groups* (one group per noise
site or per random measurement) carrying the joint categorical
distribution over the group's bit patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gf2 import bitops
from repro.noise.channels import SymbolGroup, sample_hits


@dataclass(frozen=True)
class SymbolInfo:
    """Provenance of one symbol (for readable expressions / fault analysis)."""

    index: int
    kind: str  # "noise" or "measurement"
    label: str  # e.g. "X[q3]" or "M[q0]#5"


class SymbolTable:
    """Allocates bit-symbols and samples their joint values."""

    def __init__(self) -> None:
        self.groups: list[SymbolGroup] = []
        self.group_offsets: list[int] = []  # first symbol index of each group
        self.infos: list[SymbolInfo] = []  # one per symbol, in index order
        self.n_symbols = 0  # excludes the constant s_0

    def allocate(self, group: SymbolGroup, labels: list[str] | None = None) -> range:
        """Allocate ``group.n_symbols`` fresh symbols; returns their indices."""
        first = self.n_symbols + 1
        self.groups.append(group)
        self.group_offsets.append(first)
        for j in range(group.n_symbols):
            label = labels[j] if labels else f"s{first + j}"
            self.infos.append(SymbolInfo(first + j, group.kind, label))
        self.n_symbols += group.n_symbols
        return range(first, first + group.n_symbols)

    @property
    def width(self) -> int:
        """Bit-vector width n_s + 1 (constant included)."""
        return self.n_symbols + 1

    def label(self, index: int) -> str:
        if index == 0:
            return "1"
        return self.infos[index - 1].label

    def noise_symbol_indices(self) -> np.ndarray:
        """Indices of all noise-induced symbols."""
        return np.array(
            [info.index for info in self.infos if info.kind == "noise"],
            dtype=np.int64,
        )

    # -- sampling (the "b" vectors of §3.2.3) ------------------------------

    def sample_symbol_major(
        self, n_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample all symbols for ``n_shots`` shots, bit-packed across shots.

        Returns a packed matrix of shape ``(width, words_for(n_shots))``;
        row ``j`` holds symbol ``j``'s value in every shot (row 0 is the
        constant, all ones).

        Groups sharing one joint distribution (e.g. every DEPOLARIZE1(p)
        site in the circuit) form one cluster, drawn by a single
        :func:`~repro.noise.channels.sample_hits` call: at QEC noise
        strengths the cost follows the few non-identity outcomes, and
        the hits are ORed into ``B`` word by word.
        """
        n_words = bitops.words_for(n_shots)
        out = np.zeros((self.width, n_words), dtype=np.uint64)
        # Constant row: exactly n_shots ones (padding must stay clear so
        # parity-based reductions see no garbage).
        out[0] = bitops.pack_bits(np.ones(n_shots, dtype=np.uint8))

        measurement_rows = [
            offset
            for group, offset in zip(self.groups, self.group_offsets)
            if group.kind == "measurement"
        ]
        if measurement_rows:
            out[measurement_rows] = bitops.random_packed(
                (len(measurement_rows), n_words), n_shots, rng
            )

        # Cluster noise groups by their joint distribution.
        clusters: dict[tuple[float, ...], list[int]] = {}
        for index, group in enumerate(self.groups):
            if group.kind != "measurement":
                clusters.setdefault(group.probabilities, []).append(index)

        for probabilities, indices in clusters.items():
            n_symbols = self.groups[indices[0]].n_symbols
            offsets = np.array(
                [self.group_offsets[gi] for gi in indices], dtype=np.int64
            )
            for sites, shot_indices, patterns in sample_hits(
                probabilities, offsets.size, n_shots, rng
            ):
                word_sites, word_cols, words = bitops.pack_sorted_bits(
                    sites, shot_indices, patterns, n_symbols
                )
                rows = offsets[word_sites]
                for j in range(n_symbols):
                    out[rows + j, word_cols] |= words[j]
        return out

    def sample_shot_major(
        self, n_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Same sample, packed across symbols: shape (n_shots, words_for(width)).

        This is the layout Eq. 4's dense matmul consumes.
        """
        from repro.gf2.transpose import transpose_bitmatrix

        symbol_major = self.sample_symbol_major(n_shots, rng)
        return transpose_bitmatrix(symbol_major, self.width, n_shots)
