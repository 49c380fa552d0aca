"""Symbol allocation and joint sampling of symbol values.

Symbol index 0 is the constant 1 (the paper's ``s_0``); real symbols are
numbered from 1.  Symbols are allocated one *record* at a time: a noise
instruction allocates one record covering all of its sites, a random
measurement one record for its fair coin.  A record's sites share one
joint categorical distribution over their symbols' bit patterns, so
sampling reads cluster offsets straight off the records, and per-symbol
views (labels, per-site tuples) are derived only on demand.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.gf2 import bitops
from repro.noise.channels import NoiseChannel, measurement_group, sample_hits

_FAIR_COIN = measurement_group().probabilities


class SymbolRecord(NamedTuple):
    """``n_sites`` sites of ``symbols_per_site`` symbols each, numbered
    site by site from ``first``, every site drawn from ``probabilities``.

    ``source`` is the :class:`NoiseChannel` of a noise record, or the
    ``(measurement index, qubit)`` of a random measurement's coin.
    """

    first: int
    n_sites: int
    symbols_per_site: int
    probabilities: tuple[float, ...]
    kind: str  # "noise" or "measurement"
    source: NoiseChannel | tuple[int, int]

    @property
    def stop(self) -> int:
        """One past the record's last symbol index."""
        return self.first + self.n_sites * self.symbols_per_site

    def offsets(self) -> np.ndarray:
        """First symbol index of every site."""
        return self.first + self.symbols_per_site * np.arange(
            self.n_sites, dtype=np.int64
        )


class SymbolTable:
    """Allocates bit-symbols and samples their joint values."""

    def __init__(self) -> None:
        self.records: list[SymbolRecord] = []
        self._firsts: list[int] = []  # records[i].first, for bisection
        self.n_symbols = 0  # excludes the constant s_0

    def _allocate(self, n_sites, symbols_per_site, probabilities, kind, source) -> int:
        first = self.n_symbols + 1
        self.records.append(
            SymbolRecord(first, n_sites, symbols_per_site, probabilities, kind, source)
        )
        self._firsts.append(first)
        self.n_symbols += n_sites * symbols_per_site
        return first

    def allocate_noise(self, channel: NoiseChannel) -> int:
        """Allocate the symbols of every site of ``channel``; returns the
        first index (site ``i``'s symbol ``j`` is ``first + k i + j``)."""
        return self._allocate(
            channel.n_sites, len(channel.columns), channel.probabilities,
            "noise", channel,
        )

    def allocate_measurement(self, measurement: int, qubit: int) -> int:
        """Allocate the fair coin of a random outcome; returns its index."""
        return self._allocate(1, 1, _FAIR_COIN, "measurement", (measurement, qubit))

    @property
    def width(self) -> int:
        """Bit-vector width n_s + 1 (constant included)."""
        return self.n_symbols + 1

    def label(self, index: int) -> str:
        """Readable name of a symbol: ``"1"`` for the constant, the fault's
        Paulis for noise (``"X3"``, ``"X1*Z2"``) and ``"m5(q0)"`` for the
        coin of random measurement 5 on qubit 0."""
        if index == 0:
            return "1"
        if not 0 < index <= self.n_symbols:
            raise IndexError(f"symbol index {index} out of range")
        record = self.records[bisect_right(self._firsts, index) - 1]
        if record.kind == "measurement":
            measurement, qubit = record.source
            return f"m{measurement}(q{qubit})"
        site, symbol = divmod(index - record.first, record.symbols_per_site)
        action = record.source.actions(site)[symbol]
        return "*".join(f"{letter}{qubit}" for letter, qubit in action) or "I"

    def noise_symbol_indices(self) -> np.ndarray:
        """Indices of all noise-induced symbols."""
        ranges = [
            np.arange(record.first, record.stop, dtype=np.int64)
            for record in self.records
            if record.kind == "noise"
        ]
        return np.concatenate(ranges) if ranges else np.zeros(0, dtype=np.int64)

    def sites(self) -> Iterator[tuple[int, int, tuple[float, ...], str]]:
        """``(first symbol, symbols, probabilities, kind)`` of every noise
        site and random measurement, in allocation order."""
        for record in self.records:
            for first in range(record.first, record.stop, record.symbols_per_site):
                yield first, record.symbols_per_site, record.probabilities, record.kind

    # -- sampling (the "b" vectors of §3.2.3) ------------------------------

    def sample_symbol_major(
        self, n_shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample all symbols for ``n_shots`` shots, bit-packed across shots.

        Returns a packed matrix of shape ``(width, words_for(n_shots))``;
        row ``j`` holds symbol ``j``'s value in every shot (row 0 is the
        constant, all ones).

        Sites sharing one joint distribution (e.g. every DEPOLARIZE1(p)
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
            record.first for record in self.records if record.kind == "measurement"
        ]
        if measurement_rows:
            out[measurement_rows] = bitops.random_packed(
                (len(measurement_rows), n_words), n_shots, rng
            )

        # Cluster noise records by their joint distribution.
        clusters: dict[tuple[float, ...], list[SymbolRecord]] = {}
        for record in self.records:
            if record.kind != "measurement":
                clusters.setdefault(record.probabilities, []).append(record)

        for probabilities, records in clusters.items():
            n_symbols = records[0].symbols_per_site
            offsets = np.concatenate([record.offsets() for record in records])
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
