"""Sampling measurement outcomes as GF(2) matrix multiplication (Eq. 4).

``CompiledSampler`` freezes the outcome of Algorithm 1's Initialization:
the packed measurement matrix ``M`` (one bit-vector per measurement), the
detector/observable matrices derived from it, and the symbol table.  Each
``sample`` call draws the symbol-value matrix ``B`` and evaluates
``M_samples = M · Bᵀ``.  Drawing ``B`` costs in proportion to the noise
symbols that are *set*: each channel cluster's non-identity outcomes come
from one sparse hit draw (:func:`repro.noise.channels.sample_hits`), and
only the fair measurement coins are drawn bit for bit.  Eq. 4 then runs
one of two kernels:

* **dense** — packed parity-of-AND matmul, cost O(n_smp · n_m · n_s / 64);
* **sparse** — per-measurement XOR of the symbol rows of ``B``
  (the paper's sparse implementation), cost O(n_smp · nnz(M) / 64).

``strategy="auto"`` picks sparse when the average support is small, which
is the regime of QEC circuits (each outcome depends on few faults).  The
sparse kernel's per-row supports are read from the nonzero packed words
of ``M``, once per compiled sampler.

``sample_detectors`` has a third kernel, the **hit scatter**: at QEC noise
strengths ``B`` is far sparser than the detector matrix, so it walks the
set symbols instead.  Each set ``(symbol j, shot s)`` of the draw XORs
symbol ``j``'s packed detector+observable column into shot ``s``'s row,
starting from the constant column; the pairs are grouped by shot with a
``uint16`` radix sort and one ``bitwise_xor.reduceat``.  Cost is
O(n_smp · hits · words_for(n_det + n_obs)) instead of O(n_smp · nnz / 64),
and the rows are bitwise Eq. 4's, because both read one draw
(:meth:`~repro.core.symbols.SymbolTable.draw`).  Its ``auto`` rule
compares the two per-shot costs once per compiled sampler (the crossover
is measured in ``benchmarks/bench_noise_draw.py``): the scatter up to a
cost ratio of 1, Eq. 4 above (surface d = 5, 512 shots: p ≤ 0.02 runs
the scatter, ~4× faster than Eq. 4 at p = 0.002).
"""

from __future__ import annotations

import functools

import numpy as np

import repro.obs as obs
from repro.circuit.circuit import Circuit
from repro.core.simulator import SymPhaseSimulator
from repro.gf2 import bitops
from repro.gf2.matmul import mul_packed_abt, mul_sparse_columns
from repro.gf2.transpose import transpose_bitmatrix
from repro.rng import as_generator

_SPARSE_SUPPORT_THRESHOLD_FRACTION = 0.125
_SCATTER_COST_RATIO = 1.0


class CompiledSampler:
    """Reusable sampler for one analyzed circuit."""

    def __init__(self, simulator: SymPhaseSimulator):
        self.symbols = simulator.symbols
        self.width = self.symbols.width
        n_words = bitops.words_for(self.width)

        self.n_measurements = simulator.num_measurements
        self.measurement_matrix = np.zeros(
            (self.n_measurements, n_words), dtype=np.uint64
        )
        for i, vector in enumerate(simulator.measurements):
            self.measurement_matrix[i, : vector.size] = vector

        self.detector_matrix = self._combine(simulator.detectors)
        observable_defs = [
            simulator.observables[k] for k in sorted(simulator.observables)
        ]
        self.observable_matrix = self._combine(observable_defs)

        self._supports: list[np.ndarray] | None = None
        self._derived_matrix: np.ndarray | None = None
        self._derived_supports: list[np.ndarray] | None = None

    def _combine(self, index_lists) -> np.ndarray:
        """XOR measurement rows into derived rows (detectors/observables)."""
        return bitops.xor_select_rows(self.measurement_matrix, index_lists)

    # -- introspection ------------------------------------------------------

    @property
    def n_detectors(self) -> int:
        return self.detector_matrix.shape[0]

    @property
    def n_observables(self) -> int:
        return self.observable_matrix.shape[0]

    def supports(self) -> list[np.ndarray]:
        """Symbol-index support of every measurement (cached)."""
        if self._supports is None:
            self._supports = self._compute_supports(self.measurement_matrix)
        return self._supports

    @staticmethod
    def _compute_supports(matrix: np.ndarray) -> list[np.ndarray]:
        """One sorted symbol-index array per row, read from the nonzero
        packed words (never the unpacked matrix)."""
        rows, cols = bitops.nonzero_bits(matrix)
        bounds = np.searchsorted(rows, np.arange(1, matrix.shape[0]))
        return np.split(cols, bounds) if matrix.shape[0] else []

    def _derived(self) -> np.ndarray:
        """Stacked detector+observable matrix (built once, reused)."""
        if self._derived_matrix is None:
            self._derived_matrix = np.concatenate(
                [self.detector_matrix, self.observable_matrix], axis=0
            )
        return self._derived_matrix

    def _supports_for(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Per-row supports with caching for the two standing matrices."""
        if matrix is self.measurement_matrix:
            return self.supports()
        if matrix is self._derived_matrix:
            if self._derived_supports is None:
                self._derived_supports = self._compute_supports(matrix)
            return self._derived_supports
        return self._compute_supports(matrix)

    def average_support(self) -> float:
        if self.n_measurements == 0:
            return 0.0
        return float(bitops.popcount_rows(self.measurement_matrix).mean())

    def choose_strategy(self) -> str:
        """The auto rule: sparse unless supports are a sizable fraction of n_s."""
        if self.width <= 64:
            return "dense"
        threshold = _SPARSE_SUPPORT_THRESHOLD_FRACTION * self.width
        return "sparse" if self.average_support() <= threshold else "dense"

    def scatter_cost_ratio(self) -> float:
        """Per-shot cost of the hit scatter over that of sparse Eq. 4.

        The scatter XORs one column of ``words_for(n_det + n_obs)``
        words per set symbol: the expected pattern bits of every noise
        site's outcome (its ``p_hit`` spread over its non-identity
        patterns), plus half of the live coins.  Sparse Eq. 4 XORs one
        64-shot word per nonzero of the stacked detector+observable
        matrix, ``nnz(derived) / 64`` words per shot.
        """
        derived = self._derived()
        nonzeros = int(bitops.popcount_rows(derived).sum())
        if nonzeros == 0:
            return 0.0
        _, clusters = self.symbols.draw_plan()
        hits = 0.5 * self._live_coins.size
        for cluster in clusters:
            probs = np.asarray(cluster.probabilities, dtype=np.float64)
            bits = np.bitwise_count(np.arange(probs.size))
            hits += cluster.offsets.size * float(probs @ bits) / probs.sum()
        return hits * bitops.words_for(derived.shape[0]) / (nonzeros / 64.0)

    @functools.cached_property
    def detector_strategy(self) -> str:
        """What ``sample_detectors(strategy="auto")`` runs, decided once:
        the scatter while :meth:`scatter_cost_ratio` is at most
        ``_SCATTER_COST_RATIO``, else :meth:`choose_strategy`'s Eq. 4."""
        if self.scatter_cost_ratio() <= _SCATTER_COST_RATIO:
            return "scatter"
        return self.choose_strategy()

    # -- sampling -------------------------------------------------------------

    def draw_symbols(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw the symbol-value matrix B (packed symbol-major).

        Exposed separately because the paper's Table 1 excludes this cost
        from the algorithm comparison (it is identical for every sampler);
        pass the result to :meth:`sample` via ``symbol_values`` to time
        the pure Eq. 4 evaluation.  ``rng`` may be an int seed, a
        Generator, or ``None``.
        """
        return self.symbols.sample_symbol_major(shots, as_generator(rng))

    def sample(
        self,
        shots: int,
        rng: int | np.random.Generator | None = None,
        strategy: str = "auto",
        symbol_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """Sample measurement records: uint8 array of shape (shots, n_m)."""
        return self._sample_rows(
            self.measurement_matrix, shots, rng, strategy, symbol_values
        )

    def sample_detectors(
        self,
        shots: int,
        rng: int | np.random.Generator | None = None,
        strategy: str = "auto",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample detectors and observables with shared symbol values.

        Returns ``(detectors, observables)`` of shapes
        ``(shots, n_det)`` and ``(shots, n_obs)``.
        ``rng`` may be an int seed, a Generator, or ``None``.
        ``strategy`` is ``"auto"`` (:attr:`detector_strategy`),
        ``"scatter"``, ``"sparse"`` or ``"dense"``; all four return the
        same bits for the same generator.
        """
        rng = as_generator(rng)
        if strategy == "auto":
            strategy = self.detector_strategy
        if strategy == "scatter":
            both = self._scatter(shots, rng)
        else:
            both = self._sample_rows(self._derived(), shots, rng, strategy)
        return both[:, : self.n_detectors], both[:, self.n_detectors:]

    def sample_detectors_packed(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Packed (detectors, observables), shot-major uint64 rows.

        Via the generic pack-adapter: the detector/observable split is a
        bit-level column slice of the stacked Eq. 4 product, which is
        not word-aligned in general, so this backend samples unpacked
        and packs — identical RNG consumption either way.
        """
        from repro.backends.protocol import pack_detector_samples

        return pack_detector_samples(self, shots, rng)

    @functools.cached_property
    def _columns(self) -> np.ndarray:
        """Symbol-major stacked detector+observable matrix: row ``j`` is
        the packed column of symbol ``j`` (built on first use)."""
        derived = self._derived()
        return transpose_bitmatrix(derived, derived.shape[0], self.width)

    @functools.cached_property
    def _live_coins(self) -> np.ndarray:
        """Positions, among a draw's coin rows, of the coins whose
        detector/observable column is nonzero (random detectors)."""
        coin_symbols, _ = self.symbols.draw_plan()
        words = self._derived()[:, coin_symbols >> 6]
        bits = words >> (coin_symbols & 63).astype(np.uint64) & 1
        return np.flatnonzero(bits.any(axis=0))

    def _scatter(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Detector+observable rows by hit scatter: every set symbol
        ``(j, shot)`` of the draw XORs column ``j`` into row ``shot``.

        Each ``(symbol, shot)`` pair occurs at most once in a draw, so
        this is exactly ``derived · Bᵀ`` for the ``B`` that
        :meth:`draw_symbols` returns from the same generator.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        columns = self._columns
        draw = self.symbols.draw(shots, rng)
        symbols, shot_of = [], []
        if self._live_coins.size:
            rows, coin_shots = bitops.nonzero_bits(draw.coins[self._live_coins])
            symbols.append(draw.coin_symbols[self._live_coins][rows])
            shot_of.append(coin_shots)
        for hits in draw.hits:
            set_bits = _pattern_bits(hits.symbols_per_site).take(
                hits.patterns, axis=0
            )
            hit, bit = np.divmod(np.flatnonzero(set_bits), hits.symbols_per_site)
            symbols.append(hits.symbols.take(hit) + bit)
            shot_of.append(hits.shots.take(hit))
        out = np.repeat(columns[:1], shots, axis=0)
        if sum(map(len, symbols)):
            symbol_index = np.concatenate(symbols)
            shot_index = np.concatenate(shot_of)
            # uint16 keys take numpy's linear-time radix sort.
            keys = shot_index.astype(np.uint16) if shots <= 1 << 16 else shot_index
            order = np.argsort(keys, kind="stable")
            shot_index = shot_index.take(order)
            starts = np.flatnonzero(
                np.concatenate(([True], shot_index[1:] != shot_index[:-1]))
            )
            # take: ~10x faster than fancy indexing for a few-word row.
            out[shot_index[starts]] ^= np.bitwise_xor.reduceat(
                columns.take(symbol_index.take(order), axis=0), starts, axis=0
            )
        return bitops.unpack_rows(out, self._derived().shape[0])

    def _sample_rows(
        self,
        matrix: np.ndarray,
        shots: int,
        rng: int | np.random.Generator | None,
        strategy: str,
        symbol_values: np.ndarray | None = None,
    ) -> np.ndarray:
        if shots < 1:
            raise ValueError("shots must be positive")
        rng = as_generator(rng)
        if strategy == "auto":
            strategy = self.choose_strategy()
        if symbol_values is None:
            symbol_values = self.symbols.sample_symbol_major(shots, rng)
        if strategy == "dense":
            b_shot_major = transpose_bitmatrix(symbol_values, self.width, shots)
            return mul_packed_abt(b_shot_major, matrix)
        if strategy == "sparse":
            supports = self._supports_for(matrix)
            packed = mul_sparse_columns(supports, symbol_values)
            return np.ascontiguousarray(
                bitops.unpack_rows(
                    transpose_bitmatrix(packed, matrix.shape[0], shots),
                    matrix.shape[0],
                )
            )
        raise ValueError(f"unknown strategy {strategy!r}")


@functools.cache
def _pattern_bits(symbols_per_site: int) -> np.ndarray:
    """``[pattern, j]``: whether joint pattern ``pattern`` sets symbol ``j``."""
    patterns = np.arange(1 << symbols_per_site)[:, None]
    return (patterns >> np.arange(symbols_per_site) & 1).astype(bool)


def compile_sampler(circuit: Circuit) -> CompiledSampler:
    """Run Algorithm 1's Initialization on ``circuit`` and return the
    reusable sampler (Algorithm 1's Sampling procedure).

    Traced as ``core.symbolic_pass`` (the traversal) and
    ``core.sampler_build`` (the matrices of Eq. 4)."""
    with obs.span("core.symbolic_pass"):
        simulator = SymPhaseSimulator.from_circuit(circuit)
    with obs.span("core.sampler_build"):
        return CompiledSampler(simulator)
