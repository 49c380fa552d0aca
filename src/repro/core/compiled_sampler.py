"""Sampling measurement outcomes as GF(2) matrix multiplication (Eq. 4).

``CompiledSampler`` freezes the outcome of Algorithm 1's Initialization:
the packed measurement matrix ``M`` (one bit-vector per measurement), the
detector/observable matrices derived from it, and the symbol table.  A
sample is ``M_samples = M · Bᵀ`` for the symbol-value matrix ``B``.
Drawing the symbol values costs in proportion to the noise symbols that
are *set*: each channel cluster's non-identity outcomes come from one
sparse hit draw (:func:`repro.noise.channels.sample_hits`), and only the
fair measurement coins are drawn bit for bit
(:meth:`~repro.core.symbols.SymbolTable.draw`).  Three kernels evaluate
Eq. 4 on that draw, all bitwise equal for one generator:

* **dense** — fill ``B``, then a packed parity-of-AND matmul, cost
  O(n_smp · n_m · n_s / 64);
* **sparse** — fill ``B``, then per-row XOR of the symbol rows of ``B``
  (the paper's sparse implementation, one gather and one
  ``bitwise_xor.reduceat``), cost O(n_smp · nnz / 64);
* **hit scatter** — no ``B``: at QEC noise strengths the draw is far
  sparser than ``M``, so the kernel walks the hits instead.

The scatter reads one row per hit.  Every noise site has one row per
joint pattern of its symbols, which holds what that outcome does to the
output; the draw hands each hit its row index
(:attr:`~repro.core.symbols.Hits.rows`), so no hit is split into its
set symbols at sample time.  ``sample_detectors`` XORs each hit's row
(the XOR of its pattern's packed detector+observable columns, from
:func:`~repro.gf2.bitops.pattern_combos`), and the column of every set
live coin, into its shot's row, starting from the constant column: one
gather and one ``bitwise_xor.at``, at O(n_smp · hits ·
words_for(n_det + n_obs)).  ``sample`` runs sparse Eq. 4 on the fair
coins alone (many measurements carry one), complements the rows of
``s_0``, transposes once to shot-major rows and then flips, for each
hit, the measurement columns of the symbols its pattern sets (a
per-pattern table of runs of consecutive set symbols, each run one
range of a symbol-major CSR of ``M``'s columns; one ``bitwise_xor.at``
per run, over the hits whose pattern has it),
at O(n_smp · hits · column length).  Both tables are built on a
sampler's first scatter.

``strategy="auto"`` is one rule for both methods
(:meth:`CompiledSampler.scatter_cost_ratio`): the scatter while its
expected words per shot are at most Eq. 4's for the call's shot count,
else Eq. 4, which is sparse unless supports are a sizable fraction of
``n_s`` (the dense matmul wins only on small or dense circuits).  Eq. 4
pays for filling ``B``, per nonzero, and a fixed cost per row and call,
so small calls and low noise favour the scatter (the crossover is
measured in ``benchmarks/bench_noise_draw.py``).  ``sample_detectors``
on surface d = 5 runs it up to p ≈ 0.13 on 512-shot calls and up to
p ≈ 0.07 on 4096-shot ones; ``sample`` on 5000-shot calls runs it up
to p ≈ 0.009 on surface d = 5 and p ≈ 0.012 on the Fig. 3c circuit,
including the paper's p = 0.001 workload.
``symbol_values=`` (a drawn ``B``) always runs Eq. 4.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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
#: Sparse Eq. 4's fixed cost per row and call (transpose, unpack and its
#: share of the reduce), in the words of :meth:`scatter_cost_ratio`; per
#: shot it weighs ``_EQ4_ROW_WORDS / shots``.  Fitted, with
#: :data:`_XOR_AT_WORDS`, to ``bench_noise_draw.py``'s ``sample_detectors``
#: and ``sample`` tables: every row where one kernel is more than 5%
#: faster gets that kernel from ``auto`` for any value from 120 to 520
#: (over two runs of the bench), and this is near the middle.  On
#: surface d = 5 the scatter then runs up to p ~ 0.13 on 512-shot calls
#: and p ~ 0.07 on 4096-shot ones.
_EQ4_ROW_WORDS = 320.0
#: The record scatter's cost per measurement a hit flips (one
#: ``bitwise_xor.at`` entry and its share of the hit's expansion into
#: column ranges), in the words of :meth:`scatter_cost_ratio`.  Any value
#: from 4 to 5.25 fits the tables (see :data:`_EQ4_ROW_WORDS`): 5000-shot
#: calls at p = 0.01 time the scatter ~1.4x faster on Fig. 3c n = 128
#: and 1.03-1.2x slower on surface d = 5.
_XOR_AT_WORDS = 4.5


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
        self.observable_matrix = self._combine(simulator.observables)

        self._supports: list[np.ndarray] | None = None
        self._derived_matrix: np.ndarray | None = None
        self._derived_supports: list[np.ndarray] | None = None
        self._costs: dict[bool, tuple[float, float]] = {}

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

    def measurement_expression(self, index: int) -> str:
        """Measurement ``index``'s symbolic expression, e.g.
        ``"X3 ^ m5(q0)"`` (read off row ``index`` of ``M``)."""
        return self.symbols.expression(self.measurement_matrix[index])

    def reference(self) -> np.ndarray:
        """Eq. 4 with every symbol 0: the constant column ``s_0`` of
        ``M`` as a uint8 record of shape (n_m,).

        That is the noiseless record with every random outcome pinned to
        0, the reference sample a Pauli-frame sampler XORs its flips
        into (the tableau's ``reference_sample`` computes the same bits
        in a second traversal)."""
        return (self.measurement_matrix[:, 0] & np.uint64(1)).astype(np.uint8)

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

    def scatter_cost_ratio(
        self, shots: int, matrix: np.ndarray | None = None
    ) -> float:
        """Per-shot cost of the hit scatter over that of sparse Eq. 4 on
        a call of ``shots`` shots of ``matrix``: the stacked
        detector+observable matrix (the default, ``sample_detectors``)
        or :attr:`measurement_matrix` (``sample``).

        The scatter pays per hit: every noise site's expected
        non-identity outcomes, each weighted by the words its (site,
        pattern) row costs (:meth:`_scatter_costs`).  Sparse Eq. 4
        fills ``B`` and XORs one 64-shot word per nonzero of ``matrix``,
        ``(width + nnz) / 64`` words per shot, plus a fixed
        ``_EQ4_ROW_WORDS`` per row and call: on repetition memories (few
        nonzeros per row) and small calls the per-row work, not the
        nonzeros, is Eq. 4's cost.
        """
        if matrix is None:
            matrix = self._derived()
        if matrix is not self.measurement_matrix and matrix is not self._derived():
            raise ValueError("matrix must be the measurement or derived matrix")
        scatter_words, eq4_words = self._scatter_costs(matrix)
        rows = matrix.shape[0]
        eq4_words += _EQ4_ROW_WORDS * rows / max(shots, 1)
        return scatter_words / eq4_words

    def _scatter_costs(self, matrix: np.ndarray) -> tuple[float, float]:
        """The shot-independent parts of :meth:`scatter_cost_ratio`: the
        scatter's expected words per shot and Eq. 4's words per shot
        (cached for the two standing matrices).

        Each hit costs the scatter one row of its per-(site, pattern)
        table.  The detector scatter XORs a whole packed row of
        ``words_for(rows)`` words per hit, ``p_hit`` per site and shot,
        and a column per set live coin (each set half the time).  The
        record scatter flips the measurements of each symbol the hit's
        pattern sets, ``_XOR_AT_WORDS`` apiece, and runs Eq. 4 on the
        coins, which therefore count as Eq. 4 nonzeros.  Eq. 4 fills
        ``B``, ``width / 64`` words per shot, and XORs one word per
        nonzero of ``matrix`` per 64 shots.
        """
        records = matrix is self.measurement_matrix
        if records in self._costs:
            return self._costs[records]
        _, clusters = self.symbols.draw_plan()
        if records:
            plan = self._record_plan
            # The plan holds every nonzero of M once: constant, coin or
            # noise entry.
            nonzeros = (
                int(np.count_nonzero(plan.constants))
                + plan.coin_indices.size + plan.noise_words.size
            )
            column_words = _XOR_AT_WORDS * np.diff(plan.noise_indptr)
            scatter = plan.coin_indices.size / 64.0
            for cluster in clusters:
                k = cluster.symbols_per_site
                probs = np.asarray(cluster.probabilities, dtype=np.float64)
                set_probability = probs @ _pattern_bits(k) / probs.sum()
                columns = column_words[cluster.offsets[:, None] + np.arange(k)]
                scatter += float(columns.sum(axis=0) @ set_probability)
        else:
            words = bitops.words_for(matrix.shape[0])
            scatter = 0.5 * self._live_coins.size * words
            for cluster in clusters:
                scatter += words * cluster.offsets.size * cluster.hits.p_hit
            nonzeros = int(bitops.popcount_rows(matrix).sum())
        self._costs[records] = scatter, (self.width + nonzeros) / 64.0
        return self._costs[records]

    def detector_strategy(self, shots: int) -> str:
        """What ``sample_detectors(shots, strategy="auto")`` runs."""
        return self._auto_strategy(shots, self._derived())

    def record_strategy(self, shots: int) -> str:
        """What ``sample(shots, strategy="auto")`` runs."""
        return self._auto_strategy(shots, self.measurement_matrix)

    def _auto_strategy(self, shots: int, matrix: np.ndarray) -> str:
        """The scatter while :meth:`scatter_cost_ratio` is at most
        ``_SCATTER_COST_RATIO``, else :meth:`choose_strategy`'s Eq. 4."""
        if self.scatter_cost_ratio(shots, matrix) <= _SCATTER_COST_RATIO:
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
        """Sample measurement records: uint8 array of shape (shots, n_m).

        ``strategy`` is ``"auto"`` (:meth:`record_strategy`),
        ``"scatter"``, ``"sparse"`` or ``"dense"``; all four return the
        same bits for the same generator.  ``symbol_values`` (a ``B``
        from :meth:`draw_symbols`) runs Eq. 4 on it, never the scatter.
        """
        if symbol_values is None:
            rng = as_generator(rng)
            if strategy == "auto":
                strategy = self.record_strategy(shots)
            if strategy == "scatter":
                return self._scatter_records(shots, rng)
        elif strategy == "scatter":
            raise ValueError("the scatter reads a draw, not symbol_values")
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
        ``strategy`` is ``"auto"`` (:meth:`detector_strategy`),
        ``"scatter"``, ``"sparse"`` or ``"dense"``; all four return the
        same bits for the same generator.
        """
        rng = as_generator(rng)
        if strategy == "auto":
            strategy = self.detector_strategy(shots)
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

    @functools.cached_property
    def _detector_rows(self) -> np.ndarray:
        """The detector scatter's table: each cluster's per-(site,
        pattern) rows, the XOR of the pattern's symbol columns
        (:func:`~repro.gf2.bitops.pattern_combos` of :attr:`_columns`),
        then the column of every live coin (built on first use)."""
        columns = self._columns
        coin_symbols, clusters = self.symbols.draw_plan()
        tables = []
        for cluster in clusters:
            k = cluster.symbols_per_site
            combos = bitops.pattern_combos(
                columns[cluster.offsets[:, None] + np.arange(k)]
            )
            tables.append(combos.reshape(combos.shape[0] << k, columns.shape[1]))
        tables.append(columns[coin_symbols[self._live_coins]])
        return np.concatenate(tables)

    def _scatter(self, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Detector+observable rows by hit scatter: every hit of the draw
        XORs its (site, pattern) row, and every set live coin its
        column, into its shot's row.

        The rows are XORs of symbol columns, so this is exactly
        ``derived · Bᵀ`` for the ``B`` that :meth:`draw_symbols` returns
        from the same generator.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        table = self._detector_rows
        draw = self.symbols.draw(shots, rng)
        rows = [hits.rows for hits in draw.hits]
        shot_of = [hits.shots for hits in draw.hits]
        if self._live_coins.size:
            coins, coin_shots = bitops.nonzero_bits(draw.coins[self._live_coins])
            rows.append(coins + self.symbols.pattern_rows())
            shot_of.append(coin_shots)
        out = np.repeat(self._columns[:1], shots, axis=0)
        if rows:
            # take: ~10x faster than fancy indexing for a few-word row.
            np.bitwise_xor.at(
                out, np.concatenate(shot_of),
                table.take(np.concatenate(rows), axis=0),
            )
        return bitops.unpack_rows(out, self._derived().shape[0])

    @functools.cached_property
    def _record_plan(self) -> _RecordPlan:
        """:class:`_RecordPlan` of the measurement matrix, read from one
        :func:`~repro.gf2.bitops.nonzero_bits` pass (built on first use)."""
        rows, cols = bitops.nonzero_bits(self.measurement_matrix)
        n_m = self.n_measurements
        coin_symbols, _ = self.symbols.draw_plan()
        coin_of = np.full(self.width, -1, dtype=np.int64)
        coin_of[coin_symbols] = np.arange(coin_symbols.size)
        coin = coin_of[cols]
        is_coin = coin >= 0
        constants = np.zeros(n_m, dtype=bool)
        constants[rows[cols == 0]] = True
        # Noise entries column by column: one CSR over every symbol, whose
        # coin and constant columns stay empty.
        noise = ~is_coin & (cols > 0)
        noise_rows = rows[noise].take(np.argsort(cols[noise], kind="stable"))
        return _RecordPlan(
            constants, coin[is_coin], _indptr(rows[is_coin], n_m),
            _indptr(cols[noise], self.width),
            noise_rows >> 6, np.uint64(1) << (noise_rows & 63).astype(np.uint64),
        )

    def _scatter_records(
        self, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Measurement records without ``B``: sparse Eq. 4 on the fair
        coins, the constant column, one transpose to shot-major rows,
        then every hit flips, in its shot's row, the measurements of the
        symbols its (site, pattern) row sets (one ``bitwise_xor.at`` per
        run of consecutive set symbols, over the hits that have it).

        Bitwise ``M · Bᵀ`` for the ``B`` that :meth:`draw_symbols`
        returns from the same generator, like :meth:`_scatter`.
        """
        if shots < 1:
            raise ValueError("shots must be positive")
        plan = self._record_plan
        n_m = self.n_measurements
        draw = self.symbols.draw(shots, rng)
        by_measurement = bitops.xor_reduce_csr(
            draw.coins, plan.coin_indices, plan.coin_indptr
        )
        by_measurement[plan.constants] ^= np.uint64(0xFFFFFFFFFFFFFFFF)
        out = transpose_bitmatrix(by_measurement, n_m, shots)
        # One batch of hits at a time, so the expansion's temporaries stay
        # the size of one sample_hits slab.
        flat = out.reshape(-1)
        for hits in draw.hits:
            cluster = hits.cluster
            k = cluster.symbols_per_site
            local = hits.rows - cluster.base
            lo, hi = _pattern_runs(k)
            patterns = local & ((1 << k) - 1)
            symbols = cluster.offsets.take(local >> k)
            shot_words = hits.shots * out.shape[1]
            # Run r of every hit whose pattern has more than r runs: on
            # k = 4 sites, 10 of the 15 patterns are one run.
            for run in range(lo.shape[1]):
                if run:
                    more = _run_counts(k).take(patterns) > run
                    patterns, symbols = patterns[more], symbols[more]
                    shot_words = shot_words[more]
                first = plan.noise_indptr.take(symbols + lo[:, run].take(patterns))
                counts = plan.noise_indptr.take(symbols + hi[:, run].take(patterns))
                counts -= first
                entries = _ranges(first, counts)
                if not entries.size:
                    continue
                targets = np.repeat(shot_words, counts)
                targets += plan.noise_words.take(entries)
                np.bitwise_xor.at(flat, targets, plan.noise_masks.take(entries))
        return bitops.unpack_rows(out, n_m)

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


class _RecordPlan(NamedTuple):
    """What :meth:`CompiledSampler._scatter_records` reads of ``M``:
    whether each measurement includes ``s_0``; each measurement's coins
    as positions among a draw's coin rows (CSR over measurements); and
    each noise symbol's column as the packed word and bit mask of each
    of its measurements (CSR over symbols, empty for every other
    symbol)."""

    constants: np.ndarray
    coin_indices: np.ndarray
    coin_indptr: np.ndarray
    noise_indptr: np.ndarray
    noise_words: np.ndarray
    noise_masks: np.ndarray


def _ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``first[i], ..., first[i] + counts[i] - 1`` for every ``i``, end
    to end (an empty range for a zero count)."""
    ends = np.cumsum(counts)
    if not ends.size:
        return ends
    return np.arange(ends[-1]) + np.repeat(first - ends + counts, counts)


def _indptr(keys: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointers of ``n`` rows whose entries, stored row by row,
    lie in rows ``keys``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr


@functools.cache
def _pattern_bits(symbols_per_site: int) -> np.ndarray:
    """``[pattern, j]``: whether joint pattern ``pattern`` sets symbol ``j``."""
    patterns = np.arange(1 << symbols_per_site)[:, None]
    return (patterns >> np.arange(symbols_per_site) & 1).astype(bool)


@functools.cache
def _pattern_runs(symbols_per_site: int) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)``, each ``(2**k, ceil(k / 2))``: joint pattern ``t``
    sets the site's symbols ``lo[t, r] .. hi[t, r] - 1`` over its runs
    ``r`` of consecutive set bits (unused runs are empty).  A site's
    symbols are consecutive, so each run is one contiguous range of
    :class:`_RecordPlan`'s noise CSR."""
    bits = _pattern_bits(symbols_per_site)
    lo = np.zeros((bits.shape[0], (symbols_per_site + 1) // 2), dtype=np.int64)
    hi = np.zeros_like(lo)
    for pattern, row in enumerate(bits):
        edges = np.flatnonzero(np.diff(row, prepend=False, append=False))
        lo[pattern, : edges.size // 2] = edges[0::2]
        hi[pattern, : edges.size // 2] = edges[1::2]
    return lo, hi


@functools.cache
def _run_counts(symbols_per_site: int) -> np.ndarray:
    """How many of :func:`_pattern_runs`' runs each joint pattern uses."""
    lo, hi = _pattern_runs(symbols_per_site)
    return (hi > lo).sum(axis=1)


def compile_sampler(circuit: Circuit) -> CompiledSampler:
    """Run Algorithm 1's Initialization on ``circuit`` and return the
    reusable sampler (Algorithm 1's Sampling procedure).

    Traced as ``core.symbolic_pass`` (the traversal) and
    ``core.sampler_build`` (the matrices of Eq. 4)."""
    with obs.span("core.symbolic_pass"):
        simulator = SymPhaseSimulator.from_circuit(circuit)
    with obs.span("core.sampler_build"):
        return CompiledSampler(simulator)
