"""Compile-once batched MWPM decoding.

:class:`MatchingDecoder` rediscovers shortest paths while decoding:
every defect pair of every syndrome walks Dijkstra through a NetworkX
graph (amortized by a path cache, but still per-pair Python work).  The
compiled decoder does all path-finding at **compile time** instead:

* the decoding graph is lowered into flat CSR adjacency arrays straight
  from the DEM's array form (its packed signature rows: the graphlike
  rows are the edges), without NetworkX or per-mechanism objects; they
  equal the walk of
  :func:`~repro.decoders.matching.build_decoding_graph`'s NetworkX
  graph bit for bit (adjacency order, parallel-edge merge, the p > 0.5
  error);
* an all-pairs distance matrix and a per-pair *path observable mask*
  (the XOR of edge masks along the shortest path) are built with array
  operations over slabs of sources at once: a min-plus Bellman-Ford
  relaxation for the distances, masks spread along shortest-path edges
  and then checked against every tied shortest path.  Only sources whose
  tied paths carry different masks (12 of 337 at d=7, rounds = 7) run
  the exact per-source Dijkstra, which picks the path NetworkX picks.
  The uint8 mask table is read off the packed path words by shift and
  mask;
* decoding a batch then dedupes identical syndromes and runs four
  tiers over the unique rows:

  1. **gathers** — one- and two-defect rows (the bulk at QEC-relevant
     error rates) read their single precomputed pair;
  2. **split** — rows with more than :data:`_SPLIT_MIN_DEFECTS` defects
     fall apart into independent clusters where that is exact
     (:meth:`CompiledMatchingDecoder._clusters`): a defect nearer the
     boundary than to any partner is never paired across a gap, so
     each cluster decodes alone (the locality sparse blossom exploits);
  3. **DP** — every piece of up to 18 nodes is matched exactly by one
     vectorized subset dynamic program per defect-count group
     (:func:`_min_pairing`, in memory-bounded slabs) over the weights
     of its node pairs, and a row predicts the XOR of its pieces;
  4. **blossom** — a row with a piece past the DP ceiling, a near-tie
     or an unreachable pair goes whole, one row at a time, to an exact
     blossom matcher on the dense distance submatrix
     (:func:`~repro.decoders.blossom.min_weight_matching`): lists
     indexed by vertex, no graph objects.

There is one batch path, ``decode_chunks_packed``: a list of packed-wire
chunks, each with its own zero-row short-circuit and void-view dedupe,
whose unique rows go to the decode core together as one CSR-style defect
view (defect extraction straight from the uint64 words).
``decode_batch_packed`` is that path on one chunk, and ``decode_batch``
packs its rows and runs it.

Predictions are bitwise identical to :class:`MatchingDecoder`: the
vectorized tables equal the CSR Dijkstra's bit for bit, and that
Dijkstra mirrors NetworkX's traversal exactly (same strictly-improving
relaxation, insertion-order tie-breaking on equal distances, adjacency
iteration in edge-insertion order); the dynamic program's matching is
used only where every near-optimal pairing predicts the same
correction (the split only where that carries over from the clusters
to the row), and everything else goes through a port of the
``nx.max_weight_matching`` call the reference makes that scans in the
reference's order, so it returns the same matching, ties included.
"""

from __future__ import annotations

import math
import os
from functools import cached_property
from heapq import heappop, heappush
from itertools import count
from typing import Sequence

import numpy as np

import repro.obs as obs
from repro.decoders.blossom import min_weight_matching
from repro.decoders.matching import (
    BOUNDARY,
    edge_weight,
    negative_edge_error,
)
from repro.decoders.registry import check_packed_syndromes, check_syndromes
from repro.dem.model import DetectorErrorModel
from repro.gf2 import bitops


def _count_decode_rows(total: int, nonzero: int, unique: int) -> None:
    """Per-worker dedupe-effectiveness counters for the packed decode
    path: of ``total`` rows, ``nonzero`` carried defects and only
    ``unique`` of those actually ran the decode core."""
    pid = str(os.getpid())
    obs.counter("repro_decode_rows_total", pid=pid).inc(total)
    obs.counter("repro_decode_nonzero_rows_total", pid=pid).inc(nonzero)
    obs.counter("repro_decode_unique_rows_total", pid=pid).inc(unique)


# Defect sets padding to more nodes than this go to the blossom
# matcher.  The dynamic program visits Fibonacci-many subsets (4,181 at
# k=18, ~2.6x more per extra pair); measured per row at chunk-sized
# batches, it still beats the matcher at 18 nodes on the d=7 decode
# workload (~0.27 vs ~0.67 ms) but loses at 20 on both surface
# workloads (d=7: ~0.99 vs ~0.64 ms; d=5, 512-shot chunks: ~3.5 vs
# ~1.2 ms).
_MAX_DP_NODES = 18
# The dynamic program's memory budget: a defect-count group runs in
# slabs of rows whose estimated working set (see _dp_slab_rows; within
# ~15% of tracemalloc peaks for k = 6..18, 195 against 168 bytes a row
# at k = 4) stays within 512 KiB, but never in slabs of fewer than
# _DP_MIN_SLAB_ROWS rows.  A call's fixed cost grows from ~0.07 ms at
# k = 4 to ~1.6 ms at k = 18, so small slabs of wide groups would pay it
# over and over; the floor keeps d=7 memory's k = 14 and k = 18 groups
# (up to ~300 and ~28 rows per 4096 shots) whole.  The real bound is
# therefore the larger of 512 KiB and 320 rows: ~1.2 MB at k = 10, ~58 MB
# at k = 18.  A 32,768-shot d=5 batch's k = 4..8 groups (~7000, ~3300
# and ~1300 rows) run in 3-4 slabs each; their decode time is unchanged
# within noise.
_DP_SLAB_BYTES = 1 << 19
_DP_MIN_SLAB_ROWS = 320
# Rows with more defects than this are split into independent clusters
# before the dynamic program.  The split pays only where the DP it cuts
# is costly: per batch (sum of per-chunk best-of-9 timings against the
# unsplit core), d=7 4096-shot batches take 80-91 ms unsplit and 46-54
# ms splitting above 14 defects (46-51 ms above 12, 54-60 ms above 16),
# while 512-shot d=5 chunks (~0.5 rows above 12 defects each, mostly
# single clusters) cost ~3% more splitting above 12 and at most ~1.5%
# (within noise) above 14.
_SPLIT_MIN_DEFECTS = 14
# Two pairings closer than this in total weight are treated as tied;
# float noise across differently-ordered sums is ~1e-13 at QEC weight
# scales, while mathematically distinct totals differ by far more.
_TIE_TOL = 1e-9
# Bytes of one (CSR slots, sources) float64 or uint64 temporary in the
# all-pairs compile; the live set peaks at about twice that plus byte
# masks, so the compile adds ~1 MB to peak memory however large the
# graph.  Measured at d=9, r=9 memory, sources per slab (8 here) barely
# move the compile time once past a few.
_ALL_PAIRS_SLAB_BYTES = 1 << 19

_PLANS: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def _plan(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The subset dynamic program's state plan for ``k`` nodes.

    A state is the set of still-unpaired nodes; each step pairs the
    lowest of them with any other, so from the full set only
    Fibonacci-many subsets are reachable (233 at k=12 against 10,395
    pairings).  Level ``t`` holds the states with ``t`` pairs made, as
    two ``(states, candidates)`` arrays: ``pair`` — the index of the
    candidate pair ``(low, j)`` among the ``k (k - 1) / 2`` pairs
    ``i < j`` in ``np.triu_indices`` order — and ``child`` — the index
    of the remaining state in level ``t + 1``.  The last level leads to
    the single empty state.  Built level by level with array operations.
    """
    if k not in _PLANS:
        bits = np.int64(1) << np.arange(k, dtype=np.int64)
        states = np.array([(1 << k) - 1], dtype=np.int64)
        levels = []
        while states[0]:
            member = (states[:, None] & bits) != 0
            low = member.argmax(axis=1)
            member[np.arange(states.size), low] = False
            partner = np.nonzero(member)[1].reshape(states.size, -1)
            remaining = states[:, None] - bits[low][:, None] - bits[partner]
            states, child = np.unique(remaining, return_inverse=True)
            # Pairs before row ``low`` of the upper triangle, then j's
            # place within that row.
            first = low * (2 * k - low - 1) // 2
            levels.append((
                first[:, None] + partner - low[:, None] - 1,
                child.reshape(partner.shape),
            ))
        _PLANS[k] = levels
    return _PLANS[k]


def _min_pairing(
    dist: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-weight perfect pairing of many rows at once.

    Each row is ``k`` nodes, read as their ``k (k - 1) / 2`` pairs
    ``i < j`` in ``np.triu_indices(k, 1)`` order: ``dist`` is the
    ``(pairs, rows)`` pair weights and ``masks`` the ``(pairs,
    n_observables, rows)`` bool pair corrections.  Runs ``f[S] = min_j
    dist[low(S), j] + f[S - {low(S), j}]`` over :func:`_plan` from the
    empty set up, vectorized over rows, and returns per row the optimal
    total, the correction of the pairings within :data:`_TIE_TOL` of it
    (the XOR of their pairs' masks) and an *ambiguous* flag.  A state is
    ambiguous when its near-optimal candidates predict different
    corrections or one leads to an ambiguous state, so an unflagged
    row's correction is the one every pairing within ``_TIE_TOL`` of the
    optimum predicts (a flagged row's is meaningless).  Rows with no
    finite pairing return an infinite total.
    """
    pairs, rows = dist.shape
    k = (1 + math.isqrt(1 + 8 * pairs)) // 2
    best = np.zeros((1, rows))
    prediction = np.zeros((1, masks.shape[1], rows), dtype=bool)
    ambiguous = np.zeros((1, rows), dtype=bool)
    for pair, child in reversed(_plan(k)):
        totals = dist[pair]
        totals += best[child]
        best = totals.min(axis=1)
        near = totals <= best[:, None] + _TIE_TOL
        # An unambiguous state's near candidates all agree, so the OR
        # over them is its correction; no argmin is needed.
        corrections = masks[pair] ^ prediction[child]
        prediction = (near[:, :, None] & corrections).any(axis=1)
        zeros = (near[:, :, None] & ~corrections).any(axis=1)
        tied = (near & ambiguous[child]).any(axis=1)
        ambiguous = (prediction & zeros).any(axis=1) | tied
    return best[0], prediction[0].T.astype(np.uint8), ambiguous[0]


def _dp_slab_rows(k: int, n_observables: int) -> int:
    """Rows of a ``k``-node defect-count group one :func:`_min_pairing`
    call takes (see :data:`_DP_SLAB_BYTES`).  A row costs, per node pair,
    two int32 indices, its float64 weight and its mask bytes (gathered
    and as bool), and per candidate of the widest level its float64
    total and child optimum plus the bool near flag and corrections."""
    widest = max(pair.size for pair, _ in _plan(k))
    row_bytes = (
        k * (k - 1) // 2 * (16 + 2 * n_observables)
        + widest * (16 + 4 * n_observables)
    )
    return max(_DP_MIN_SLAB_ROWS, _DP_SLAB_BYTES // row_bytes)


class CompiledMatchingDecoder:
    """MWPM decoder lowered to flat arrays with precomputed paths."""

    def __init__(self, dem: DetectorErrorModel):
        self.n_detectors = dem.n_detectors
        self.n_observables = dem.n_observables
        # The two compile phases are spans (inside the engine's
        # cache.build.decoder), so --profile and the stage-seconds
        # series split the compile.
        with obs.span("decoder.graph"):
            self._lower(dem)
        with obs.span("decoder.all_pairs"):
            self._dist, self._mask, exact = self._all_pairs()
        if obs.is_metrics():
            obs.counter(
                "repro_decoder_exact_sources_total", pid=str(os.getpid())
            ).inc(exact)

    def _lower(self, dem: DetectorErrorModel) -> None:
        """CSR lowering of the decoding graph, straight from the DEM's
        :attr:`~repro.dem.model.DetectorErrorModel.arrays`: detectors
        0..n-1, boundary -> index n.

        The graphlike rows (one or two detector bits) are edges, read
        from one :func:`~repro.gf2.bitops.nonzero_bits_csr` pass, their
        masks straight from the observable words.  The arrays equal the
        CSR walk of
        :func:`~repro.decoders.matching.build_decoding_graph`'s NetworkX
        graph bit for bit: each row lists its neighbours in
        edge-creation order (the order the reference's Dijkstra visits
        and tie-breaks by), parallel edges merge in walk order (equal
        masks XOR-convolve, else the lighter edge stays, the first on a
        tie), and the p > 0.5 error names the same edge.  Weights are
        the scalar :func:`~repro.decoders.matching.edge_weight`, so they
        round as the reference's do.
        """
        n = self.n_detectors
        self._boundary = n
        arrays = dem.arrays
        counts, bits = bitops.nonzero_bits_csr(arrays.detectors)
        (rows,) = np.nonzero((counts == 1) | (counts == 2))
        first_bit = (np.cumsum(counts) - counts)[rows]
        u = bits[first_bit].astype(np.int64)
        # A one-bit row's second index is clamped in bounds, then replaced.
        second = bits[np.minimum(first_bit + 1, bits.size - 1)]
        v = np.where(counts[rows] == 2, second, n).astype(np.int64)
        # Edges in creation order: the walk row that first names each pair.
        _, created, edge_of = np.unique(
            u * (n + 1) + v, return_index=True, return_inverse=True
        )
        order = np.argsort(created)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        edge_of = rank[np.asarray(edge_of).reshape(-1)]
        created = created[order]
        u, v = u[created], v[created]
        # Each edge's probability, weight and mask row, then its later
        # walk rows merged in turn.
        mask_row = rows[created]
        probabilities = arrays.probabilities[mask_row].tolist()
        weights = list(map(edge_weight, probabilities))
        later = np.ones(rows.size, dtype=bool)
        later[created] = False
        masks = arrays.observables
        for row, edge in zip(rows[later].tolist(), edge_of[later].tolist()):
            p = float(arrays.probabilities[row])
            if np.array_equal(masks[row], masks[mask_row[edge]]):
                q = probabilities[edge]
                probabilities[edge] = p * (1 - q) + q * (1 - p)
                weights[edge] = edge_weight(probabilities[edge])
            elif edge_weight(p) < weights[edge]:
                probabilities[edge], weights[edge] = p, edge_weight(p)
                mask_row[edge] = row
        # Two CSR slots per edge; a row lists its slots in creation order.
        n_edges = u.size
        owner = np.concatenate([u, v])
        self._indices = np.concatenate([v, u])
        slot_edge = np.tile(np.arange(n_edges), 2)
        by_row = np.argsort(owner * max(n_edges, 1) + slot_edge)
        self._owner, self._indices = owner[by_row], self._indices[by_row]
        slot_edge = slot_edge[by_row]
        self._indptr = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(
            np.bincount(self._owner, minlength=n + 1), out=self._indptr[1:]
        )
        self._weights = np.array(weights, dtype=np.float64)[slot_edge]
        negative = self._weights < 0
        if negative.any():
            # The reference walks the boundary's row first.
            walk = np.roll(np.arange(slot_edge.size), -int(self._indptr[n]))
            slot = int(walk[negative[walk].argmax()])
            a, b = int(self._owner[slot]), int(self._indices[slot])
            if a == n:
                a, b = b, a  # name the detector first
            edge = int(slot_edge[slot])
            raise negative_edge_error(
                a, BOUNDARY if b == n else b, probabilities[edge], weights[edge]
            )
        # Edge observable masks as uint64 words, so paths XOR whole
        # words; one word up to 64 observables.
        self._edge_words = masks[mask_row[slot_edge]]

    # -- all-pairs tables ------------------------------------------------------

    def _all_pairs(self) -> tuple[np.ndarray, np.ndarray, int]:
        """All-pairs distances and path masks, plus the number of source
        rows the exact Dijkstra resolved.

        Sources go in slabs sized so one ``(CSR slots, sources)``
        temporary stays within :data:`_ALL_PAIRS_SLAB_BYTES`: distances
        by :meth:`_relax`, masks by :meth:`_spread_masks`, and the rows
        whose shortest paths tie with different masks by
        :meth:`_exact_row`.  The result is bitwise identical to running
        :meth:`_exact_row` from every node (:meth:`_exact_tables`).
        """
        n_nodes, n_words = self._indptr.size - 1, self._edge_words.shape[1]
        dist = np.empty((n_nodes, n_nodes), dtype=np.float64)
        mask = np.empty((n_nodes, n_nodes, self.n_observables), np.uint8)
        width = 8 * max(self._indices.size, n_nodes * n_words, 1)
        slab = max(1, _ALL_PAIRS_SLAB_BYTES // width)
        exact = 0
        for start in range(0, n_nodes, slab):
            sources = np.arange(start, min(start + slab, n_nodes))
            part = self._relax(sources)
            words, tied = self._spread_masks(part, sources)
            for column in np.flatnonzero(tied):
                part[:, column], words[:, :, column] = self._exact_row(
                    int(sources[column])
                )
            exact += int(np.count_nonzero(tied))
            dist[sources] = part.T
            mask[sources] = self._unpack(words.transpose(2, 1, 0))
        return dist, mask, exact

    def _relax(self, sources: np.ndarray) -> np.ndarray:
        """``(nodes, sources)`` shortest distances from a slab of sources.

        Bellman-Ford min-plus over the CSR slots, every source at once:
        each round relaxes the slots leaving a node whose distance
        changed in the round before (``dist[v] + w``) and takes the
        minimum per target row with ``np.minimum.reduceat``, until no
        distance improves.  With ``w >= 0``
        (:func:`~repro.decoders.matching.build_decoding_graph` rejects
        negative weights) both this fixpoint and Dijkstra are the
        minimum over paths of the left-to-right float sum — rounding is
        monotone, so adding an edge never lowers a sum — hence the same
        floats.
        """
        indices, owner = self._indices, self._owner
        dist = np.full((self._indptr.size - 1, sources.size), np.inf)
        dist[sources, np.arange(sources.size)] = 0.0
        changed = np.zeros(dist.shape[0], dtype=bool)
        changed[sources] = True
        # One candidate buffer for every round, so rounds never hold two.
        buffer = np.empty((indices.size, sources.size))
        while True:
            # Slots are grouped by target row, so the active ones are too.
            (active,) = np.nonzero(changed[indices])
            if not active.size:
                return dist
            target = owner[active]
            first = np.flatnonzero(np.diff(target, prepend=-1))
            target = target[first]
            # mode="clip" writes straight into ``out`` (the default
            # "raise" buffers a copy); every index is in range anyway.
            candidates = np.take(
                dist, indices[active], axis=0, out=buffer[:active.size],
                mode="clip",
            )
            candidates += self._weights[active, None]
            best = np.minimum.reduceat(candidates, first, axis=0)
            current = np.take(dist, target, axis=0)
            improved = (best < current).any(axis=1)
            dist[target] = np.minimum(current, best)
            changed[:] = False
            changed[target[improved]] = True

    def _spread_masks(
        self, dist: np.ndarray, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(words, nodes, sources)`` packed path masks for
        :meth:`_relax`'s distances, and per source whether they need the
        exact Dijkstra (``tied``).

        A slot is *tight* when ``dist[v] + w == dist[u]``; Dijkstra's
        predecessor edges are all tight.  Each reached node takes a tight
        slot from a strictly nearer node as parent (none, and mask 0,
        when zero-weight edges leave it none), and the masks XOR up that
        tree by pointer doubling.  Then every tight slot is checked:
        ``mask[v] ^ m == mask[u]``.  When all agree, every shortest path
        has the same mask, so the one NetworkX picks does too — whichever
        parents were taken (by induction along Dijkstra's own tree, from
        ``mask[source] = 0``).  A source with a disagreeing slot is
        flagged.
        """
        indices, owner = self._indices, self._owner
        n_nodes, n_words = dist.shape[0], self._edge_words.shape[1]
        width = sources.size
        words = np.zeros((n_words, n_nodes * width), dtype=np.uint64)
        tied = np.zeros(width, dtype=bool)
        if indices.size and n_words:
            # Tight slots as flat (node, source) cells u <- v: a few per
            # reached cell, against ~10 slots per row.  Found a quarter
            # of the slots at a time to bound the float temporaries;
            # inf - inf is nan, so unreached rows have no tight slot.
            found = []
            step = -(-indices.size // 4)
            for start in range(0, indices.size, step):
                block = slice(start, start + step)
                gap = np.take(dist, indices[block], axis=0)
                gap += self._weights[block, None]
                with np.errstate(invalid="ignore"):
                    gap -= np.take(dist, owner[block], axis=0)
                slot, column = np.nonzero(gap == 0)
                found.append((slot + start, column))
            slot, column = (np.concatenate(part) for part in zip(*found))
            u = owner[slot] * width + column
            v = indices[slot] * width + column
            flat = dist.ravel()
            nearer = flat[v] < flat[u]

            parent = np.arange(n_nodes * width)
            parent[u[nearer]] = v[nearer]
            edge_words = self._edge_words.T
            words[:, u[nearer]] = edge_words[:, slot[nearer]]
            while True:
                grand = np.take(parent, parent)
                if np.array_equal(grand, parent):
                    break
                words ^= np.take(words, parent, axis=1)
                parent = grand

            for word, edge in zip(words, edge_words):
                disagree = (word[v] ^ edge[slot]) != word[u]
                tied[column[disagree]] = True
        return words.reshape(n_words, n_nodes, width), tied

    def _exact_row(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """One source's distances and ``(words, nodes)`` packed path
        masks from the NetworkX-identical :meth:`_dijkstra`.  The mask of
        a node is the XOR of the edge masks up its predecessor tree,
        accumulated by pointer doubling (about log2(depth) array
        rounds)."""
        dist, pred_edge = self._dijkstra(source)
        pred_edge = np.array(pred_edge, dtype=np.int64)
        (reached,) = np.nonzero(pred_edge >= 0)
        parent = np.arange(pred_edge.size)
        parent[reached] = self._owner[pred_edge[reached]]
        words = np.zeros((pred_edge.size, self._edge_words.shape[1]), np.uint64)
        words[reached] = self._edge_words[pred_edge[reached]]
        while (parent != parent[parent]).any():
            words ^= words[parent]
            parent = parent[parent]
        return np.array(dist), words.T

    def _exact_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-source reference build: :meth:`_exact_row` from every
        node.  :meth:`_all_pairs` must reproduce it bit for bit."""
        n_nodes = self._indptr.size - 1
        rows = [self._exact_row(source) for source in range(n_nodes)]
        dist = np.stack([row[0] for row in rows])
        words = np.stack([row[1] for row in rows])
        return dist, self._unpack(words.transpose(0, 2, 1))

    def _unpack(self, words: np.ndarray) -> np.ndarray:
        """``(sources, nodes, words)`` packed masks -> 0/1 mask rows, by
        shift and mask: observable ``o`` is bit ``o % 64`` of word
        ``o // 64``."""
        bit = np.arange(self.n_observables)
        shifted = words[..., bit >> 6] >> (bit & 63).astype(np.uint64)
        return (shifted & np.uint64(1)).astype(np.uint8)

    # -- decoding -----------------------------------------------------------

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict the observable flips for one detector sample."""
        syndrome = np.asarray(syndrome, dtype=np.uint8).reshape(1, -1)
        return self.decode_batch(syndrome)[0]

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many detector samples: shape (shots, n_detectors).

        Packs the rows (any nonzero entry is a defect) and runs
        :meth:`decode_batch_packed`, the one decode path on one chunk."""
        syndromes = check_syndromes(syndromes, self.n_detectors)
        predictions = self.decode_batch_packed(bitops.pack_rows(syndromes != 0))
        return bitops.unpack_rows(predictions, self.n_observables)

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode packed syndromes natively; returns packed predictions
        (the :class:`~repro.decoders.registry.SyndromeDecoder` wire
        format).  :meth:`decode_chunks_packed` on one chunk."""
        return self.decode_chunks_packed([syndromes])[0]

    def decode_chunks_packed(self, chunks: Sequence[np.ndarray]) -> list:
        """Decode a list of packed syndrome chunks in one pass; returns
        each chunk's packed predictions.

        Per chunk, all-zero rows (the bulk at low physical error rates)
        short-circuit, the surviving rows dedupe through a contiguous
        void view, and the row counters count that chunk.  The chunks'
        unique rows then run :meth:`_decode_unique` once, so the DP's
        per-call cost is paid once per batch.  Rows decode
        independently, so each chunk's predictions are bitwise those of
        decoding it alone.  Defect indices come straight from the
        nonzero words, as an int32 CSR stream.

        The working set grows with the batch only by what each row
        must keep: a chunk holds one int32 code per row (its row in the
        batch's prediction table) until the end, and the packed unique
        rows live only until the defect stream is read.
        """
        width = bitops.words_for(self.n_observables)
        codes, uniques, n_unique = [], [], 0
        for syndromes in chunks:
            syndromes = check_packed_syndromes(syndromes, self.n_detectors)
            # A chunk's row r predicts row code[r] of the batch's table,
            # whose row 0 is the all-zero prediction.
            code = np.zeros(syndromes.shape[0], dtype=np.int32)
            codes.append(code)
            nonzero = bitops.nonzero_rows_packed(syndromes)
            if nonzero.size == 0:
                if obs.is_metrics():
                    _count_decode_rows(syndromes.shape[0], 0, 0)
                continue
            unique, inverse = bitops.dedupe_rows_packed(syndromes[nonzero])
            if obs.is_metrics():
                _count_decode_rows(
                    syndromes.shape[0], int(nonzero.size), int(unique.shape[0])
                )
            code[nonzero] = inverse + (n_unique + 1)
            n_unique += unique.shape[0]
            uniques.append(unique)
        table = np.zeros((n_unique + 1, width), dtype=np.uint64)
        if uniques:
            unique = np.concatenate(uniques)
            uniques.clear()
            counts, flat = bitops.nonzero_bits_csr(unique)
            del unique  # the defect stream is all the core reads
            table[1:] = bitops.pack_rows(self._decode_unique(counts, flat))
        return [table[code] for code in codes]

    def _decode_unique(
        self, counts: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """Decode deduplicated syndromes given per-row defect counts and
        the flat (row-major, ascending) defect index stream.

        The decode core behind :meth:`decode_chunks_packed`.  One and two
        defects are pure array gathers; rows with more than
        :data:`_SPLIT_MIN_DEFECTS` defects split into independent
        clusters (:meth:`_split`); every row or piece of three or more
        defects runs the subset dynamic program, and a row it leaves
        unsettled, or any of whose pieces it does, goes whole to the
        blossom matcher.
        """
        offsets = np.zeros(counts.size, dtype=counts.dtype)
        np.cumsum(counts[:-1], out=offsets[1:])
        decoded = np.zeros((counts.size, self.n_observables), np.uint8)
        self._gather(counts, offsets, flat, decoded)

        # Three or more defects.  Each tier is one span per batch
        # (stages decode.dp and decode.blossom in
        # repro_stage_seconds_total); the split runs inside decode.dp.
        # Rows and pieces are two CSR views; a DP group gathers its
        # nodes from both, numbering piece i as row n_rows + i.
        n_rows = counts.size
        with obs.span("decode.dp"):
            owner, whole, pieces = self._split(counts, offsets, flat)
            views = [(0, (whole, offsets, flat))]
            if owner.size:
                views.append((n_rows, pieces))
                decoded = np.concatenate([
                    decoded,
                    np.zeros((owner.size, self.n_observables), np.uint8),
                ])
                self._gather(*pieces, decoded[n_rows:])
            unsettled = [
                first + np.nonzero(view[0] > _MAX_DP_NODES)[0]
                for first, view in views
            ]
            for padded in range(4, _MAX_DP_NODES + 2, 2):
                rows, nodes = zip(*(
                    self._group(*view, padded, first) for first, view in views
                ))
                unsettled.append(self._match_group(
                    np.concatenate(rows), np.concatenate(nodes), decoded
                ))
            fallback = np.concatenate(unsettled)
            if owner.size:
                # A split row predicts the XOR of its pieces; one
                # unsettled piece sends the whole row on.
                decoded, split = decoded[:n_rows], decoded[n_rows:]
                np.bitwise_xor.at(decoded, owner, split)
                row_of = np.concatenate([np.arange(n_rows), owner])
                fallback = np.unique(row_of[fallback])
        if obs.is_metrics():
            # Per-tier row counters: of the rows with three or more
            # defects, the DP settled all but the blossom rows; apart,
            # the rows the split cut.
            pid = str(os.getpid())
            obs.counter("repro_decode_dp_rows_total", pid=pid).inc(
                int(np.count_nonzero(counts > 2)) - int(fallback.size)
            )
            obs.counter("repro_decode_fallback_rows_total", pid=pid).inc(
                int(fallback.size)
            )
            obs.counter("repro_decode_split_rows_total", pid=pid).inc(
                int(np.unique(owner).size)
            )
        if fallback.size:
            with obs.span("decode.blossom", rows=int(fallback.size)):
                for row in fallback:
                    decoded[row] = self._match(
                        flat[offsets[row]: offsets[row] + counts[row]]
                    )
        return decoded

    def _gather(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        decoded: np.ndarray,
    ) -> None:
        """Decode the one- and two-defect rows: one defect matches to
        the boundary, two defects to each other — both a single
        precomputed pair, so pure array gathers (an unreachable pair
        predicts no flip, as the reference does)."""
        (one,) = np.nonzero(counts == 1)
        if one.size:
            defect = flat[offsets[one]]
            finite = np.isfinite(self._dist[defect, self._boundary])
            decoded[one[finite]] = self._mask[
                defect[finite], self._boundary
            ]
        (two,) = np.nonzero(counts == 2)
        if two.size:
            pairs = flat[offsets[two][:, None] + np.arange(2)]
            finite = np.isfinite(self._dist[pairs[:, 0], pairs[:, 1]])
            decoded[two[finite]] = self._mask[
                pairs[finite, 0], pairs[finite, 1]
            ]

    def _split(
        self, counts: np.ndarray, offsets: np.ndarray, flat: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Cut the rows with more than :data:`_SPLIT_MIN_DEFECTS` defects
        into their :meth:`_clusters` where that split is exact.

        Returns ``(owner, whole, pieces)``: ``whole`` is ``counts`` with
        each split row emptied, ``pieces`` the ``(counts, offsets,
        flat)`` CSR view of the pieces alone (each ascending) and
        ``owner`` each piece's row.  The input stream is not copied:
        with nothing split, ``whole`` is ``counts`` and there are no
        owners or pieces.
        """
        (big,) = np.nonzero(counts > _SPLIT_MIN_DEFECTS)
        split_rows, defects, labels = [big[:0]], [], []
        for k in np.unique(counts[big]):
            group = big[counts[big] == k]
            nodes = flat[offsets[group][:, None] + np.arange(k)]
            split, label = self._clusters(nodes)
            split_rows.append(group[split])
            defects.append(nodes[split].ravel())
            labels.append(label[split].ravel())
        split_rows = np.concatenate(split_rows)
        if not split_rows.size:
            none = flat[:0]
            return split_rows, counts, (none, none, none)
        # Order each split row's defects by cluster (stable, so each
        # cluster stays ascending) and cut where the cluster changes.
        defects = np.concatenate(defects)
        rank = np.repeat(np.arange(split_rows.size), counts[split_rows])
        key = rank * flat.size + np.concatenate(labels)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        whole = counts.copy()
        whole[split_rows] = 0
        return (
            split_rows[key[starts] // flat.size],
            whole,
            (np.diff(starts, append=key.size), starts, defects[order]),
        )

    def _clusters(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact cluster split of ``(rows, k)`` ascending defect sets.

        Defects ``u < v`` are *linked* when ``dist(u, v) < dist(u, B) +
        dist(v, B) - _TIE_TOL`` (``B`` the boundary); clusters are the
        connected components of that relation, found by squaring the
        reachability matrix to its transitive closure.  Returns per row
        whether to split it (more than one cluster, and the split is
        exact) and each defect's cluster label (its lowest member).

        A pair across clusters costs exactly its via-boundary sum (at
        most by the triangle inequality, at least because it is not
        linked), so the optimal total is the sum of the clusters'
        optima, each padded with the boundary if odd.  The split is
        taken only when every boundary distance is finite and every
        unlinked pair's mask is the XOR of the two boundary masks: then
        every near-optimal pairing of the row predicts the XOR of the
        clusters' predictions, so unambiguous cluster DPs settle the row
        exactly as the whole-row DP or the blossom matcher would.
        """
        k = nodes.shape[1]
        boundary = self._dist[nodes, self._boundary]
        grid = (nodes[:, :, None], nodes[:, None, :])
        linked = np.triu(
            self._dist[grid]
            < boundary[:, :, None] + boundary[:, None, :] - _TIE_TOL,
            1,
        )
        reach = linked | linked.transpose(0, 2, 1) | np.eye(k, dtype=bool)
        while True:
            # float32 products are BLAS matmuls (~9x faster than bool
            # ones at k = 13..29) and exact for path counts below 2**24.
            square = reach.astype(np.float32)
            wider = np.matmul(square, square) > 0
            if np.array_equal(wider, reach):
                break
            reach = wider
        label = reach.argmax(axis=2)
        split = label.max(axis=1) > 0
        if split.any():
            # Exactness is checked only where there is something to cut.
            cut = nodes[split]
            via = self._mask[cut, self._boundary]
            agree = (
                self._mask[cut[:, :, None], cut[:, None, :]]
                == via[:, :, None] ^ via[:, None, :]
            ).all(axis=3)
            lower = np.tril(np.ones((k, k), dtype=bool))
            split[split] = np.isfinite(boundary[split]).all(axis=1) & (
                linked[split] | agree | lower
            ).all(axis=(1, 2))
        return split, label

    def _group(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        padded: int,
        first: int = 0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of a CSR view whose defect set pads to ``padded``
        nodes, numbered from ``first``, and their ``(rows, padded)``
        nodes.  An odd defect set ends with the boundary (its extra
        slot's index is clamped in bounds, then replaced).  Defects
        ascend and the boundary is the largest node index, so local pair
        (i < j) reads the mask in the reference's direction."""
        (rows,) = np.nonzero(counts + counts % 2 == padded)
        slot = np.arange(padded)
        index = np.minimum(offsets[rows][:, None] + slot, flat.size - 1)
        nodes = np.where(
            slot < counts[rows][:, None], flat[index], self._boundary
        )
        return first + rows, nodes

    def _match_group(
        self, rows: np.ndarray, nodes: np.ndarray, decoded: np.ndarray
    ) -> np.ndarray:
        """Decode ``rows`` (one :meth:`_group`, ``nodes`` their padded
        defect sets) with :func:`_min_pairing`; return the rows it
        leaves to blossom (ambiguous or without a finite perfect
        pairing)."""
        if not rows.size:
            return rows
        # Slab the group so the DP's temporaries stay memory-bounded;
        # rows are independent, so slabbing cannot change any prediction.
        slab = _dp_slab_rows(nodes.shape[1], self.n_observables)
        low, high = np.triu_indices(nodes.shape[1], 1)
        unsettled = []
        for start in range(0, rows.size, slab):
            part, local = rows[start:start + slab], nodes[start:start + slab]
            grid = (local[:, low].T, local[:, high].T)
            best, prediction, ambiguous = _min_pairing(
                self._dist[grid],
                self._mask[grid].transpose(0, 2, 1).astype(bool, order="C"),
            )
            settled = np.isfinite(best) & ~ambiguous
            decoded[part[settled]] = prediction[settled]
            unsettled.append(part[~settled])
        return np.concatenate(unsettled)

    # -- internals -------------------------------------------------------------

    def _match(self, defects: np.ndarray) -> np.ndarray:
        """Exactly match >= 3 defects over precomputed pair distances
        (:func:`~repro.decoders.blossom.min_weight_matching`, the
        reference's blossom matching without graph objects)."""
        nodes = np.asarray(defects, dtype=np.int64)
        if nodes.size % 2:
            nodes = np.append(nodes, self._boundary)
        mate = min_weight_matching(self._dist[np.ix_(nodes, nodes)])
        (first,) = np.nonzero(mate > np.arange(nodes.size))
        # The reference XORs the path found from the pair's earlier node
        # in defect order (the smaller index; boundary last) — nodes
        # ascend, so the mask is read from the same direction.
        pairs = self._mask[nodes[first], nodes[mate[first]]]
        return np.bitwise_xor.reduce(pairs, axis=0)

    @cached_property
    def _adjacency(self) -> tuple[list[int], list[int], list[float]]:
        """The CSR arrays as Python lists, made once for
        :meth:`_dijkstra` (list reads are far cheaper than NumPy
        scalar reads in its inner loop)."""
        return (
            self._indptr.tolist(), self._indices.tolist(),
            self._weights.tolist(),
        )

    def _dijkstra(self, source: int) -> tuple[list[float], list[int]]:
        """NetworkX-identical Dijkstra over the CSR arrays.

        Returns (distances, predecessor CSR edge slot; -1 for the source
        and unreachable nodes).  Ties on the heap resolve by insertion
        order and relaxation is strictly-improving only, matching
        ``nx.single_source_dijkstra`` so path choices (and therefore
        observable masks) agree with the reference decoder even between
        equal-weight paths.
        """
        indptr, indices, weights = self._adjacency
        n_nodes = len(indptr) - 1
        dist = [math.inf] * n_nodes
        pred_edge = [-1] * n_nodes
        final = [False] * n_nodes
        seen: dict[int, float] = {source: 0.0}
        tiebreak = count()
        fringe: list[tuple[float, int, int]] = [(0.0, next(tiebreak), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if final[v]:
                continue
            final[v] = True
            dist[v] = d
            for slot in range(indptr[v], indptr[v + 1]):
                u = indices[slot]
                vu = d + weights[slot]
                if not final[u] and (u not in seen or vu < seen[u]):
                    seen[u] = vu
                    heappush(fringe, (vu, next(tiebreak), u))
                    pred_edge[u] = slot
        return dist, pred_edge
