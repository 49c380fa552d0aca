"""Compile-once batched MWPM decoding.

:class:`MatchingDecoder` rediscovers shortest paths while decoding:
every defect pair of every syndrome walks Dijkstra through a NetworkX
graph (amortized by a path cache, but still per-pair Python work).  The
compiled decoder does all path-finding at **compile time** instead:

* the decoding graph (shared construction — see
  :func:`~repro.decoders.matching.build_decoding_graph`) is lowered into
  flat CSR adjacency arrays;
* Dijkstra runs once from every node, producing an all-pairs distance
  matrix and, via the predecessor trees, a per-pair *path observable
  mask* (the XOR of edge masks along the shortest path);
* decoding a batch then dedupes identical syndromes, resolves the
  one- and two-defect syndromes (the bulk at QEC-relevant error rates)
  with pure array gathers, and matches defect sets of up to 20 nodes
  exactly with one vectorized subset dynamic program per defect-count
  group (:func:`_min_pairing`) over the dense distance submatrices.
  Blossom matching over a NetworkX graph survives only as the fallback
  for larger defect sets, unreachable pairs and weight ties.

Both batch entry points — unpacked ``decode_batch`` and the packed-wire
``decode_batch_packed`` — reduce their unique rows to one CSR-style
defect view and share a single decode core, so the packed path (zero-row
short-circuit, void-view dedupe, defect extraction straight from the
uint64 words) predicts bit-for-bit what the unpacked path predicts.

Predictions are bitwise identical to :class:`MatchingDecoder`: the CSR
Dijkstra mirrors NetworkX's traversal exactly (same strictly-improving
relaxation, insertion-order tie-breaking on equal distances, adjacency
iteration in edge-insertion order); the dynamic program's matching is
used only where every near-optimal pairing predicts the same
correction, and everything else goes through the same
``nx.max_weight_matching`` call the reference makes.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from itertools import count

import networkx as nx
import numpy as np

import repro.obs as obs
from repro.decoders.matching import BOUNDARY, build_decoding_graph, dedupe_rows
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


# Defect sets padding to more nodes than this fall back to blossom
# matching: the dynamic program visits Fibonacci-many subsets (10,946 at
# k=20, ~2.7x more per extra pair), and past 20 nodes a row costs it
# as much as one blossom call or more.
_MAX_DP_NODES = 20
# Bound on elements materialized per dynamic-program slab, so one dense
# defect-count group cannot blow up memory.  The largest intermediate
# is one level's (states, candidates, rows) total-weight tensor: 4M
# float64 ~= 32 MB.
_DP_SLAB_ELEMENTS = 1 << 22
# Two pairings closer than this in total weight are treated as tied;
# float noise across differently-ordered sums is ~1e-13 at QEC weight
# scales, while mathematically distinct totals differ by far more.
_TIE_TOL = 1e-9

_PLANS: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}


def _plan(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The subset dynamic program's state plan for ``k`` nodes.

    A state is the set of still-unpaired nodes; each step pairs the
    lowest of them with any other, so from the full set only
    Fibonacci-many subsets are reachable (233 at k=12 against 10,395
    pairings).  Level ``t`` holds the states with ``t`` pairs made, as
    two ``(states, candidates)`` arrays: ``pair`` — the flat ``low * k
    + j`` index of the candidate pair — and ``child`` — the index of the
    remaining state in level ``t + 1``.  The last level leads to the
    single empty state.  Built level by level with array operations.
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
            levels.append(
                (low[:, None] * k + partner, child.reshape(partner.shape))
            )
        _PLANS[k] = levels
    return _PLANS[k]


def _min_pairing(
    dist: np.ndarray, masks: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimum-weight perfect pairing of many rows at once.

    ``dist`` is ``(rows, k, k)`` pair weights and ``masks`` the
    ``(rows, k, k, n_observables)`` pair corrections (only ``i < j`` is
    read).  Runs ``f[S] = min_j dist[low(S), j] + f[S - {low(S), j}]``
    over :func:`_plan` from the empty set up, vectorized over rows, and
    returns per row the optimal total, the correction of the pairings
    within :data:`_TIE_TOL` of it (the XOR of their pairs' masks) and
    an *ambiguous* flag.  A state is ambiguous when its near-optimal
    candidates predict different corrections or one leads to an
    ambiguous state, so an unflagged row's correction is the one every
    pairing within ``_TIE_TOL`` of the optimum predicts (a flagged
    row's is meaningless).  Rows with no finite pairing return an
    infinite total.
    """
    rows, k = dist.shape[:2]
    dist = dist.reshape(rows, k * k).T
    masks = masks.reshape(rows, k * k, masks.shape[-1]).transpose(1, 2, 0)
    masks = masks.astype(bool)
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


class CompiledMatchingDecoder:
    """MWPM decoder lowered to flat arrays with precomputed paths."""

    def __init__(self, dem: DetectorErrorModel):
        self.n_detectors = dem.n_detectors
        self.n_observables = dem.n_observables
        graph = build_decoding_graph(dem)

        # -- CSR lowering: detectors 0..n-1, boundary -> index n --------
        n_nodes = self.n_detectors + 1
        self._boundary = self.n_detectors
        index_of = {BOUNDARY: self._boundary}
        for d in range(self.n_detectors):
            index_of[d] = d
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        indices: list[int] = []
        weights: list[float] = []
        edge_masks: list[np.ndarray] = []
        for node in list(range(self.n_detectors)) + [BOUNDARY]:
            # Adjacency iteration order == edge insertion order; the
            # reference's Dijkstra visits neighbors in exactly this
            # order, which is what makes tie-broken paths line up.
            for neighbor, data in graph.adj[node].items():
                indices.append(index_of[neighbor])
                weights.append(data["weight"])
                edge_masks.append(data["mask"])
            indptr[index_of[node] + 1] = len(indices)
        self._indptr = indptr
        self._indices = np.array(indices, dtype=np.int64)
        self._weights = np.array(weights, dtype=np.float64)
        if edge_masks:
            csr_masks = np.stack(edge_masks).astype(np.uint8)
        else:
            csr_masks = np.zeros((0, self.n_observables), dtype=np.uint8)

        # -- all-pairs Dijkstra at compile time -------------------------
        self._dist = np.full((n_nodes, n_nodes), np.inf, dtype=np.float64)
        self._mask = np.zeros(
            (n_nodes, n_nodes, self.n_observables), dtype=np.uint8
        )
        for source in range(n_nodes):
            dist, pred, pred_edge, order = self._dijkstra(source)
            self._dist[source] = dist
            row = self._mask[source]
            for v in order[1:]:
                row[v] = row[pred[v]] ^ csr_masks[pred_edge[v]]

    # -- decoding -----------------------------------------------------------

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict the observable flips for one detector sample."""
        syndrome = np.asarray(syndrome, dtype=np.uint8).reshape(1, -1)
        return self.decode_batch(syndrome)[0]

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many detector samples: shape (shots, n_detectors)."""
        syndromes = check_syndromes(syndromes, self.n_detectors)
        out = np.zeros(
            (syndromes.shape[0], self.n_observables), dtype=np.uint8
        )
        if syndromes.shape[0] == 0:
            return out
        unique, inverse = dedupe_rows(syndromes)
        rows, flat = np.nonzero(unique)
        counts = np.bincount(rows, minlength=unique.shape[0])
        decoded = self._decode_unique(counts, flat)
        return decoded[inverse]

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode packed syndromes natively; returns packed predictions
        (the :class:`~repro.decoders.registry.SyndromeDecoder` wire
        format).  All-zero rows (the bulk at low physical error rates)
        short-circuit before dedupe, the surviving rows dedupe through
        a contiguous void view, and defect indices come straight from
        the nonzero words.  The unique rows then run the same decode
        core as :meth:`decode_batch`, so predictions are bitwise
        identical to packing that method's output.
        """
        syndromes = check_packed_syndromes(syndromes, self.n_detectors)
        out = np.zeros(
            (syndromes.shape[0], bitops.words_for(self.n_observables)),
            dtype=np.uint64,
        )
        nonzero = bitops.nonzero_rows_packed(syndromes)
        if nonzero.size == 0:
            if obs.is_metrics():
                _count_decode_rows(syndromes.shape[0], 0, 0)
            return out
        unique, inverse = bitops.dedupe_rows_packed(syndromes[nonzero])
        if obs.is_metrics():
            _count_decode_rows(
                syndromes.shape[0], int(nonzero.size), int(unique.shape[0])
            )
        rows, flat = bitops.nonzero_bits(unique)
        counts = np.bincount(rows, minlength=unique.shape[0])
        decoded = self._decode_unique(counts, flat)
        out[nonzero] = bitops.pack_rows(decoded)[inverse]
        return out

    def _decode_unique(
        self, counts: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """Decode deduplicated syndromes given per-row defect counts and
        the flat (row-major, ascending) defect index stream.

        The shared core of the packed and unpacked batch paths: both
        reduce their unique rows to this CSR-style view, so their
        predictions agree bit for bit by construction.
        """
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        decoded = np.zeros((counts.size, self.n_observables), np.uint8)

        # One defect matches to the boundary, two defects to each other:
        # both are a single precomputed pair — pure array gathers.
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

        # Three or more defects: one exact dynamic program per padded
        # defect-count group; per-row blossom for whatever it leaves.
        # Each tier is one span per batch (stages decode.dp and
        # decode.blossom in repro_stage_seconds_total).
        fallback = [np.nonzero(counts > _MAX_DP_NODES)[0]]
        with obs.span("decode.dp"):
            for padded in range(4, _MAX_DP_NODES + 2, 2):
                fallback.append(
                    self._match_group(counts, offsets, flat, padded, decoded)
                )
        fallback = np.concatenate(fallback)
        if obs.is_metrics():
            obs.counter(
                "repro_decode_fallback_rows_total", pid=str(os.getpid())
            ).inc(int(fallback.size))
        if fallback.size:
            with obs.span("decode.blossom", rows=int(fallback.size)):
                for row in fallback:
                    decoded[row] = self._match(
                        flat[offsets[row]: offsets[row] + counts[row]]
                    )
        return decoded

    def _match_group(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        padded: int,
        decoded: np.ndarray,
    ) -> np.ndarray:
        """Decode every row whose defect set pads to ``padded`` nodes
        with :func:`_min_pairing`; return the rows it leaves to blossom
        (ambiguous or without a finite perfect pairing)."""
        (rows,) = np.nonzero(counts + counts % 2 == padded)
        if not rows.size:
            return rows
        # An odd defect set ends with the boundary (its extra slot's
        # index is clamped in bounds, then replaced).  Defects ascend and
        # the boundary is the largest node index, so local pair (i < j)
        # reads the mask in the reference's direction.
        slot = np.arange(padded)
        index = np.minimum(offsets[rows][:, None] + slot, flat.size - 1)
        nodes = np.where(
            slot < counts[rows][:, None], flat[index], self._boundary
        )
        # Slab the group so one level's (states, candidates, rows)
        # tensor stays memory-bounded; rows are independent, so slabbing
        # cannot change any prediction.
        widest = max(pair.size for pair, _ in _plan(padded))
        slab = max(1, _DP_SLAB_ELEMENTS // widest)
        unsettled = []
        for start in range(0, rows.size, slab):
            part, local = rows[start:start + slab], nodes[start:start + slab]
            grid = (local[:, :, None], local[:, None, :])
            best, prediction, ambiguous = _min_pairing(
                self._dist[grid], self._mask[grid]
            )
            settled = np.isfinite(best) & ~ambiguous
            decoded[part[settled]] = prediction[settled]
            unsettled.append(part[~settled])
        return np.concatenate(unsettled)

    # -- internals -------------------------------------------------------------

    def _match(self, defects: np.ndarray) -> np.ndarray:
        """Blossom-match >= 3 defects over precomputed pair distances."""
        nodes = [int(d) for d in defects]
        labels: list = list(nodes)
        idx = list(nodes)
        if len(nodes) % 2 == 1:
            labels.append(BOUNDARY)
            idx.append(self._boundary)
        sub = self._dist[np.ix_(idx, idx)]

        complete = nx.Graph()
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if np.isfinite(sub[i, j]):
                    complete.add_edge(labels[i], labels[j], weight=-sub[i, j])
        matching = nx.max_weight_matching(complete, maxcardinality=True)

        prediction = np.zeros(self.n_observables, dtype=np.uint8)
        for u, v in matching:
            a = self._boundary if u == BOUNDARY else u
            b = self._boundary if v == BOUNDARY else v
            # The reference XORs the path found from the pair's earlier
            # node in defect order (the smaller index; boundary last) —
            # read the mask from the same direction.
            if a > b:
                a, b = b, a
            prediction ^= self._mask[a, b]
        return prediction

    def _dijkstra(self, source: int):
        """NetworkX-identical Dijkstra over the CSR arrays.

        Returns (distances, predecessor node, predecessor CSR edge slot,
        finalization order).  Ties on the heap resolve by insertion
        order and relaxation is strictly-improving only, matching
        ``nx.single_source_dijkstra`` so path choices (and therefore
        observable masks) agree with the reference decoder even between
        equal-weight paths.
        """
        n_nodes = self._indptr.size - 1
        dist = np.full(n_nodes, np.inf, dtype=np.float64)
        pred = np.full(n_nodes, -1, dtype=np.int64)
        pred_edge = np.full(n_nodes, -1, dtype=np.int64)
        final = np.zeros(n_nodes, dtype=bool)
        order: list[int] = []
        seen: dict[int, float] = {source: 0.0}
        tiebreak = count()
        fringe: list[tuple[float, int, int]] = [(0.0, next(tiebreak), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if final[v]:
                continue
            final[v] = True
            dist[v] = d
            order.append(v)
            for slot in range(self._indptr[v], self._indptr[v + 1]):
                u = int(self._indices[slot])
                vu = d + self._weights[slot]
                if not final[u] and (u not in seen or vu < seen[u]):
                    seen[u] = vu
                    heappush(fringe, (vu, next(tiebreak), u))
                    pred[u] = v
                    pred_edge[u] = slot
        return dist, pred, pred_edge, order
