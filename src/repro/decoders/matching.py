"""Minimum-weight perfect matching decoder for graphlike DEMs.

Standard construction: every graphlike mechanism is an edge between the
(at most two) detectors it flips — single-detector mechanisms connect to
a virtual *boundary* node — weighted ``-log p/(1-p)``, carrying its
observable mask.  Decoding a syndrome:

1. collect the fired detectors (defects), plus the boundary if the
   defect count is odd;
2. build the complete graph on defects with Dijkstra shortest-path
   distances through the decoding graph;
3. find a minimum-weight perfect matching (NetworkX blossom on negated
   weights);
4. XOR the observable masks along each matched path — that is the
   predicted logical correction.

:class:`~repro.decoders.compiled.CompiledMatchingDecoder` lowers the
same graph into flat arrays once instead of path-finding per shot; it
reads the DEM directly, and :func:`build_decoding_graph` is the
reference its arrays must equal bit for bit.  NetworkX is imported on
first use here, so a process that decodes only with the compiled decoder
never loads it (~14 MB of resident memory).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.decoders.registry import (
    check_syndromes,
    loop_decode_chunks,
    pack_decode_batch,
)
from repro.dem.model import DetectorErrorModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx

BOUNDARY = "boundary"
_P_CLAMP = 1e-15


def edge_weight(probability: float) -> float:
    """MWPM edge weight ``-log p/(1-p)`` with the probability clamped
    away from {0, 1} so the weight stays finite."""
    p = min(max(probability, _P_CLAMP), 1 - _P_CLAMP)
    return -math.log(p / (1 - p))


def dedupe_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique rows of a (shots, n) uint8 array plus the flat inverse.

    Identical syndromes decode identically, so batch decoders decode
    each unique row once and gather.  NumPy 2.0 returned a (shots, 1)
    inverse for ``axis=0``; the flatten makes the gather work on every
    supported NumPy.
    """
    unique, inverse = np.unique(rows, axis=0, return_inverse=True)
    return unique, np.asarray(inverse).reshape(-1)


def build_decoding_graph(dem: DetectorErrorModel) -> nx.Graph:
    """Lower a DEM's graphlike mechanisms into the decoding graph.

    Nodes are detector indices plus the virtual :data:`BOUNDARY`; each
    edge carries ``probability``, ``weight`` and observable ``mask``.

    Parallel mechanisms on the same detector pair:

    * identical observable masks — physically the two faults are
      indistinguishable and independent, so their probabilities
      XOR-convolve: ``p = p1 (1 - p2) + p2 (1 - p1)`` (either fires,
      not both — both firing cancels on every detector and observable);
    * different masks — a single edge cannot carry both corrections, so
      the lighter (more likely) edge is kept.  This is an approximation:
      the dropped mechanism's probability mass is ignored rather than
      folded in, which slightly overweights the surviving edge.  Exact
      handling would need a multigraph-aware matcher.

    An edge whose probability ends up above 0.5 would carry a negative
    weight, which shortest-path matching cannot handle; it raises
    ``ValueError`` naming the edge.  ``p = 0.5`` (weight 0) is legal.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_node(BOUNDARY)
    graph.add_nodes_from(range(dem.n_detectors))

    for mechanism in dem.filter_graphlike().mechanisms:
        if not mechanism.detectors:
            # Undetectable fault (logical or invisible): no edge can
            # represent it; matching decoders simply cannot correct it.
            continue
        p = mechanism.probability
        if len(mechanism.detectors) == 1:
            u, v = mechanism.detectors[0], BOUNDARY
        else:
            u, v = mechanism.detectors
        mask = _observable_mask(mechanism.observables, dem.n_observables)
        if graph.has_edge(u, v):
            edge = graph[u][v]
            if np.array_equal(edge["mask"], mask):
                q = edge["probability"]
                merged = p * (1 - q) + q * (1 - p)
                edge.update(
                    probability=merged, weight=edge_weight(merged)
                )
            elif edge_weight(p) < edge["weight"]:
                edge.update(
                    probability=p, weight=edge_weight(p), mask=mask
                )
        else:
            graph.add_edge(
                u, v, probability=p, weight=edge_weight(p), mask=mask
            )
    # Walk the adjacency, not graph.edges: the cached EdgeView holds the
    # graph, and that cycle would keep every graph alive until a full
    # garbage collection.
    for u, neighbors in graph.adj.items():
        for v, data in neighbors.items():
            if data["weight"] < 0:
                if u == BOUNDARY:
                    u, v = v, u  # name the detector first
                raise negative_edge_error(
                    u, v, data["probability"], data["weight"]
                )
    return graph


def negative_edge_error(u, v, probability: float, weight: float) -> ValueError:
    """The error for decoding-graph edge ``(u, v)`` (detector ``u``,
    detector or :data:`BOUNDARY` ``v``) whose probability is above 0.5."""
    v = v if v == BOUNDARY else f"D{v}"
    return ValueError(
        f"decoding-graph edge (D{u}, {v}) has probability "
        f"{probability:g} > 0.5 (weight {weight:g}); matching decoders "
        f"need edge probabilities <= 0.5"
    )


class MatchingDecoder:
    """MWPM decoder compiled from a graphlike DetectorErrorModel.

    Path-finds per decoded syndrome (with a shortest-path cache); the
    batched :class:`~repro.decoders.compiled.CompiledMatchingDecoder`
    precomputes every distance at compile time instead and is the one to
    use for large batches.
    """

    def __init__(self, dem: DetectorErrorModel):
        self.n_detectors = dem.n_detectors
        self.n_observables = dem.n_observables
        self.graph = build_decoding_graph(dem)
        self._path_cache: dict = {}

    # -- decoding -----------------------------------------------------------

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict the observable flips for one detector sample."""
        defects = [int(d) for d in np.nonzero(np.asarray(syndrome))[0]]
        prediction = np.zeros(self.n_observables, dtype=np.uint8)
        if not defects:
            return prediction
        import networkx as nx

        nodes = list(defects)
        if len(nodes) % 2 == 1:
            nodes.append(BOUNDARY)

        complete = nx.Graph()
        pair_paths = {}
        for i, u in enumerate(nodes):
            for v in nodes[i + 1:]:
                distance, path = self._shortest(u, v)
                if distance == math.inf:
                    continue
                pair_paths[(u, v)] = path
                # max_weight_matching maximizes; negate to minimize.
                complete.add_edge(u, v, weight=-distance)
        matching = nx.max_weight_matching(complete, maxcardinality=True)

        for u, v in matching:
            key = (u, v) if (u, v) in pair_paths else (v, u)
            path = pair_paths[key]
            for a, b in zip(path[:-1], path[1:]):
                prediction ^= self.graph[a][b]["mask"]
        return prediction

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many detector samples: shape (shots, n_detectors)."""
        syndromes = check_syndromes(syndromes, self.n_detectors)
        out = np.zeros(
            (syndromes.shape[0], self.n_observables), dtype=np.uint8
        )
        if syndromes.shape[0] == 0:
            return out
        unique, inverse = dedupe_rows(syndromes)
        decoded = np.stack([self.decode(row) for row in unique])
        out[:] = decoded[inverse]
        return out

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode packed syndromes through the generic pack-adapter."""
        return pack_decode_batch(self, syndromes)

    def decode_chunks_packed(self, chunks) -> list:
        """Decode each packed chunk through :meth:`decode_batch_packed`."""
        return loop_decode_chunks(self, chunks)

    # -- internals -------------------------------------------------------------

    def _shortest(self, u, v):
        import networkx as nx

        key = (u, v)
        if key not in self._path_cache:
            try:
                distance, path = nx.single_source_dijkstra(
                    self.graph, u, v, weight="weight"
                )
            except nx.NetworkXNoPath:
                distance, path = math.inf, []
            self._path_cache[key] = (distance, path)
            self._path_cache[(v, u)] = (distance, list(reversed(path)))
        return self._path_cache[key]


def _observable_mask(observables: tuple[int, ...], n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=np.uint8)
    for o in observables:
        mask[o] = 1
    return mask
