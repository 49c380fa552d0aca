"""The compiled decoder's array-native blossom matcher.

Its contract: on any dense distance matrix it returns the matching
``networkx.max_weight_matching(maxcardinality=True)`` returns on the
graph the reference decoder builds — an edge of weight ``-dist[i, j]``
for every finite pair ``i < j``, added in lexicographic order — ties
and unmatchable vertices included.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.decoders.blossom import min_weight_matching, node_order
from repro.decoders.compiled import _MAX_DP_NODES
from repro.qec import surface_code_dem


def reference_graph(dist):
    graph = nx.Graph()
    k = dist.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(dist[i, j]):
                graph.add_edge(i, j, weight=-dist[i, j])
    return graph


def reference_matching(dist):
    matching = nx.max_weight_matching(
        reference_graph(dist), maxcardinality=True
    )
    return {tuple(sorted(pair)) for pair in matching}


def as_pairs(mate):
    return {(i, int(j)) for i, j in enumerate(mate) if j > i}


def random_dist(seed, k, high, unreachable):
    """Small integer weights (so equal-weight matchings are common),
    some pairs unreachable, and a lower triangle that differs from the
    upper one in the last bits — only the upper triangle is an edge."""
    rng = np.random.default_rng(seed)
    dist = rng.integers(1, high + 1, size=(k, k)).astype(np.float64)
    dist[rng.random((k, k)) < unreachable] = np.inf
    dist = np.triu(dist, 1)
    return dist + np.nextafter(dist, np.inf).T


class TestAgainstNetworkX:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(2, 40),
        high=st.integers(1, 4),
        unreachable=st.sampled_from([0.0, 0.0, 0.1, 0.4, 0.8]),
    )
    def test_identical_matching(self, seed, k, high, unreachable):
        dist = random_dist(seed, k, high, unreachable)
        mate = min_weight_matching(dist)
        assert as_pairs(mate) == reference_matching(dist)
        matched = mate >= 0
        assert np.array_equal(mate[mate[matched]], np.flatnonzero(matched))

    def test_surface_code_submatrices(self):
        # The submatrices the decoder hands the matcher: equal-weight
        # paths make exact ties common, and which of them wins depends
        # on every order-sensitive choice of the reference.
        dem = surface_code_dem(7, rounds=5, probability=0.01)
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(150, np.random.default_rng(0))
        checked = 0
        for row in syndromes:
            nodes = np.flatnonzero(row)
            if nodes.size % 2:
                nodes = np.append(nodes, dem.n_detectors)
            if nodes.size > _MAX_DP_NODES:
                dist = compiled._dist[np.ix_(nodes, nodes)]
                mate = min_weight_matching(dist)
                assert as_pairs(mate) == reference_matching(dist)
                checked += 1
        assert checked >= 100

    def test_continuous_weights(self):
        rng = np.random.default_rng(7)
        for k in (3, 12, 25, 38):
            dist = rng.uniform(1.0, 30.0, size=(k, k))
            dist = np.triu(dist, 1) + np.triu(dist, 1).T
            assert as_pairs(min_weight_matching(dist)) == reference_matching(
                dist
            )

    def test_node_order_is_graph_insertion_order(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            dist = random_dist(int(rng.integers(1 << 30)), k, 3, 0.5)
            finite = np.isfinite(dist)
            np.fill_diagonal(finite, False)
            assert node_order(finite).tolist() == list(reference_graph(dist))

    def test_unreachable_vertex_stays_single(self):
        dist = np.full((4, 4), 2.0)
        dist[3, :] = dist[:, 3] = np.inf
        mate = min_weight_matching(dist)
        assert mate[3] == -1
        assert (mate[:3] >= 0).sum() == 2

    def test_no_edges(self):
        assert min_weight_matching(np.full((3, 3), np.inf)).tolist() == [
            -1, -1, -1,
        ]


class TestDecoderTail:
    """Compiled and reference decoders agree bitwise where most defect
    sets pad past the dynamic program's ceiling (surface code at
    p = 0.01, so those rows go to the blossom matcher)."""

    @pytest.mark.parametrize("distance,rounds", [(7, 5), (9, 3)])
    def test_predictions_identical(self, distance, rounds):
        dem = surface_code_dem(distance, rounds, probability=0.01)
        syndromes, _ = dem.sample(12, np.random.default_rng(distance))
        assert (syndromes.sum(axis=1) > _MAX_DP_NODES).sum() >= 6
        expected = MatchingDecoder(dem).decode_batch(syndromes)
        assert np.array_equal(
            CompiledMatchingDecoder(dem).decode_batch(syndromes), expected
        )
