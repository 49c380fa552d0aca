"""The compiled decoder's subset dynamic program (``_min_pairing``).

Its contract: the optimum over every perfect pairing, the correction of
that optimum, and an *ambiguous* flag that is raised whenever pairings
within the tie tolerance predict different corrections — flagged rows,
like rows without a finite pairing, must end in blossom matching.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.decoders.compiled import _TIE_TOL, _min_pairing, _plan
from repro.dem import DetectorErrorModel, ErrorMechanism
from repro.gf2 import bitops


def all_pairings(nodes):
    """Every perfect pairing of ``nodes`` as a list of (i, j), i < j."""
    if not nodes:
        yield []
        return
    first, rest = nodes[0], nodes[1:]
    for i, partner in enumerate(rest):
        for tail in all_pairings(rest[:i] + rest[i + 1:]):
            yield [(first, partner), *tail]


def brute_force(dist, masks):
    """(total, correction) of every perfect pairing of one row."""
    k = dist.shape[0]
    out = []
    for pairing in all_pairings(list(range(k))):
        total = sum(dist[i, j] for i, j in pairing)
        correction = np.zeros(masks.shape[-1], dtype=np.uint8)
        for i, j in pairing:
            correction ^= masks[i, j]
        out.append((total, correction))
    return out


def random_instance(seed, rows, k, n_observables, integer, unreachable):
    """Symmetric metric weights (entries in [a, 2a] obey the triangle
    inequality) — small integers make exact ties common — with random
    pair corrections and, optionally, some unreachable pairs."""
    rng = np.random.default_rng(seed)
    if integer:
        dist = rng.integers(2, 5, size=(rows, k, k)).astype(np.float64)
    else:
        dist = rng.uniform(1.0, 2.0, size=(rows, k, k))
    if unreachable:
        dist[rng.random((rows, k, k)) < 0.2] = np.inf
    dist = np.triu(dist, 1)
    dist = dist + dist.transpose(0, 2, 1)
    masks = rng.integers(0, 2, size=(rows, k, k, n_observables))
    masks = np.triu(masks.transpose(0, 3, 1, 2), 1).transpose(0, 2, 3, 1)
    masks = (masks | masks.transpose(0, 2, 1, 3)).astype(np.uint8)
    return dist, masks


def upper(dist, masks):
    """``(rows, k, k)`` weights and ``(rows, k, k, n_observables)``
    corrections in the pair layout ``_min_pairing`` reads."""
    low, high = np.triu_indices(dist.shape[1], 1)
    return dist[:, low, high].T, masks[:, low, high].transpose(1, 2, 0) != 0


class TestPlan:
    @pytest.mark.parametrize(
        "k,states",
        [(2, 2), (4, 5), (6, 13), (8, 34), (10, 89), (12, 233), (14, 610),
         (16, 1597), (18, 4181), (20, 10946)],
    )
    def test_state_count_is_fibonacci(self, k, states):
        # Reachable subsets under lowest-first pairing, the full and the
        # empty set included: Fibonacci number F(k + 1).
        assert sum(pair.shape[0] for pair, _ in _plan(k)) + 1 == states


class TestMinPairing:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        k=st.sampled_from([2, 4, 6, 8, 10]),
        n_observables=st.integers(0, 2),
        integer=st.booleans(),
        unreachable=st.booleans(),
    )
    def test_matches_brute_force(
        self, seed, rows, k, n_observables, integer, unreachable
    ):
        dist, masks = random_instance(
            seed, rows, k, n_observables, integer, unreachable
        )
        best, prediction, ambiguous = _min_pairing(*upper(dist, masks))
        assert prediction.shape == (rows, n_observables)
        for r in range(rows):
            candidates = brute_force(dist[r], masks[r])
            optimum = min(total for total, _ in candidates)
            if not np.isfinite(optimum):
                assert not np.isfinite(best[r])
                continue
            assert best[r] == pytest.approx(optimum, abs=1e-9)

            def differ(slack, optimum=optimum, candidates=candidates):
                near = [c for t, c in candidates if t <= optimum + slack]
                return any(not np.array_equal(c, near[0]) for c in near)

            # Every pairing within the tolerance predicts the returned
            # correction unless the row is flagged...
            if not ambiguous[r]:
                assert not differ(_TIE_TOL)
                assert any(
                    t <= optimum + _TIE_TOL
                    and np.array_equal(c, prediction[r])
                    for t, c in candidates
                )
            # ...and a flag always stems from a genuine near-tie (the
            # tolerance can compound once per level).
            else:
                assert differ(k // 2 * _TIE_TOL)

    def test_planted_tie_with_differing_predictions_is_flagged(self):
        dist = np.full((1, 4, 4), 3.0)
        masks = np.zeros((1, 4, 4, 1), dtype=np.uint8)
        masks[0, 0, 1] = masks[0, 1, 0] = 1
        best, _, ambiguous = _min_pairing(*upper(dist, masks))
        assert best[0] == 6.0
        assert ambiguous[0]

    def test_planted_tie_with_equal_predictions_is_not_flagged(self):
        dist = np.full((1, 4, 4), 3.0)
        masks = np.ones((1, 4, 4, 1), dtype=np.uint8)
        _, prediction, ambiguous = _min_pairing(*upper(dist, masks))
        assert not ambiguous[0]
        assert prediction[0].tolist() == [0]

    def test_no_finite_pairing_gives_infinite_total(self):
        dist = np.full((1, 4, 4), 1.0)
        dist[0, 0, 1:] = dist[0, 1:, 0] = np.inf
        best, _, _ = _min_pairing(*upper(dist, np.zeros((1, 4, 4, 1), np.uint8)))
        assert best[0] == np.inf


class _Spy:
    """Records the defect sets a decoder hands to blossom matching."""

    def __init__(self, decoder):
        self.calls = []
        self._match = decoder._match
        decoder._match = self

    def __call__(self, defects):
        self.calls.append([int(d) for d in defects])
        return self._match(defects)


def cycle_dem():
    """Four detectors on a cycle of equal-weight edges, the 0-1 edge
    flipping the observable: pairings {01, 23} and {03, 12} tie on
    weight but predict different corrections."""
    dem = DetectorErrorModel(n_detectors=4, n_observables=1)
    for edge in ((0, 1), (1, 2), (2, 3), (3, 0)):
        observables = (0,) if edge == (0, 1) else ()
        dem.add_group([ErrorMechanism(0.1, edge, observables)])
    return dem


def path_dem():
    """Five detectors on a path with a boundary edge at each end."""
    dem = DetectorErrorModel(n_detectors=5, n_observables=1)
    dem.add_group([ErrorMechanism(0.1, (0,), (0,))])
    for edge in ((0, 1), (1, 2), (2, 3), (3, 4)):
        dem.add_group([ErrorMechanism(0.1, edge, ())])
    dem.add_group([ErrorMechanism(0.1, (4,), ())])
    return dem


class TestFallback:
    def test_planted_tie_ends_in_blossom(self):
        dem = cycle_dem()
        compiled = CompiledMatchingDecoder(dem)
        spy = _Spy(compiled)
        syndromes = np.ones((1, 4), dtype=np.uint8)
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )
        assert spy.calls == [[0, 1, 2, 3]]

    def test_unreachable_pair_ends_in_blossom(self):
        # Components {0, 1, 2} and {3, 4}, no boundary: four defects
        # split three to one have no finite perfect pairing.
        dem = DetectorErrorModel(n_detectors=5, n_observables=1)
        dem.add_group([ErrorMechanism(0.1, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.1, (1, 2), ())])
        dem.add_group([ErrorMechanism(0.1, (3, 4), (0,))])
        compiled = CompiledMatchingDecoder(dem)
        spy = _Spy(compiled)
        syndromes = np.array(
            [[1, 1, 1, 1, 0], [1, 1, 0, 1, 1]], dtype=np.uint8
        )
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            MatchingDecoder(dem).decode_batch(syndromes),
        )
        assert spy.calls == [[0, 1, 2, 3]]

    def test_fallback_rows_counted_once_per_batch(self):
        obs.enable(tracing=False, metrics=True)
        compiled = CompiledMatchingDecoder(cycle_dem())
        pid = str(os.getpid())
        name = "repro_decode_fallback_rows_total"
        dp = "repro_decode_dp_rows_total"
        compiled.decode_batch(np.array([[1, 1, 0, 0]], dtype=np.uint8))
        assert obs.registry().value(name, pid=pid) == 0
        assert obs.registry().value(dp, pid=pid) == 0
        compiled.decode_batch(np.ones((3, 4), dtype=np.uint8))
        assert obs.registry().value(name, pid=pid) == 1
        assert obs.registry().value(dp, pid=pid) == 0
        compiled.decode_batch_packed(np.array([[0b1111]], dtype=np.uint64))
        assert obs.registry().value(name, pid=pid) == 2
        assert obs.registry().value(dp, pid=pid) == 0
        # On a path the pairing {01, 23} is the unique optimum: the DP
        # settles those rows (once per unique row), blossom none.
        path = CompiledMatchingDecoder(path_dem())
        rows = np.array([[1, 1, 1, 1, 0], [1, 1, 1, 1, 0], [0, 1, 1, 1, 1],
                         [1, 1, 0, 0, 0]], dtype=np.uint8)
        path.decode_batch(rows)
        assert obs.registry().value(dp, pid=pid) == 2
        assert obs.registry().value(name, pid=pid) == 2
        path.decode_batch_packed(bitops.pack_rows(rows))
        assert obs.registry().value(dp, pid=pid) == 4
        assert obs.registry().value(name, pid=pid) == 2

    def test_fallback_rows_not_counted_without_metrics(self):
        compiled = CompiledMatchingDecoder(cycle_dem())
        compiled.decode_batch(np.ones((1, 4), dtype=np.uint8))
        CompiledMatchingDecoder(path_dem()).decode_batch(
            np.ones((1, 5), dtype=np.uint8)
        )
        obs.enable(tracing=False, metrics=True)
        for name in (
            "repro_decode_fallback_rows_total", "repro_decode_dp_rows_total"
        ):
            assert obs.registry().value(name, pid=str(os.getpid())) is None
