"""The raw detector error model against an exact oracle.

``extract_dem(..., merge=False)`` keeps one group per noise site: the
site's non-identity patterns are mutually exclusive, different sites are
independent.  Folding those groups gives the exact joint distribution of
detector and observable flips.  The oracle starts from the exact record
distribution of the circuit (:func:`tests.helpers.exact_record_distribution`)
and takes the parities the annotations name, relative to their noiseless
values.  Detectors are record parities that are constant on the
noiseless circuit, found from that circuit's exact support, so they are
deterministic by construction and not by trusting the symbolic pass.
"""

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.dem import extract_dem
from repro.gf2.linalg import nullspace
from tests.helpers import (
    assert_distributions_equal,
    exact_record_distribution,
    random_clifford_circuit,
)

_MAX_MEASUREMENTS = 8


def _record_bits(key: int, n_m: int) -> np.ndarray:
    return np.array([key >> k & 1 for k in range(n_m)], dtype=np.uint8)


def _constant_parities(circuit: Circuit) -> tuple[np.ndarray, np.ndarray]:
    """``(checks, values)``: a basis of the record parities that are
    constant on the noiseless circuit, one per row, and their values."""
    noiseless = Circuit(
        [ins for ins in circuit.flattened() if ins.gate.kind != "noise"]
    )
    n_m = circuit.num_measurements
    support = np.array(
        [
            _record_bits(key, n_m)
            for key, p in exact_record_distribution(noiseless).items()
            if p > 1e-12
        ]
    )
    checks = nullspace(support ^ support[0])
    return checks, (checks.astype(np.int64) @ support[0]) % 2


def _annotated(seed: int) -> tuple[Circuit, np.ndarray]:
    """A random noisy circuit with 1-3 detectors and one observable, all
    deterministic without noise; also returns their noiseless values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    while True:
        circuit = random_clifford_circuit(
            rng, n, depth=16, p_noise=0.25, p_measure=0.15, p_reset=0.08,
            noise_strength=0.2,
        )
        n_m = circuit.num_measurements
        if n_m > _MAX_MEASUREMENTS:
            continue
        checks, values = _constant_parities(circuit)
        if len(checks) >= 2:
            break
    # Random nonzero combinations of the basis, so annotations mix records.
    picks = []
    while len(picks) < min(len(checks), 4):
        mix = rng.integers(0, 2, size=len(checks))
        if mix.any():
            picks.append(mix)
    picks = np.array(picks)
    parities = (picks @ checks) % 2
    constants = (picks @ values) % 2
    for parity in parities[:-1]:
        circuit.detector(*(int(k) - n_m for k in np.nonzero(parity)[0]))
    circuit.observable_include(
        0, *(int(k) - n_m for k in np.nonzero(parities[-1])[0])
    )
    return circuit, np.concatenate([parities, constants[:, None]], axis=1)


def _oracle_flips(circuit: Circuit, annotations: np.ndarray) -> dict[int, float]:
    """Exact distribution of the annotations' flips (bit ``i`` = detector
    ``i``, the observable last)."""
    n_m = circuit.num_measurements
    out: dict[int, float] = {}
    for key, p in exact_record_distribution(circuit).items():
        bits = _record_bits(key, n_m)
        flips = ((annotations[:, :-1] @ bits) + annotations[:, -1]) % 2
        flip_key = int(sum(int(b) << i for i, b in enumerate(flips)))
        out[flip_key] = out.get(flip_key, 0.0) + p
    return out


def _dem_flips(circuit: Circuit) -> dict[int, float]:
    """Exact flip distribution of the raw DEM: groups are independent,
    the mechanisms inside a group mutually exclusive."""
    model = extract_dem(circuit, merge=False)
    distribution = {0: 1.0}
    for group in model.groups:
        outcomes = [(1.0 - sum(model.mechanisms[i].probability for i in group), 0)]
        for i in group:
            mechanism = model.mechanisms[i]
            key = sum(1 << d for d in mechanism.detectors)
            key ^= sum(1 << (model.n_detectors + o) for o in mechanism.observables)
            outcomes.append((mechanism.probability, key))
        folded: dict[int, float] = {}
        for key, p in distribution.items():
            for q, flip in outcomes:
                folded[key ^ flip] = folded.get(key ^ flip, 0.0) + p * q
        distribution = folded
    return distribution


def test_hand_picked_repetition_pair():
    circuit = Circuit.from_text(
        "X_ERROR(0.1) 0\nCX 0 1\nDEPOLARIZE1(0.2) 1\nM 0 1\nDETECTOR rec[-1] rec[-2]\n"
        "OBSERVABLE_INCLUDE(0) rec[-2]"
    )
    annotations = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.int64)
    # The X error flips both records (observable only); X or Y on qubit 1
    # flips record 1 (detector only).
    p_obs, p_det = 0.1, 0.2 * 2 / 3
    expected = {
        0: (1 - p_obs) * (1 - p_det),
        1: (1 - p_obs) * p_det,
        2: p_obs * (1 - p_det),
        3: p_obs * p_det,
    }
    assert _oracle_flips(circuit, annotations) == pytest.approx(expected)
    assert_distributions_equal(_dem_flips(circuit), expected)


@pytest.mark.parametrize("seed", range(120))
def test_raw_dem_matches_exact_flip_distribution(seed):
    circuit, annotations = _annotated(40_000 + seed)
    assert_distributions_equal(_dem_flips(circuit), _oracle_flips(circuit, annotations))
