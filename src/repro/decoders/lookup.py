"""Maximum-likelihood lookup-table decoder for small DEMs.

Enumerates fault sets up to a weight cap, records for each reachable
syndrome the most likely observable correction.  Exact (MAP over the
enumerated sets) for small codes; exponential in the cap, so strictly a
small-instance tool and a correctness reference for MatchingDecoder.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from repro.decoders.registry import (
    check_syndromes,
    loop_decode_chunks,
    pack_decode_batch,
)
from repro.dem.model import DetectorErrorModel


class LookupDecoder:
    """Syndrome -> most-likely-correction table decoder."""

    def __init__(self, dem: DetectorErrorModel, max_weight: int = 2):
        self.n_detectors = dem.n_detectors
        self.n_observables = dem.n_observables
        self.table: dict[bytes, np.ndarray] = {}
        best_score: dict[bytes, float] = {}

        mechanisms = dem.mechanisms
        # P(fault set S) = prod(1-p) over all mechanisms (constant) times
        # prod p/(1-p) over S, so MAP ranks fault sets by the sum of
        # *log-odds*.  Plain sum-log-p would not rank correctly across
        # sets of different sizes: the prod(1-p) prior only factors out
        # of the odds ratio, not out of the raw likelihood.
        log_odds = []
        for m in mechanisms:
            p = min(max(m.probability, 1e-15), 1 - 1e-15)
            log_odds.append(math.log(p / (1 - p)))
        for weight in range(0, max_weight + 1):
            for combo in combinations(range(len(mechanisms)), weight):
                syndrome = np.zeros(self.n_detectors, dtype=np.uint8)
                correction = np.zeros(self.n_observables, dtype=np.uint8)
                score = 0.0
                for index in combo:
                    mech = mechanisms[index]
                    for d in mech.detectors:
                        syndrome[d] ^= 1
                    for o in mech.observables:
                        correction[o] ^= 1
                    score += log_odds[index]
                key = syndrome.tobytes()
                if score > best_score.get(key, -math.inf):
                    best_score[key] = score
                    self.table[key] = correction

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Most likely observable flips; zeros for unknown syndromes."""
        key = np.asarray(syndrome, dtype=np.uint8).tobytes()
        correction = self.table.get(key)
        if correction is None:
            return np.zeros(self.n_observables, dtype=np.uint8)
        return correction.copy()

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many detector samples: shape (shots, n_detectors)."""
        syndromes = check_syndromes(syndromes, self.n_detectors)
        if syndromes.shape[0] == 0:
            return np.zeros(
                (0, self.n_observables), dtype=np.uint8
            )
        return np.stack([self.decode(row) for row in syndromes])

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode packed syndromes through the generic pack-adapter."""
        return pack_decode_batch(self, syndromes)

    def decode_chunks_packed(self, chunks) -> list:
        """Decode each packed chunk through :meth:`decode_batch_packed`."""
        return loop_decode_chunks(self, chunks)

    @property
    def n_syndromes(self) -> int:
        return len(self.table)
