"""DEM data model and DEM-level sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rng import as_generator


@dataclass(frozen=True)
class ErrorMechanism:
    """One fault mechanism: probability + syndrome/observable signature."""

    probability: float
    detectors: tuple[int, ...]
    observables: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"bad probability {self.probability}")

    @property
    def is_graphlike(self) -> bool:
        """Flips at most two detectors (matchable as a graph edge)."""
        return len(self.detectors) <= 2

    def __str__(self) -> str:
        parts = [f"error({self.probability:g})"]
        parts.extend(f"D{d}" for d in self.detectors)
        parts.extend(f"L{o}" for o in self.observables)
        return " ".join(parts)


@dataclass
class DetectorErrorModel:
    """A set of error mechanisms over detectors and logical observables.

    ``groups`` partitions mechanism indices into mutually-exclusive sets
    (the patterns of one noise site); mechanisms in different groups are
    independent.  Sampling with the group structure is exact; the
    flattened independent-mechanism view is the usual DEM approximation.

    Construction rejects (``ValueError``) a mechanism that is not in
    exactly one group and detector or observable indices outside the
    model.
    """

    n_detectors: int
    n_observables: int
    mechanisms: list[ErrorMechanism] = field(default_factory=list)
    groups: list[list[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Sampling, merging and decoding walk ``groups`` only, so a
        # mechanism outside every group would be silently dropped.
        memberships = [0] * len(self.mechanisms)
        for group in self.groups:
            for index in group:
                if not 0 <= index < len(memberships):
                    raise ValueError(
                        f"group member {index} is not a mechanism index "
                        f"(the model has {len(memberships)} mechanisms)"
                    )
                memberships[index] += 1
        for index, count in enumerate(memberships):
            if count != 1:
                raise ValueError(
                    f"mechanism {index} is in {count} groups; every "
                    f"mechanism must be in exactly one"
                )
        for index, mechanism in enumerate(self.mechanisms):
            for kind, targets, bound in (
                ("detector", mechanism.detectors, self.n_detectors),
                ("observable", mechanism.observables, self.n_observables),
            ):
                for target in targets:
                    if not 0 <= target < bound:
                        raise ValueError(
                            f"mechanism {index} ({mechanism}) flips {kind} "
                            f"{target}, but the model has {bound} {kind}s"
                        )

    def add_group(self, mechanisms: list[ErrorMechanism]) -> None:
        start = len(self.mechanisms)
        self.mechanisms.extend(mechanisms)
        self.groups.append(list(range(start, start + len(mechanisms))))

    @property
    def graphlike(self) -> bool:
        return all(m.is_graphlike for m in self.mechanisms)

    def __str__(self) -> str:
        return "\n".join(str(m) for m in self.mechanisms)

    # -- sampling ------------------------------------------------------

    def sample(
        self, shots: int, rng: int | np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample (detectors, observables) directly from the DEM.

        Uses the exact per-group categorical distributions, so on
        circuits whose noise decomposes into the recorded groups this
        reproduces the circuit's detector statistics exactly — a useful
        cross-check of the whole extraction (tested against the circuit
        samplers).
        """
        rng = as_generator(rng)
        detectors = np.zeros((shots, self.n_detectors), dtype=np.uint8)
        observables = np.zeros((shots, self.n_observables), dtype=np.uint8)
        for group in self.groups:
            probs = np.array(
                [self.mechanisms[i].probability for i in group]
            )
            identity = max(0.0, 1.0 - probs.sum())
            full = np.concatenate([[identity], probs])
            full = full / full.sum()
            choice = rng.choice(full.size, size=shots, p=full)
            for slot, mech_index in enumerate(group, start=1):
                hit = choice == slot
                if not hit.any():
                    continue
                mech = self.mechanisms[mech_index]
                for d in mech.detectors:
                    detectors[hit, d] ^= 1
                for o in mech.observables:
                    observables[hit, o] ^= 1
        return detectors, observables

    # -- decoding ------------------------------------------------------

    def compile_decoder(self, decoder: str = "matching"):
        """Compile a registered decoder for this DEM by name.

        ``decoder`` is any :mod:`repro.decoders.registry` name or alias
        (``"matching"``, ``"compiled-matching"``, ``"lookup"``, ...).
        """
        # Import the package, not just the registry module, so the
        # built-in decoder registrations have run.
        from repro.decoders import compile_decoder

        return compile_decoder(self, decoder)

    # -- analysis --------------------------------------------------------

    def merged(self) -> "DetectorErrorModel":
        """Collapse mechanisms with identical (detectors, observables).

        Duplicate signatures *within* a group are mutually exclusive
        patterns of one noise site, so their probabilities add;
        duplicates *across* groups are independent faults whose combined
        effect is the XOR of two coin flips, so their probabilities
        convolve: ``p = p1 (1 - p2) + p2 (1 - p1)`` (both firing cancels
        on every detector and observable).

        Emitting duplicates unmerged skews every downstream decoder —
        MWPM would see two parallel edges, each underweighting the true
        flip probability.  The merged model carries each signature once,
        as its own singleton group; exact for the per-signature marginal
        flip probabilities (the quantity decoders consume), while the
        joint exclusivity between *different* signatures of a shared
        group is approximated as independence.

        :func:`~repro.dem.extract.extract_dem` computes the same merge
        with array operations; this loop is the reference it must equal
        bit for bit.
        """
        combined: dict[
            tuple[tuple[int, ...], tuple[int, ...]], float
        ] = {}
        for group in self.groups:
            within: dict[
                tuple[tuple[int, ...], tuple[int, ...]], float
            ] = {}
            for index in group:
                mech = self.mechanisms[index]
                signature = (mech.detectors, mech.observables)
                within[signature] = (
                    within.get(signature, 0.0) + mech.probability
                )
            for signature, p in within.items():
                if signature in combined:
                    q = combined[signature]
                    combined[signature] = p * (1 - q) + q * (1 - p)
                else:
                    combined[signature] = p
        out = DetectorErrorModel(self.n_detectors, self.n_observables)
        for (detectors, observables), p in combined.items():
            out.add_group(
                [ErrorMechanism(p, detectors, observables)]
            )
        return out

    def detector_error_rates(self) -> np.ndarray:
        """First-order marginal fire probability per detector (exact under
        independence of groups; small-p approximation otherwise)."""
        no_fire = np.ones(self.n_detectors, dtype=np.float64)
        for group in self.groups:
            flip_prob = np.zeros(self.n_detectors)
            for index in group:
                mech = self.mechanisms[index]
                for d in mech.detectors:
                    flip_prob[d] += mech.probability
            no_fire *= 1.0 - np.minimum(flip_prob, 1.0)
        return 1.0 - no_fire

    def filter_graphlike(self) -> "DetectorErrorModel":
        """Drop non-graphlike mechanisms (for matching-based decoders)."""
        out = DetectorErrorModel(self.n_detectors, self.n_observables)
        for group in self.groups:
            kept = [
                self.mechanisms[i]
                for i in group
                if self.mechanisms[i].is_graphlike
            ]
            if kept:
                out.add_group(kept)
        return out
