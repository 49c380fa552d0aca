"""DEM data model and DEM-level sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.gf2 import bitops
from repro.rng import as_generator


@dataclass(frozen=True, slots=True)
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


class DemArrays(NamedTuple):
    """A DEM's array form: its mechanisms in walk order (every group's
    members in turn, groups in order), as packed signature rows.

    ``detectors`` and ``observables`` are ``(mechanisms, words)`` uint64
    rows (bit ``i`` of a row is index ``i``), ``probabilities`` the
    float64 probabilities and ``group_sizes`` how many consecutive rows
    each group holds.
    """

    detectors: np.ndarray
    observables: np.ndarray
    probabilities: np.ndarray
    group_sizes: np.ndarray


class DetectorErrorModel:
    """A set of error mechanisms over detectors and logical observables.

    ``groups`` partitions mechanism indices into mutually-exclusive sets
    (the patterns of one noise site); mechanisms in different groups are
    independent.  Sampling with the group structure is exact; the
    flattened independent-mechanism view is the usual DEM approximation.

    Construction rejects (``ValueError``) a mechanism that is not in
    exactly one group and detector or observable indices outside the
    model.  Change a model through :meth:`add_group` only.

    A model has two forms.  :attr:`arrays` (:class:`DemArrays`) is the
    one decoders read.  An extracted model is built from it alone
    (:meth:`from_arrays`), and its ``mechanisms`` and ``groups`` lists
    are built the first time someone reads them.  A model built from
    lists gets its array form from them on every read of
    :attr:`arrays`.
    """

    def __init__(
        self,
        n_detectors: int,
        n_observables: int,
        mechanisms: list[ErrorMechanism] | None = None,
        groups: list[list[int]] | None = None,
    ) -> None:
        self.n_detectors = n_detectors
        self.n_observables = n_observables
        self._mechanisms = [] if mechanisms is None else mechanisms
        self._groups = [] if groups is None else groups
        self._arrays: DemArrays | None = None
        self._validate()

    @classmethod
    def from_arrays(
        cls, n_detectors: int, n_observables: int, arrays: DemArrays
    ) -> "DetectorErrorModel":
        """A model whose array form is ``arrays`` (valid by construction:
        unchecked), its lists built on first read."""
        dem = cls.__new__(cls)
        dem.n_detectors = n_detectors
        dem.n_observables = n_observables
        dem._mechanisms = dem._groups = None
        dem._arrays = arrays
        return dem

    def _validate(self) -> None:
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

    @property
    def mechanisms(self) -> list[ErrorMechanism]:
        """One mechanism per row of an array-form model, in row order
        (built on first read)."""
        if self._mechanisms is None:
            arrays = self._arrays
            self._mechanisms = [
                ErrorMechanism(p, d, o)
                for p, d, o in zip(
                    arrays.probabilities.tolist(),
                    _index_tuples(arrays.detectors),
                    _index_tuples(arrays.observables),
                )
            ]
        return self._mechanisms

    @property
    def groups(self) -> list[list[int]]:
        """Each group of an array-form model is its run of consecutive
        rows (built on first read)."""
        if self._groups is None:
            sizes = self._arrays.group_sizes
            self._groups = [
                list(range(stop - size, stop))
                for stop, size in zip(np.cumsum(sizes).tolist(), sizes.tolist())
            ]
        return self._groups

    @property
    def arrays(self) -> DemArrays:
        """The model's :class:`DemArrays`: an extracted model's own, else
        converted from the lists in walk order."""
        if self._arrays is not None:
            return self._arrays
        walk = [
            self._mechanisms[index] for group in self._groups for index in group
        ]
        return DemArrays(
            _pack_indices(
                [m.detectors for m in walk], self.n_detectors, "detector"
            ),
            _pack_indices(
                [m.observables for m in walk], self.n_observables, "observable"
            ),
            np.array([m.probability for m in walk], dtype=np.float64),
            np.array([len(group) for group in self._groups], dtype=np.int64),
        )

    def add_group(self, mechanisms: list[ErrorMechanism]) -> None:
        start = len(self.mechanisms)
        self.mechanisms.extend(mechanisms)
        self.groups.append(list(range(start, start + len(mechanisms))))
        self._arrays = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DetectorErrorModel):
            return NotImplemented
        return (
            self.n_detectors, self.n_observables, self.mechanisms, self.groups
        ) == (
            other.n_detectors, other.n_observables, other.mechanisms,
            other.groups,
        )

    def __repr__(self) -> str:
        return (
            f"DetectorErrorModel(n_detectors={self.n_detectors}, "
            f"n_observables={self.n_observables}, "
            f"mechanisms={self.mechanisms!r}, groups={self.groups!r})"
        )

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


def _index_tuples(words: np.ndarray) -> list[tuple[int, ...]]:
    """Set-bit indices of every packed row, one tuple per row."""
    counts, bits = bitops.nonzero_bits_csr(words)
    starts = np.cumsum(counts) - counts
    out: list[tuple[int, ...]] = [()] * words.shape[0]
    # One int object per index, shared by every tuple that holds it, so
    # the lists a reader builds hold fewer objects.
    names = np.array(range(64 * words.shape[1]), dtype=object)
    # Rows with equal bit counts gather as one (rows, count) block.
    for count in np.unique(counts[counts > 0]).tolist():
        chosen = np.flatnonzero(counts == count)
        block = names[bits[starts[chosen, None] + np.arange(count)]]
        for row, indices in zip(chosen.tolist(), block.tolist()):
            out[row] = tuple(indices)
    return out


def _pack_indices(
    rows: list[tuple[int, ...]], n_bits: int, kind: str
) -> np.ndarray:
    """Index tuples as packed rows, the inverse of :func:`_index_tuples`.

    A tuple with an index outside ``0..n_bits - 1`` or a repeated one
    has no packed form: it raises ``ValueError`` naming the ``kind``
    (``"detector"`` or ``"observable"``) and the tuple."""
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    flat = np.fromiter(
        (index for row in rows for index in row), np.int64, int(counts.sum())
    )
    row_of = np.repeat(np.arange(len(rows)), counts)
    words = np.zeros((len(rows), bitops.words_for(n_bits)), dtype=np.uint64)
    outside = (flat < 0) | (flat >= n_bits)
    bad = np.unique(row_of[outside])
    if not bad.size:
        np.bitwise_or.at(
            words, (row_of, flat >> 6),
            np.uint64(1) << (flat & 63).astype(np.uint64),
        )
        (bad,) = np.nonzero(np.bitwise_count(words).sum(axis=1) != counts)
    if bad.size:
        raise ValueError(
            f"a mechanism's {kind}s {rows[bad[0]]} repeat an index or "
            f"leave 0..{n_bits - 1}"
        )
    return words
