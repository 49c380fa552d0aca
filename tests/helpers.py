"""Shared test utilities: random circuit generation and distribution
comparison between simulators."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.circuit import Circuit

SINGLE_QUBIT_GATES = (
    "H", "S", "S_DAG", "X", "Y", "Z", "SQRT_X", "SQRT_X_DAG",
    "SQRT_Y", "H_XY", "H_YZ", "C_XYZ", "C_ZYX",
)
TWO_QUBIT_GATES = (
    "CX", "CY", "CZ", "SWAP", "ISWAP", "XCX", "XCZ", "YCY",
    "SQRT_XX", "SQRT_ZZ",
)
MEASUREMENTS = ("M", "MX", "MY")
RESETS = ("R", "RX", "RY")


def random_clifford_circuit(
    rng: np.random.Generator,
    n_qubits: int,
    depth: int,
    p_two_qubit: float = 0.25,
    p_noise: float = 0.0,
    p_measure: float = 0.1,
    p_reset: float = 0.05,
    p_feedback: float = 0.0,
    noise_strength: float = 0.3,
    final_measure: bool = True,
) -> Circuit:
    """A random circuit mixing gates, channels, measurements, resets and
    (optionally) classically-controlled Paulis."""
    from repro.circuit import RecTarget

    circuit = Circuit()
    measured = 0
    for _ in range(depth):
        r = rng.random()
        if r < p_feedback and measured > 0:
            lookback = -int(rng.integers(1, min(measured, 4) + 1))
            circuit.append(
                str(rng.choice(["CX", "CY", "CZ"])),
                [RecTarget(lookback), int(rng.integers(n_qubits))],
            )
        elif r < p_feedback + p_two_qubit and n_qubits >= 2:
            a, b = rng.choice(n_qubits, 2, replace=False)
            circuit.append(str(rng.choice(TWO_QUBIT_GATES)), [int(a), int(b)])
        elif r < p_feedback + p_two_qubit + p_noise:
            kind = rng.random()
            qubit = int(rng.integers(n_qubits))
            if kind < 0.4:
                circuit.append("DEPOLARIZE1", [qubit], noise_strength)
            elif kind < 0.6:
                circuit.append(
                    str(rng.choice(["X_ERROR", "Y_ERROR", "Z_ERROR"])),
                    [qubit],
                    noise_strength,
                )
            elif kind < 0.8 and n_qubits >= 2:
                a, b = rng.choice(n_qubits, 2, replace=False)
                circuit.append("DEPOLARIZE2", [int(a), int(b)], noise_strength)
            else:
                circuit.append(
                    "PAULI_CHANNEL_1", [qubit],
                    [noise_strength / 3] * 3,
                )
        elif r < p_feedback + p_two_qubit + p_noise + p_measure:
            circuit.append(
                str(rng.choice(MEASUREMENTS)), [int(rng.integers(n_qubits))]
            )
            measured += 1
        elif r < p_feedback + p_two_qubit + p_noise + p_measure + p_reset:
            name = str(rng.choice(RESETS + ("MR",)))
            circuit.append(name, [int(rng.integers(n_qubits))])
            if name == "MR":
                measured += 1
        else:
            circuit.append(
                str(rng.choice(SINGLE_QUBIT_GATES)),
                [int(rng.integers(n_qubits))],
            )
    if final_measure:
        circuit.m(*range(n_qubits))
    return circuit


def record_distribution(records: np.ndarray) -> dict[int, float]:
    """Empirical distribution over whole measurement records."""
    total = records.shape[0]
    return {k: c / total for k, c in counts_by_record(records).items()}


def total_variation(p: dict[int, float], q: dict[int, float]) -> float:
    """Total-variation distance between two record distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def counts_by_record(records: np.ndarray) -> dict[int, int]:
    """Raw outcome counts over whole records (keys as packed ints)."""
    if records.shape[1] > 20:
        raise ValueError("record too wide for exact count comparison")
    keys = records @ (1 << np.arange(records.shape[1], dtype=np.int64))
    values, counts = np.unique(keys, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def chi_square_two_sample(
    counts_a: dict[int, int], counts_b: dict[int, int]
) -> tuple[float, float]:
    """Two-sample chi-square homogeneity test between outcome counts.

    Returns ``(statistic, threshold)`` where ``threshold`` is the
    approximate 99.95% quantile of the chi-square distribution with
    ``cells - 1`` degrees of freedom (Wilson-Hilferty), so
    ``statistic < threshold`` is a [false-positive rate ~ 5e-4] check
    that both samplers draw from the same distribution.
    """
    total_a = sum(counts_a.values())
    total_b = sum(counts_b.values())
    k_a = (total_b / total_a) ** 0.5
    k_b = (total_a / total_b) ** 0.5
    cells = set(counts_a) | set(counts_b)
    statistic = 0.0
    for cell in cells:
        observed_a = counts_a.get(cell, 0)
        observed_b = counts_b.get(cell, 0)
        statistic += (k_a * observed_a - k_b * observed_b) ** 2 / (
            observed_a + observed_b
        )
    dof = max(len(cells) - 1, 1)
    z = 3.2905  # standard normal quantile at 0.9995
    threshold = dof * (1 - 2 / (9 * dof) + z * (2 / (9 * dof)) ** 0.5) ** 3
    return statistic, threshold


def append_random_annotations(
    circuit: Circuit, rng: np.random.Generator, n_detectors: int = 2
) -> Circuit:
    """Append random DETECTOR/OBSERVABLE_INCLUDE lookbacks to a circuit."""
    n_m = circuit.num_measurements
    if n_m == 0:
        return circuit
    for _ in range(n_detectors):
        size = int(rng.integers(1, min(n_m, 3) + 1))
        lookbacks = rng.choice(n_m, size=size, replace=False)
        circuit.detector(*(-int(k) - 1 for k in lookbacks))
    size = int(rng.integers(1, min(n_m, 4) + 1))
    lookbacks = rng.choice(n_m, size=size, replace=False)
    circuit.observable_include(0, *(-int(k) - 1 for k in lookbacks))
    return circuit


@contextmanager
def swap_rng_stream(backend: str, token: str):
    """Re-register ``backend`` under another ``rng_stream`` token inside
    the ``with`` block (as if its RNG consumption scheme had changed),
    then register the original entry back."""
    import dataclasses

    from repro.backends import get_backend, register_backend

    entry = get_backend(backend)
    register_backend(
        dataclasses.replace(entry.info, rng_stream=token), entry.factory
    )
    try:
        yield
    finally:
        register_backend(entry.info, entry.factory)


# -- exact distributions ---------------------------------------------------
#
# Two exact (no sampling) views of a circuit's measurement-record
# distribution.  ``exact_record_distribution`` evolves a classical-quantum
# state (one unnormalized density matrix per record prefix) with the dense
# unitaries and Pauli mixtures written out from the channel definitions,
# so it shares no code with the tableau, frame or symbolic simulators.
# ``symbolic_record_distribution`` reads the same distribution off
# Algorithm 1's measurement matrix and symbol table alone.

_DENSE_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# The Pauli that takes a basis's -1 eigenstate to its +1 eigenstate.
_RESET_FLIP = {"Z": "X", "X": "Z", "Y": "X"}
_EXACT_TOLERANCE = 1e-12
_MIXTURES = (
    "X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1", "PAULI_CHANNEL_1",
    "DEPOLARIZE2",
)


def pauli_mixture(instruction) -> list[list[tuple[float, tuple]]]:
    """A noise instruction as one Pauli mixture per site: a list of
    ``(probability, ((letter, qubit), ...))`` entries, identity included.

    Written from the channel definitions (Stim's conventions), not from
    :mod:`repro.noise.channels`, so the exact oracle checks those too.
    """
    name, args = instruction.name, instruction.args
    if name not in _MIXTURES:
        raise ValueError(f"no exact mixture for {name}")
    qubits = [int(t) for t in instruction.targets]
    if name in ("X_ERROR", "Y_ERROR", "Z_ERROR"):
        p = args[0]
        return [[(1 - p, ()), (p, ((name[0], q),))] for q in qubits]
    if name in ("DEPOLARIZE1", "PAULI_CHANNEL_1"):
        px, py, pz = (args[0] / 3,) * 3 if name == "DEPOLARIZE1" else args
        return [
            [(1 - px - py - pz, ()), (px, (("X", q),)), (py, (("Y", q),)),
             (pz, (("Z", q),))]
            for q in qubits
        ]
    if name == "DEPOLARIZE2":
        p = args[0]
        sites = []
        for a, b in zip(qubits[0::2], qubits[1::2]):
            site = [(1 - p, ())]
            for la in "IXYZ":
                for lb in "IXYZ":
                    if la + lb != "II":
                        action = tuple(
                            (letter, q)
                            for letter, q in ((la, a), (lb, b))
                            if letter != "I"
                        )
                        site.append((p / 15, action))
            sites.append(site)
        return sites


def _apply_operator(rho: np.ndarray, op: np.ndarray, qubits, n: int) -> np.ndarray:
    """``op · rho · op†`` on the ``(2,) * 2n`` tensor ``rho`` (qubit 0 is
    the most significant bit), ``op`` acting on ``qubits``."""
    k = len(qubits)
    shaped = op.reshape((2,) * (2 * k))
    inputs = list(range(k, 2 * k))
    for tensor, axes in ((shaped, list(qubits)), (shaped.conj(), [n + q for q in qubits])):
        rho = np.tensordot(tensor, rho, axes=(inputs, axes))
        rho = np.moveaxis(rho, list(range(k)), axes)
    return rho


def _trace(rho: np.ndarray, n: int) -> float:
    return float(np.real(np.trace(rho.reshape(2**n, 2**n))))


def _projector(basis: str, outcome: int) -> np.ndarray:
    sign = -1 if outcome else 1
    return (_DENSE_PAULI["I"] + sign * _DENSE_PAULI[basis]) / 2


def exact_record_distribution(circuit: Circuit) -> dict[int, float]:
    """Exact probability of every measurement record (keys pack bit ``k``
    = measurement ``k``), by density-matrix evolution branched on each
    measurement outcome.  Exponential in qubits and record length: for
    circuits of a few qubits and at most ~10 measurements."""
    from repro.circuit import RecTarget
    from repro.gates.database import FEEDBACK_LETTER
    from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q

    n = max(circuit.n_qubits, 1)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    # record (key, length) -> unnormalized density matrix
    state: dict[tuple[int, int], np.ndarray] = {(0, 0): rho.reshape((2,) * (2 * n))}

    def measure(qubit: int, basis: str, record: bool, reset: bool) -> None:
        nonlocal state
        out: dict[tuple[int, int], np.ndarray] = {}
        for (key, length), rho in state.items():
            for outcome in (0, 1):
                branch = _apply_operator(rho, _projector(basis, outcome), [qubit], n)
                if _trace(branch, n) < _EXACT_TOLERANCE:
                    continue
                if reset and outcome:
                    branch = _apply_operator(
                        branch, _DENSE_PAULI[_RESET_FLIP[basis]], [qubit], n
                    )
                new = (key | outcome << length, length + 1) if record else (key, length)
                out[new] = out[new] + branch if new in out else branch
        state = out

    for instruction in circuit.flattened():
        gate = instruction.gate
        targets = instruction.targets
        if gate.kind == "unitary":
            name = gate.name
            if name in UNITARIES_1Q:
                for q in targets:
                    state = {
                        r: _apply_operator(rho, UNITARIES_1Q[name], [q], n)
                        for r, rho in state.items()
                    }
                continue
            for a, b in zip(targets[0::2], targets[1::2]):
                if isinstance(a, RecTarget):
                    pauli = _DENSE_PAULI[FEEDBACK_LETTER[name]]
                    state = {
                        (key, length): (
                            _apply_operator(rho, pauli, [b], n)
                            if key >> (length + a.offset) & 1
                            else rho
                        )
                        for (key, length), rho in state.items()
                    }
                else:
                    state = {
                        r: _apply_operator(rho, UNITARIES_2Q[name], [a, b], n)
                        for r, rho in state.items()
                    }
        elif gate.kind in ("measure", "reset", "measure_reset"):
            for q in targets:
                measure(q, gate.basis, gate.kind != "reset", gate.kind != "measure")
        elif gate.kind == "noise":
            for site in pauli_mixture(instruction):
                mixed = {}
                for r, rho in state.items():
                    total = np.zeros_like(rho)
                    for probability, action in site:
                        if probability == 0:
                            continue
                        term = rho
                        for letter, q in action:
                            term = _apply_operator(term, _DENSE_PAULI[letter], [q], n)
                        total = total + probability * term
                    mixed[r] = total
                state = mixed
        elif gate.kind != "annotation":
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")
    return {key: _trace(rho, n) for (key, _), rho in state.items()}


def symbolic_record_distribution(simulator) -> dict[int, float]:
    """Exact record distribution implied by Algorithm 1's output: the
    constant column XOR the columns of the set symbols, each noise site
    and measurement coin drawn from its joint pattern distribution."""
    from repro.gf2 import bitops

    width = simulator.symbols.width
    columns = [0] * width
    for k, vector in enumerate(simulator.measurements):
        bits = bitops.unpack_bits(vector, min(width, vector.size * 64))
        for j in np.nonzero(bits)[0]:
            columns[int(j)] |= 1 << k
    distribution = {columns[0]: 1.0}
    for first, n_symbols, probabilities, _ in simulator.symbols.sites():
        flips = []
        for pattern in range(len(probabilities)):
            flip = 0
            for j in range(n_symbols):
                if pattern >> j & 1:
                    flip ^= columns[first + j]
            flips.append(flip)
        folded: dict[int, float] = {}
        for key, p in distribution.items():
            for flip, q in zip(flips, probabilities):
                if q > 0:
                    folded[key ^ flip] = folded.get(key ^ flip, 0.0) + p * q
        distribution = folded
    return distribution


def assert_distributions_equal(
    actual: dict[int, float], expected: dict[int, float], tolerance: float = 1e-9
) -> None:
    """Same support (ignoring zero-probability keys) and probabilities."""
    keys = {k for k, p in actual.items() if p > tolerance} | {
        k for k, p in expected.items() if p > tolerance
    }
    for key in sorted(keys):
        a, e = actual.get(key, 0.0), expected.get(key, 0.0)
        assert abs(a - e) < tolerance, (
            f"record {key:b}: probability {a} != {e}\n"
            f"actual {actual}\nexpected {expected}"
        )
    assert abs(sum(actual.values()) - 1) < tolerance
