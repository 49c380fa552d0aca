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
