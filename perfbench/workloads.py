"""The benchmark's workloads: inputs, set-up, the timed operation, checks.

Every workload is a closed loop: one caller issues a fixed shot budget
and waits for the result, in-process (``collect`` with one worker).  The circuit and the seed the program samples
with are both derived from the workload seed, so a seed fixes the inputs
and therefore every count the program reports.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit
from repro.engine import ExecutionOptions, Task, collect
from repro.engine.cache import reset_shared_cache
from repro.qec import surface_code_memory
from repro.workloads.layered import layered_random_circuit

#: Physical error rate of both surface-code memories.
SURFACE_P = 0.002

#: Half-width of the logical-error band, in binomial standard deviations,
#: plus a relative allowance for the uncertainty of the reference rate.
BAND_SIGMAS = 6.0
BAND_RELATIVE = 0.25


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"surface"`` (an engine ``collect`` of a surface-code
    memory, decoded) or ``"layered"`` (measurement records sampled from
    the paper's Fig. 3c circuit family).  ``shots`` is the shot budget of
    one timed operation.  ``reference_ler`` is the logical error rate the
    surface workloads' error counts are checked against.
    """

    name: str
    kind: str
    sampler: str
    decoder: str
    shots: int
    chunk_shots: int = 0
    distance: int = 0
    reference_ler: float = 0.0

    @property
    def surface(self) -> bool:
        return self.kind == "surface"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "surface_d7_decode", "surface", sampler="frame",
            decoder="compiled-matching", shots=4_096,
            chunk_shots=4_096, distance=7, reference_ler=0.00092,
        ),
        Workload(
            "surface_d5_chunked", "surface", sampler="symbolic",
            decoder="compiled-matching", shots=32_768,
            chunk_shots=512, distance=5, reference_ler=0.00263,
        ),
        Workload(
            "layered_fig3c", "layered", sampler="symbolic", decoder="none",
            shots=5_000,
        ),
    )
}


#: Distinct sample seeds a run can draw on.  Operation ``i`` samples with
#: seed ``i``, so a run's median spans many inputs rather than a few (the
#: decode-bound workload's cost depends on its syndromes); no run gets
#: through this many operations.
INPUTS_PER_RUN = 1024

#: Operations every run makes, however short ``--seconds`` is.  Their
#: exact counts are the ones a run prints, so the same seed prints the
#: same counts whatever the host's speed.
MIN_OPERATIONS = 3


@dataclass(frozen=True)
class Inputs:
    """What the program receives: a circuit and the seeds it samples
    with (each one the engine's ``base_seed`` for surface workloads, the
    ``sample`` seed for the layered one)."""

    circuit: Circuit
    sample_seeds: tuple[int, ...]


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Derive the workload's inputs from the benchmark seed."""
    words = np.random.SeedSequence([seed, name_word(workload.name)])
    sample_seeds = tuple(
        int(word) >> 1
        for word in words.generate_state(INPUTS_PER_RUN, np.uint64)
    )
    if workload.surface:
        circuit = surface_code_memory(
            workload.distance,
            rounds=workload.distance,
            after_clifford_depolarization=SURFACE_P,
            before_measure_flip_probability=SURFACE_P,
        )
    else:
        circuit = layered_random_circuit(
            128,
            n_layers=128,
            cnot_pairs_per_layer=64,
            depolarize_probability=0.001,
            seed=seed,
        )
    return Inputs(circuit, sample_seeds)


def name_word(name: str) -> int:
    """A stable 32-bit integer for a workload name (seed-sequence word)."""
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")


def setup(workload: Workload, inputs: Inputs):
    """Build every compiled artifact the workload uses, from an empty
    process-global cache: the sampler, plus the DEM and decoder for the
    surface workloads.  Returns the compiled circuit handle."""
    reset_shared_cache()
    compiled = inputs.circuit.compile(
        sampler=workload.sampler, decoder=workload.decoder
    )
    _ = compiled.sampler
    if workload.surface:
        _ = compiled.decoder  # extracts the DEM first
    return compiled


def task(workload: Workload, compiled) -> Task:
    return compiled.task(max_shots=workload.shots)


def run_operation(workload: Workload, compiled, sample_seed: int, **extra):
    """The timed operation: ``collect`` for surface workloads (returns
    its ``TaskStats``), ``sample`` for the layered one (returns the
    measurement records).  ``extra`` goes to ``ExecutionOptions``."""
    if workload.surface:
        options = ExecutionOptions(
            base_seed=sample_seed, chunk_shots=workload.chunk_shots, **extra
        )
        return collect([task(workload, compiled)], options=options)[0]
    return compiled.sample(workload.shots, sample_seed)


def outcome(workload: Workload, result) -> dict:
    """The exact, timing-free summary of one operation's output."""
    if workload.surface:
        return {
            "shots": result.shots,
            "errors": result.errors,
            "chunks": result.chunks,
            "failed_chunks": result.failed_chunks,
        }
    return {
        "shots": int(result.shape[0]),
        "measurements": int(result.shape[1]),
        "ones": int(np.count_nonzero(result)),
        "sha256": records_digest(result),
    }


def records_digest(records: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(records).tobytes()).hexdigest()


def error_band(workload: Workload, shots: int) -> tuple[float, float]:
    """The wide binomial band the error count of ``shots`` must fall in."""
    mean = shots * workload.reference_ler
    sigma = math.sqrt(mean * (1.0 - workload.reference_ler))
    half = BAND_SIGMAS * sigma + BAND_RELATIVE * mean
    return max(0.0, mean - half), mean + half


class Checks:
    """Output checks of one run; each failed check is a failed operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def check(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


def check_operation(workload: Workload, summary: dict, checks: Checks) -> None:
    """Checks one operation's output can answer on its own."""
    if workload.surface:
        planned = math.ceil(workload.shots / workload.chunk_shots)
        checks.check("no quarantined chunks", summary["failed_chunks"] == 0)
        checks.check(
            "every planned chunk ran",
            summary["chunks"] == planned
            and summary["shots"] == workload.shots,
        )
        low, high = error_band(workload, summary["shots"])
        checks.check(
            f"errors {summary['errors']} in band [{low:.1f}, {high:.1f}]",
            low <= summary["errors"] <= high,
        )
    else:
        checks.check(
            "records have the requested shape",
            summary["shots"] == workload.shots and summary["measurements"] > 0,
        )


def operations(workload: Workload, summary: dict) -> tuple[int, int]:
    """(attempted, quarantined) operations of one timed run: the engine's
    chunks, or one sample batch."""
    if workload.surface:
        return (
            summary["chunks"] + summary["failed_chunks"],
            summary["failed_chunks"],
        )
    return 1, 0
