"""Time the symbolic pass (Algorithm 1's Initialization) and digest its output.

One forward pass over the circuit builds the symbolic phase matrix; every
later ``sample`` call is Eq. 4 on its result.  This bench times that pass
on the paper's Fig. 3c circuits and on surface-code memories, and records
for each a sha256 digest of everything the pass produces:

* ``matrices`` — the measurement, detector and observable matrices;
* ``symbols`` — every noise site and random measurement in allocation
  order (first symbol, symbol count, joint probabilities, kind) and every
  symbol's label;
* ``sample`` — a fixed-seed ``sample`` of the measurement records;
* ``dem`` (surface rows only) — the merged detector error model read off
  the pass: every mechanism in order, its detector and observable
  tuples and its probability as ``float.hex``;
* ``detectors`` (surface rows up to d = 9, and a high-noise d = 5 row)
  — a fixed-seed ``sample_detectors_packed`` of 512 shots, the stream
  the engine decodes (the hit scatter at low noise, Eq. 4 at high).

``--check-digests`` recomputes the digests and fails when any differs
from the committed JSON, so a rewrite of the pass that changes a single
output bit, symbol, probability or RNG draw is caught.  There is no
timing gate: no second implementation of the pass runs in-process to
compare against.

Run:  PYTHONPATH=src python benchmarks/bench_symbolic_pass.py \\
          [--repeats 3] [--check-digests] \\
          [--out benchmarks/results/bench_symbolic_pass.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

import repro.obs as obs
from repro.backends import compile_backend
from repro.dem import extract_dem
from repro.qec import surface_code_memory
from repro.workloads import fig3c_circuit

SURFACE_P = 0.002
HIGH_NOISE_P = 0.15
DETECTOR_SHOTS = 512
#: Rows that also digest a detector sample.
DETECTOR_ROWS = (
    "surface_d3", "surface_d5", "surface_d7", "surface_d9",
    f"surface_d5_p{HIGH_NOISE_P}",
)
FIG3C_SEED = 1
DIGEST_SHOTS = 1000
DIGEST_SEED = 7
RESULTS = "benchmarks/results/bench_symbolic_pass.json"


def grid() -> dict:
    """Workload name -> circuit, Fig. 3c first, then surface memories."""
    circuits = {
        f"fig3c_n{n}": fig3c_circuit(n, seed=FIG3C_SEED) for n in (64, 128)
    }
    for d in (3, 5, 7, 9, 11):
        circuits[f"surface_d{d}"] = surface_code_memory(
            d, rounds=d, after_clifford_depolarization=SURFACE_P,
            before_measure_flip_probability=SURFACE_P,
        )
    circuits[f"surface_d5_p{HIGH_NOISE_P}"] = surface_code_memory(
        5, rounds=5, after_clifford_depolarization=HIGH_NOISE_P,
        before_measure_flip_probability=HIGH_NOISE_P,
    )
    return circuits


def pass_digests(sampler) -> dict[str, str]:
    """sha256 digests of a compiled ``symbolic`` sampler: matrices,
    symbols, sample."""
    table = sampler.symbols
    matrices = hashlib.sha256()
    for matrix in (
        sampler.measurement_matrix,
        sampler.detector_matrix,
        sampler.observable_matrix,
    ):
        matrices.update(repr(matrix.shape).encode())
        matrices.update(np.ascontiguousarray(matrix).tobytes())
    symbols = hashlib.sha256()
    for site in table.sites():
        symbols.update(repr(site).encode())
    for index in range(table.width):
        symbols.update(table.label(index).encode() + b"\n")
    records = sampler.sample(DIGEST_SHOTS, rng=DIGEST_SEED)
    return {
        "matrices": matrices.hexdigest(),
        "symbols": symbols.hexdigest(),
        "sample": hashlib.sha256(records.tobytes()).hexdigest(),
    }


def dem_digest(sampler) -> str:
    """sha256 of the merged DEM: mechanism order, tuples, ``float.hex``."""
    digest = hashlib.sha256()
    for mechanism in extract_dem(sampler).mechanisms:
        digest.update(
            repr(
                (
                    mechanism.probability.hex(),
                    mechanism.detectors,
                    mechanism.observables,
                )
            ).encode()
        )
    return digest.hexdigest()


def detectors_digest(sampler) -> str:
    """sha256 of a fixed-seed packed detector + observable sample."""
    digest = hashlib.sha256()
    for packed in sampler.sample_detectors_packed(DETECTOR_SHOTS, DIGEST_SEED):
        digest.update(repr(packed.shape).encode())
        digest.update(np.ascontiguousarray(packed).tobytes())
    return digest.hexdigest()


def measure(
    circuit, repeats: int, with_dem: bool = False, with_detectors: bool = False
) -> dict:
    """Best-of-``repeats`` pass time (the ``core.symbolic_pass`` span of
    the ``symbolic`` backend's compile), symbol count and output digests
    (plus the merged DEM's with ``with_dem`` and a detector sample's with
    ``with_detectors``)."""
    best = float("inf")
    obs.enable(tracing=True, metrics=False)
    try:
        for _ in range(repeats):
            sampler = compile_backend(circuit, "symbolic")
            (span,) = [
                record for record in obs.drain_spans()
                if record.name == "core.symbolic_pass"
            ]
            best = min(best, span.duration)
    finally:
        obs.reset()
    digests = pass_digests(sampler)
    if with_dem:
        digests["dem"] = dem_digest(sampler)
    if with_detectors:
        digests["detectors"] = detectors_digest(sampler)
    return {
        "pass_s": best,
        "symbols": sampler.symbols.n_symbols,
        "digests": digests,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check-digests", action="store_true",
        help=f"exit nonzero when a digest differs from {RESULTS}",
    )
    parser.add_argument(
        "--out", default=RESULTS, help="JSON output path ('' disables writing)"
    )
    args = parser.parse_args(argv)

    expected = {}
    if args.check_digests:
        with open(RESULTS) as handle:
            expected = json.load(handle)["workloads"]

    rows = {}
    failures = []
    print(f"{'workload':<17} {'symbols':>8} {'pass s':>8}  digests")
    for name, circuit in grid().items():
        row = measure(
            circuit, args.repeats, with_dem=name.startswith("surface"),
            with_detectors=name in DETECTOR_ROWS,
        )
        rows[name] = row
        verdict = ""
        if args.check_digests:
            ok = expected.get(name, {}).get("digests") == row["digests"]
            verdict = "match" if ok else "DIFFER"
            if not ok:
                failures.append(name)
        print(f"{name:<17} {row['symbols']:>8} {row['pass_s']:>8.4f}  {verdict}")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(
                {
                    "repeats": args.repeats,
                    "cpu_count": os.cpu_count(),
                    "digest_sample": {"shots": DIGEST_SHOTS, "seed": DIGEST_SEED},
                    "digest_detectors": {
                        "shots": DETECTOR_SHOTS, "seed": DIGEST_SEED,
                    },
                    "workloads": rows,
                },
                handle, indent=2,
            )
        print(f"wrote {args.out}")

    if failures:
        print(f"FAIL: digests differ from {RESULTS}: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
