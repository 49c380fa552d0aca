"""End-to-end hot path: sample + decode + count, packed vs unpacked.

PR 2 made sampling compile-once, PR 3 made decoding compiled; this
bench measures the whole pipeline — detector sampling, batch decoding,
error counting — as one number (shots/sec), in both wire formats:

* **unpacked** — ``sample_detectors`` -> ``decode_batch`` -> row-any
  compare over ``(shots, n)`` uint8 matrices (the pre-packed-path
  pipeline);
* **packed**   — ``sample_detectors_packed`` ->
  ``decode_batch_packed`` -> ``xor_rows_any`` over shot-major uint64
  rows, never materializing a uint8 matrix.

Both paths draw the same RNG stream and must produce the **same error
count**; the run fails if they disagree.  A pooled leg runs the same
workload through the collection engine's chunked scheduler (the packed
path is what workers execute) for the deployment-shaped number.

Results go to ``BENCH_pipeline.json`` at the repo root so the perf
trajectory is tracked from this PR onward.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline.py \\
          [--distance 7] [--shots 4096] [--fast] [--min-packed-speedup 2]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

import repro.obs as obs
from repro.engine import ExecutionOptions, Task, collect
from repro.gf2 import bitops
from repro.qec import surface_code_memory


def host_info() -> dict:
    """CPU topology facts the scaling numbers are meaningless without.

    ``cpu_affinity`` is what the process may actually use (cgroup/taskset
    limits included); on a single-core runner the workers-2 leg measures
    time-slicing, not scaling, and the JSON should say so.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None
    return {"cpu_count": os.cpu_count(), "cpu_affinity": affinity}


def usable_cores() -> int:
    info = host_info()
    return min(
        info["cpu_count"] or 1,
        info["cpu_affinity"] or (info["cpu_count"] or 1),
    )


def _best_of(callable_, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def _unpacked_pipeline(sampler, decoder, shots: int, seed: int) -> int:
    detectors, observables = sampler.sample_detectors(
        shots, np.random.default_rng(seed)
    )
    predictions = decoder.decode_batch(detectors)
    return int((predictions != observables).any(axis=1).sum())


def _packed_pipeline(sampler, decoder, shots: int, seed: int) -> int:
    detectors, observables = sampler.sample_detectors_packed(
        shots, np.random.default_rng(seed)
    )
    predictions = decoder.decode_batch_packed(detectors)
    return int(np.count_nonzero(bitops.xor_rows_any(predictions, observables)))


def run_bench(
    distance: int,
    rounds: int,
    p: float,
    shots: int,
    repeats: int,
    seed: int,
    backend: str,
    workers: int,
    engine_chunk_factor: int = 8,
) -> dict:
    circuit = surface_code_memory(
        distance, rounds,
        after_clifford_depolarization=p,
        before_measure_flip_probability=p,
    )
    compiled = circuit.compile(sampler=backend, decoder="compiled-matching")
    compile_started = time.perf_counter()
    sampler = compiled.sampler
    decoder = compiled.decoder
    compile_seconds = time.perf_counter() - compile_started

    # Warm both paths once so neither pays lazy-init costs in the timing.
    _unpacked_pipeline(sampler, decoder, shots, seed)
    _packed_pipeline(sampler, decoder, shots, seed)

    unpacked_seconds, unpacked_errors = _best_of(
        lambda: _unpacked_pipeline(sampler, decoder, shots, seed), repeats
    )
    packed_seconds, packed_errors = _best_of(
        lambda: _packed_pipeline(sampler, decoder, shots, seed), repeats
    )

    detectors, _ = sampler.sample_detectors_packed(
        shots, np.random.default_rng(seed)
    )
    result = {
        "circuit": {
            "family": "surface_code_memory",
            "distance": distance,
            "rounds": rounds,
            "p": p,
            "n_detectors": compiled.dem.n_detectors,
            "n_observables": compiled.dem.n_observables,
        },
        "host": host_info(),
        "backend": backend,
        "decoder": "compiled-matching",
        "shots_per_batch": shots,
        "repeats": repeats,
        "compile_seconds": compile_seconds,
        "mean_defects_per_shot": float(
            bitops.popcount_rows(detectors).mean()
        ),
        "serial": {
            "unpacked": {
                "seconds": unpacked_seconds,
                "shots_per_sec": obs.safe_rate(shots, unpacked_seconds),
                "errors": unpacked_errors,
            },
            "packed": {
                "seconds": packed_seconds,
                "shots_per_sec": obs.safe_rate(shots, packed_seconds),
                "errors": packed_errors,
            },
        },
        "errors_identical": packed_errors == unpacked_errors,
        "packed_speedup": obs.safe_rate(unpacked_seconds, packed_seconds),
    }

    # Deployment-shaped leg: a multi-chunk budget through the collection
    # engine's chunked scheduler (workers run the packed path).  Wall
    # time includes pool spin-up and any per-worker compile, which is
    # why it needs several chunks per worker to say anything.
    task = Task(
        circuit, decoder="compiled-matching", sampler=backend,
        max_shots=shots * engine_chunk_factor,
    )
    for pool_workers in (1, workers):
        # Each engine leg runs profiled (repro.obs metrics on), so the
        # JSON records where pooled time actually goes: per-worker
        # decode seconds, queue wait, and the pickled transport volume.
        # The metrics probes cost <2% (CI-gated by
        # bench_obs_overhead.py) — a fair price for attributable legs.
        obs.reset()
        obs.enable(tracing=False, metrics=True)
        try:
            started = time.perf_counter()
            stats = collect(
                [task],
                options=ExecutionOptions(
                    base_seed=seed, workers=pool_workers, chunk_shots=shots,
                ),
            )[0]
            wall = time.perf_counter() - started
            reg = obs.registry()
            sample_seconds, decode_seconds = (
                sum(
                    metric.value
                    for _, metric in reg.select(
                        "repro_stage_seconds_total", stage=stage
                    )
                )
                for stage in ("sample", "decode")
            )
            per_worker_decode = {
                pid: reg.value(
                    "repro_stage_seconds_total", stage="decode", pid=pid
                )
                or 0.0
                for pid in reg.label_values("repro_chunks_total", "pid")
            }
            spec_bytes = int(
                reg.value("repro_transport_spec_bytes_total") or 0
            )
            result_bytes = int(
                reg.value("repro_transport_result_bytes_total") or 0
            )
        finally:
            obs.reset()
        result[f"engine_workers_{pool_workers}"] = {
            "shots": stats.shots,
            "errors": stats.errors,
            "wall_seconds": wall,
            "shots_per_sec": obs.safe_rate(stats.shots, wall),
            "sample_seconds": sample_seconds,
            "decode_seconds": decode_seconds,
            "queue_wait_seconds": stats.queue_wait_seconds,
            "hold_seconds": stats.hold_seconds,
            "transport": {
                "spec_bytes": spec_bytes,
                "result_bytes": result_bytes,
                "total_bytes": stats.transport_bytes,
            },
            "per_worker_decode_seconds": per_worker_decode,
        }
    serial_rate = result["engine_workers_1"]["shots_per_sec"]
    pooled_rate = result[f"engine_workers_{workers}"]["shots_per_sec"]
    result["scaling_efficiency"] = (
        pooled_rate / serial_rate
        if workers > 1 and serial_rate and pooled_rate
        else None
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--distance", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--p", type=float, default=0.002)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default="frame")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--engine-chunk-factor", type=int, default=8,
        help=(
            "engine-leg budget in chunks (max_shots = shots * factor); "
            "raise it so pooled legs amortize pool spin-up when gating "
            "scaling efficiency"
        ),
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="CI smoke sizing: fewer shots and repeats, same circuit",
    )
    parser.add_argument(
        "--out", default="BENCH_pipeline.json",
        help="JSON output path ('' disables writing; default: repo root)",
    )
    parser.add_argument(
        "--min-packed-speedup", type=float, default=None,
        help="exit nonzero unless packed/unpacked >= this ratio",
    )
    parser.add_argument(
        "--min-scaling-efficiency", type=float, default=None,
        help=(
            "exit nonzero unless pooled/serial engine throughput >= this "
            "ratio; auto-skipped (recorded as skipped_single_core) when "
            "fewer than 2 usable cores"
        ),
    )
    args = parser.parse_args(argv)
    if args.fast:
        args.shots = min(args.shots, 2048)
        args.repeats = min(args.repeats, 3)

    result = run_bench(
        args.distance, args.rounds, args.p, args.shots, args.repeats,
        args.seed, args.backend, args.workers,
        engine_chunk_factor=args.engine_chunk_factor,
    )
    # Single-core runners time-slice the pooled leg; their workers-2
    # numbers measure contention, not scaling, and the JSON says so.
    result["scaling_gate"] = (
        "skipped_single_core" if usable_cores() < 2 else "measured"
    )
    if result["scaling_gate"] == "skipped_single_core":
        # On stderr so CI logs surface the skip even when stdout is
        # piped into a JSON consumer.
        print(
            "scaling gate skipped_single_core: fewer than 2 usable cores; "
            "workers-2 numbers would measure time-slicing, not scaling",
            file=sys.stderr,
        )

    meta = result["circuit"]
    print(f"d={meta['distance']} surface-code memory "
          f"({meta['n_detectors']} detectors, p={meta['p']}), "
          f"{args.shots} shots/batch, backend={args.backend}, "
          f"best of {args.repeats}")
    print(f"{'pipeline':<20} {'seconds':>9} {'shots/sec':>12} {'errors':>7}")
    for name in ("unpacked", "packed"):
        row = result["serial"][name]
        print(f"serial {name:<13} {row['seconds']:>9.4f} "
              f"{obs.format_rate(args.shots, row['seconds']):>12} "
              f"{row['errors']:>7}")
    for key in sorted(k for k in result if k.startswith("engine_workers_")):
        row = result[key]
        print(f"{key:<20} {row['wall_seconds']:>9.4f} "
              f"{obs.format_rate(row['shots'], row['wall_seconds']):>12} "
              f"{row['errors']:>7}")
        transport = row["transport"]
        print(f"{'':<20} queue-wait {row['queue_wait_seconds']:.2f}s, "
              f"hold {row['hold_seconds']:.2f}s, "
              f"transport {transport['total_bytes']:,} B, "
              f"decode/worker "
              + "+".join(
                  f"{seconds:.2f}s"
                  for seconds in row["per_worker_decode_seconds"].values()
              ))
    speedup = result["packed_speedup"]
    print(f"packed end-to-end speedup: "
          f"{'-' if speedup is None else format(speedup, '.2f') + 'x'} "
          f"(errors identical: {result['errors_identical']})")
    efficiency = result["scaling_efficiency"]
    print(f"scaling efficiency (workers={args.workers}): "
          f"{'-' if efficiency is None else format(efficiency, '.2f') + 'x'} "
          f"[{result['scaling_gate']}, "
          f"cpu_count={result['host']['cpu_count']}, "
          f"affinity={result['host']['cpu_affinity']}]")

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")

    if not result["errors_identical"]:
        print("FAIL: packed and unpacked error counts diverge")
        return 1
    if args.min_packed_speedup is not None and (
        speedup is None or speedup < args.min_packed_speedup
    ):
        print(f"FAIL: packed speedup below required "
              f"{args.min_packed_speedup}x")
        return 1
    if args.min_scaling_efficiency is not None:
        if result["scaling_gate"] == "skipped_single_core":
            print(
                "scaling gate skipped (skipped_single_core): fewer than 2 "
                "usable cores",
                file=sys.stderr,
            )
        elif efficiency is None or efficiency < args.min_scaling_efficiency:
            print(f"FAIL: scaling efficiency below required "
                  f"{args.min_scaling_efficiency}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
