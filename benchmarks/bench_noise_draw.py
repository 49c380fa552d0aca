"""Per-site uniforms vs the sparse hit draw of noise outcomes.

``repro.noise.sample_hits`` draws only the non-identity outcomes of a
cluster of equal-channel noise sites: geometric gaps between hits, then
each hit's Pauli.  It replaced one thresholded uniform per site and shot
(``repro.noise.sample_patterns_batch``).  This bench times both draws for
DEPOLARIZE1 and DEPOLARIZE2 clusters over a grid of noise strengths: the
hit draw wins by one to two orders of magnitude at QEC noise strengths
and stops winning as channels approach a fair coin.

A second table times whole ``sample`` calls of the ``frame`` and
``symbolic`` backends on a noisy layered circuit (64 qubits x 64 layers,
DEPOLARIZE1(p) after every layer), so the cost above the crossover,
where consumers pay per hit, stays visible.

A third table times the symbolic sampler's ``sample_detectors`` on a
surface-code memory (d = 5, 5 rounds) and a repetition-code memory
(d = 9, 9 rounds), in 512-shot chunks as the engine draws them and in
4096-shot calls: the sparse Eq. 4 path, the hit scatter, and ``auto``
with the strategy its cost model picked.  The scatter pays per hit,
Eq. 4 per nonzero of the detector matrix plus a fixed cost per row, so
the table locates the crossover the model's ``_SCATTER_COST_RATIO`` and
``_EQ4_ROW_WORDS`` are calibrated against; ``auto`` must never be much
slower than Eq. 4 (its choice before the scatter).

A kernel table times the detector scatter at the engine's call size
(surface d = 5, p = 0.002, 512- and 4096-shot calls): the draw, the
whole ``sample_detectors(strategy="scatter")`` call, and the two ways to
reduce the draw's (site, pattern) rows into their shots on the same
keys, ``np.bitwise_xor.at`` (what the sampler runs) and a stable
``uint16`` sort + ``bitwise_xor.reduceat``.  It is the evidence for
running one reduction form at every size.

A fourth table does the same for ``sample`` (measurement records) on the
Fig. 3c circuit (128 qubits x 128 layers) and the surface memory, in
512- and 5000-shot calls: Eq. 4 (``choose_strategy``, which fills
``B``), the record scatter, and ``auto`` with its pick.  It locates the
crossover ``_XOR_AT_WORDS`` is calibrated against; ``auto`` must never
run the scatter where this table times it slower than Eq. 4.

Run:  PYTHONPATH=src python benchmarks/bench_noise_draw.py \\
          [--sites 1000] [--shots 4096] [--fast] [--min-speedup 5] \\
          [--out benchmarks/results/bench_noise_draw.json]

``--min-speedup`` gates the uniforms/hit time ratio at p = 0.001 for
both channels (exit status 1 below it).
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.backends import compile_backend
from repro.circuit import Circuit, Instruction
from repro.noise import hit_plan, noise_channel, sample_hits, sample_patterns_batch
from repro.qec import repetition_code_memory, surface_code_memory
from repro.rng import as_generator
from repro.workloads import layered_random_circuit

P_GRID = (0.001, 0.005, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
FAST_P_GRID = (0.001, 0.2)
SAMPLER_P_GRID = (0.001, 0.01, 0.05, 0.1, 0.2, 0.4)
DETECTOR_P_GRID = (0.002, 0.01, 0.02, 0.03, 0.05, 0.15, 0.3)
DETECTOR_CODES = {
    "surface d=5": lambda p: surface_code_memory(
        5, rounds=5, after_clifford_depolarization=p,
        before_measure_flip_probability=p,
    ),
    "repetition d=9": lambda p: repetition_code_memory(
        9, rounds=9, data_flip_probability=p, measure_flip_probability=p,
    ),
}
DETECTOR_SHOTS = (512, 4096)
DETECTOR_REPEATS = 25
KERNEL_CODE = "surface d=5"
KERNEL_P = 0.002
KERNEL_CALLS = 64
KERNEL_REPEATS = 7
RECORD_P_GRID = (0.001, 0.01, 0.05, 0.15)
RECORD_CODES = {
    "Fig. 3c n=128": lambda p: layered_random_circuit(
        128, n_layers=128, cnot_pairs_per_layer=64,
        depolarize_probability=p, seed=1,
    ),
    "surface d=5": DETECTOR_CODES["surface d=5"],
}
RECORD_SHOTS = (512, 5000)
RECORD_REPEATS = 7
GATE_P = 0.001
# Both channels' hit probability is their argument p.
CHANNELS = {"DEPOLARIZE1": (0,), "DEPOLARIZE2": (0, 1)}


def _best_seconds(draw, repeats, seed):
    """Best-of-``repeats`` wall time of ``draw(rng)`` and its last result."""
    best = float("inf")
    for repeat in range(repeats):
        rng = np.random.default_rng(seed + repeat)
        started = time.perf_counter()
        result = draw(rng)
        best = min(best, time.perf_counter() - started)
    return best, result


def draw_rows(sites, shots, p_grid, repeats, seed) -> dict:
    channels = {}
    for name, targets in CHANNELS.items():
        rows = []
        for p in p_grid:
            probabilities = noise_channel(
                Instruction(name, targets, (p,))
            ).probabilities
            uniform_s, uniform_hits = _best_seconds(
                lambda rng: np.count_nonzero(sample_patterns_batch(
                    probabilities, (sites * shots,), rng
                )),
                repeats, seed,
            )
            hit_s, hits = _best_seconds(
                lambda rng: sum(s.size for s, _, _ in sample_hits(
                    hit_plan(probabilities), sites, shots, rng
                )),
                repeats, seed,
            )
            rows.append({
                "p": p,
                "uniform_ms": uniform_s * 1e3,
                "hit_ms": hit_s * 1e3,
                "speedup": uniform_s / hit_s,
                "hits_uniform": int(uniform_hits),
                "hits_hit": int(hits),
            })
        channels[name] = rows
    return channels


def layered_noisy_circuit(p, n_qubits=64, layers=64) -> Circuit:
    qubits = " ".join(str(q) for q in range(n_qubits))
    lines = []
    for _ in range(layers):
        lines += [f"H {qubits}", f"CX {qubits}", f"DEPOLARIZE1({p}) {qubits}"]
    lines.append(f"M {qubits}")
    return Circuit.from_text("\n".join(lines))


def sampler_rows(shots, p_grid, repeats, seed) -> list[dict]:
    rows = []
    for p in p_grid:
        circuit = layered_noisy_circuit(p)
        row = {"p": p}
        for name in ("frame", "symbolic"):
            sampler = compile_backend(circuit, name)
            sampler.sample(64, seed)  # warm any lazy state
            seconds, _ = _best_seconds(
                lambda rng: sampler.sample(shots, rng), repeats, seed
            )
            row[f"{name}_ms"] = seconds * 1e3
        rows.append(row)
    return rows


def detector_rows(p_grid, seed) -> list[dict]:
    """``sample_detectors`` of QEC memories: Eq. 4 vs scatter vs auto.

    The three strategies are timed in rotation, best of
    ``DETECTOR_REPEATS`` each, so host noise hits them alike.
    """
    rows = []
    for code, build in DETECTOR_CODES.items():
        for p in p_grid:
            sampler = compile_backend(build(p), "symbolic")
            for shots in DETECTOR_SHOTS:
                strategies = ("sparse", "scatter", "auto")
                best = dict.fromkeys(strategies, float("inf"))
                for repeat in range(DETECTOR_REPEATS + 1):  # first warms
                    for strategy in strategies:
                        started = time.perf_counter()
                        sampler.sample_detectors(
                            shots, seed + repeat, strategy=strategy
                        )
                        if repeat:
                            best[strategy] = min(
                                best[strategy], time.perf_counter() - started
                            )
                rows.append({
                    "code": code,
                    "shots": shots,
                    "p": p,
                    "cost_ratio": sampler.scatter_cost_ratio(shots),
                    "auto_picks": sampler.detector_strategy(shots),
                    **{f"{name}_ms": seconds * 1e3
                       for name, seconds in best.items()},
                    "auto_over_sparse": best["auto"] / best["sparse"],
                })
    return rows


def _reduce_xor_at(constant, table, rows, shot_of, shots):
    out = np.repeat(constant, shots, axis=0)
    np.bitwise_xor.at(out, shot_of, table.take(rows, axis=0))
    return out


def _reduce_sorted(constant, table, rows, shot_of, shots):
    out = np.repeat(constant, shots, axis=0)
    order = np.argsort(shot_of.astype(np.uint16), kind="stable")
    shot_of = shot_of.take(order)
    starts = np.flatnonzero(np.concatenate(([True], shot_of[1:] != shot_of[:-1])))
    out[shot_of[starts]] ^= np.bitwise_xor.reduceat(
        table.take(rows.take(order), axis=0), starts, axis=0
    )
    return out


def kernel_rows(seed) -> list[dict]:
    """The detector scatter at the engine's call size, in ms per call.

    Each figure is the best of ``KERNEL_REPEATS`` rounds of
    ``KERNEL_CALLS`` calls on fixed seeds; the two reductions read the
    same precomputed keys and must agree bit for bit.
    """
    sampler = compile_backend(DETECTOR_CODES[KERNEL_CODE](KERNEL_P), "symbolic")
    sampler.sample_detectors(64, seed, strategy="scatter")  # builds the table
    table, constant = sampler._detector_rows, sampler._columns[:1]
    rows = []
    for shots in DETECTOR_SHOTS:
        seeds = range(seed, seed + KERNEL_CALLS)
        keys = []
        for draw in (sampler.symbols.draw(shots, as_generator(s)) for s in seeds):
            keys.append((
                np.concatenate([hits.rows for hits in draw.hits]),
                np.concatenate([hits.shots for hits in draw.hits]),
            ))
        for hit_rows, shot_of in keys:
            assert np.array_equal(
                _reduce_xor_at(constant, table, hit_rows, shot_of, shots),
                _reduce_sorted(constant, table, hit_rows, shot_of, shots),
            )
        calls = {
            "draw": lambda: [
                sampler.symbols.draw(shots, as_generator(s)) for s in seeds
            ],
            "scatter": lambda: [
                sampler.sample_detectors(shots, s, strategy="scatter")
                for s in seeds
            ],
            "xor_at": lambda: [
                _reduce_xor_at(constant, table, r, o, shots) for r, o in keys
            ],
            "sort_reduceat": lambda: [
                _reduce_sorted(constant, table, r, o, shots) for r, o in keys
            ],
        }
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(KERNEL_REPEATS):
            for name, call in calls.items():
                started = time.perf_counter()
                call()
                best[name] = min(best[name], time.perf_counter() - started)
        rows.append({
            "code": KERNEL_CODE,
            "p": KERNEL_P,
            "shots": shots,
            "hits_per_call": float(np.mean([r.size for r, _ in keys])),
            **{f"{name}_ms": seconds * 1e3 / KERNEL_CALLS
               for name, seconds in best.items()},
        })
    return rows


def record_rows(p_grid, seed) -> list[dict]:
    """``sample`` (measurement records): Eq. 4 vs scatter vs auto.

    Eq. 4 is the kernel ``auto`` ran before the scatter
    (``choose_strategy``); the three are timed in rotation, best of
    ``RECORD_REPEATS`` each.
    """
    rows = []
    for code, build in RECORD_CODES.items():
        for p in p_grid:
            sampler = compile_backend(build(p), "symbolic")
            eq4 = sampler.choose_strategy()
            for shots in RECORD_SHOTS:
                strategies = (eq4, "scatter", "auto")
                best = dict.fromkeys(strategies, float("inf"))
                for repeat in range(RECORD_REPEATS + 1):  # first warms
                    for strategy in strategies:
                        started = time.perf_counter()
                        sampler.sample(shots, seed + repeat, strategy=strategy)
                        if repeat:
                            best[strategy] = min(
                                best[strategy], time.perf_counter() - started
                            )
                rows.append({
                    "code": code,
                    "shots": shots,
                    "p": p,
                    "eq4": eq4,
                    "cost_ratio": sampler.scatter_cost_ratio(
                        shots, sampler.measurement_matrix
                    ),
                    "auto_picks": sampler.record_strategy(shots),
                    "eq4_ms": best[eq4] * 1e3,
                    "scatter_ms": best["scatter"] * 1e3,
                    "auto_ms": best["auto"] * 1e3,
                    "auto_over_eq4": best["auto"] / best[eq4],
                })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=1000)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fast", action="store_true",
        help=f"only p in {FAST_P_GRID} and no sampler tables "
             "(enough for the gate)",
    )
    parser.add_argument(
        "--out", default="benchmarks/results/bench_noise_draw.json",
        help="JSON output path ('' disables writing)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=f"exit nonzero unless uniforms/hit >= this ratio at p={GATE_P}",
    )
    args = parser.parse_args(argv)

    result = {
        "sites": args.sites,
        "shots": args.shots,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "channels": draw_rows(
            args.sites, args.shots, FAST_P_GRID if args.fast else P_GRID,
            args.repeats, args.seed,
        ),
    }
    print(f"{args.sites} sites x {args.shots} shots, best of {args.repeats}")
    print(f"{'channel':<12} {'p':>6} {'uniform ms':>10} {'hit ms':>8} "
          f"{'uniform/hit':>11}")
    for name, rows in result["channels"].items():
        for row in rows:
            print(f"{name:<12} {row['p']:>6g} {row['uniform_ms']:>10.2f} "
                  f"{row['hit_ms']:>8.2f} {row['speedup']:>10.2f}x")

    if not args.fast:
        result["samplers"] = sampler_rows(
            args.shots, SAMPLER_P_GRID, args.repeats, args.seed
        )
        print(f"\nsample({args.shots}), 64 qubits x 64 layers, "
              f"DEPOLARIZE1(p) per layer")
        print(f"{'p':>6} {'frame ms':>9} {'symbolic ms':>12}")
        for row in result["samplers"]:
            print(f"{row['p']:>6g} {row['frame_ms']:>9.1f} "
                  f"{row['symbolic_ms']:>12.1f}")

        result["detectors"] = detector_rows(DETECTOR_P_GRID, args.seed)
        print(f"\nsample_detectors, rounds = d, best of {DETECTOR_REPEATS}")
        print(f"{'code':<15} {'shots':>5} {'p':>6} {'cost ratio':>10} "
              f"{'auto':>8} {'sparse ms':>9} {'scatter ms':>10} "
              f"{'auto ms':>8} {'auto/sparse':>11}")
        for row in result["detectors"]:
            print(f"{row['code']:<15} {row['shots']:>5} "
                  f"{row['p']:>6g} {row['cost_ratio']:>10.2f} "
                  f"{row['auto_picks']:>8} {row['sparse_ms']:>9.2f} "
                  f"{row['scatter_ms']:>10.2f} {row['auto_ms']:>8.2f} "
                  f"{row['auto_over_sparse']:>10.2f}x")

        result["scatter_kernel"] = kernel_rows(args.seed)
        print(f"\ndetector scatter kernel, {KERNEL_CODE}, p = {KERNEL_P}, "
              f"ms per call (best of {KERNEL_REPEATS} x {KERNEL_CALLS} calls)")
        print(f"{'shots':>5} {'hits':>7} {'draw':>7} {'scatter':>8} "
              f"{'xor.at':>7} {'sort+reduceat':>13}")
        for row in result["scatter_kernel"]:
            print(f"{row['shots']:>5} {row['hits_per_call']:>7.0f} "
                  f"{row['draw_ms']:>7.3f} {row['scatter_ms']:>8.3f} "
                  f"{row['xor_at_ms']:>7.3f} {row['sort_reduceat_ms']:>13.3f}")

        result["records"] = record_rows(RECORD_P_GRID, args.seed)
        print(f"\nsample (measurement records), best of {RECORD_REPEATS}")
        print(f"{'code':<15} {'shots':>5} {'p':>6} {'cost ratio':>10} "
              f"{'auto':>8} {'Eq. 4 ms':>9} {'scatter ms':>10} "
              f"{'auto ms':>8} {'auto/Eq. 4':>10}")
        for row in result["records"]:
            print(f"{row['code']:<15} {row['shots']:>5} "
                  f"{row['p']:>6g} {row['cost_ratio']:>10.2f} "
                  f"{row['auto_picks']:>8} {row['eq4_ms']:>9.2f} "
                  f"{row['scatter_ms']:>10.2f} {row['auto_ms']:>8.2f} "
                  f"{row['auto_over_eq4']:>9.2f}x")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")

    if args.min_speedup is not None:
        gated = [
            row["speedup"]
            for rows in result["channels"].values()
            for row in rows if row["p"] == GATE_P
        ]
        if min(gated) < args.min_speedup:
            print(f"FAIL: hit draw speedup {min(gated):.2f}x at p={GATE_P} "
                  f"below required {args.min_speedup}x")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
