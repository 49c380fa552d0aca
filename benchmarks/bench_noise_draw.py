"""Per-site uniforms vs the sparse hit draw of noise outcomes.

``repro.noise.sample_hits`` draws only the non-identity outcomes of a
cluster of equal-channel noise sites: geometric gaps between hits, then
each hit's Pauli.  It replaced one thresholded uniform per site and shot
(``SymbolGroup.sample_patterns``).  This bench times both draws for
DEPOLARIZE1 and DEPOLARIZE2 clusters over a grid of noise strengths: the
hit draw wins by one to two orders of magnitude at QEC noise strengths
and stops winning as channels approach a fair coin.

A second table times whole ``sample`` calls of the ``frame`` and
``symbolic`` backends on a noisy layered circuit (64 qubits x 64 layers,
DEPOLARIZE1(p) after every layer), so the cost above the crossover,
where consumers pay per hit, stays visible.

A third table times the symbolic sampler's ``sample_detectors`` on a
surface-code memory (d = 5, 5 rounds, 512-shot chunks as the engine
draws them): the sparse Eq. 4 path, the hit scatter, and ``auto`` with
the strategy its cost model picked.  The scatter pays per hit, Eq. 4 per
nonzero of the detector matrix, so the table locates the crossover the
model's ``_SCATTER_COST_RATIO`` is calibrated against; ``auto`` must
never be much slower than Eq. 4 (its choice before the scatter).

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
from repro.noise import noise_groups, sample_hits
from repro.qec import surface_code_memory

P_GRID = (0.001, 0.005, 0.01, 0.03, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
FAST_P_GRID = (0.001, 0.2)
SAMPLER_P_GRID = (0.001, 0.01, 0.05, 0.1, 0.2, 0.4)
DETECTOR_P_GRID = (0.002, 0.01, 0.02, 0.03, 0.05, 0.15, 0.3)
DETECTOR_DISTANCE = 5
DETECTOR_SHOTS = 512
DETECTOR_REPEATS = 25
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
            group = noise_groups(Instruction(name, targets, (p,)))[0]
            uniform_s, uniform_hits = _best_seconds(
                lambda rng: np.count_nonzero(
                    group.sample_patterns(sites * shots, rng)
                ),
                repeats, seed,
            )
            hit_s, hits = _best_seconds(
                lambda rng: sum(s.size for s, _, _ in sample_hits(
                    group.probabilities, sites, shots, rng
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
    """``sample_detectors`` of a surface memory: Eq. 4 vs scatter vs auto.

    The three strategies are timed in rotation, best of
    ``DETECTOR_REPEATS`` each, so host noise hits them alike.
    """
    rows = []
    for p in p_grid:
        sampler = compile_backend(
            surface_code_memory(
                DETECTOR_DISTANCE, rounds=DETECTOR_DISTANCE,
                after_clifford_depolarization=p,
                before_measure_flip_probability=p,
            ),
            "symbolic",
        )
        strategies = ("sparse", "scatter", "auto")
        best = dict.fromkeys(strategies, float("inf"))
        for repeat in range(DETECTOR_REPEATS + 1):  # the first one warms
            for strategy in strategies:
                started = time.perf_counter()
                sampler.sample_detectors(
                    DETECTOR_SHOTS, seed + repeat, strategy=strategy
                )
                if repeat:
                    best[strategy] = min(
                        best[strategy], time.perf_counter() - started
                    )
        rows.append({
            "p": p,
            "cost_ratio": sampler.scatter_cost_ratio(),
            "auto_picks": sampler.detector_strategy,
            **{f"{name}_ms": seconds * 1e3 for name, seconds in best.items()},
            "auto_over_sparse": best["auto"] / best["sparse"],
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
        print(f"\nsample_detectors({DETECTOR_SHOTS}), surface "
              f"d={DETECTOR_DISTANCE} r={DETECTOR_DISTANCE}, "
              f"best of {DETECTOR_REPEATS}")
        print(f"{'p':>6} {'cost ratio':>10} {'auto':>8} {'sparse ms':>9} "
              f"{'scatter ms':>10} {'auto ms':>8} {'auto/sparse':>11}")
        for row in result["detectors"]:
            print(f"{row['p']:>6g} {row['cost_ratio']:>10.2f} "
                  f"{row['auto_picks']:>8} {row['sparse_ms']:>9.2f} "
                  f"{row['scatter_ms']:>10.2f} {row['auto_ms']:>8.2f} "
                  f"{row['auto_over_sparse']:>10.2f}x")

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
