"""Per-shot vs compiled MWPM decoding: syndromes/sec per decoder to JSON.

The compiled matching decoder (PR 3's tentpole) must beat the seed's
per-shot MatchingDecoder by >= 5x on a d=7 surface-code DEM at
1024-shot batches — while predicting bitwise-identically.  This bench
measures decode_batch throughput for every registered matching-class
decoder, verifies the predictions agree, and records the numbers to a
JSON file the trajectory can track across PRs.

A second leg times the decode *tail*: the defect sets of d=7 and d=9
memory syndromes (rounds = d) that the compiled decoder actually hands
to its array-native blossom matcher — recorded from ``_match``'s inputs
during one ``decode_batch_packed``, so rows the cluster split or the
subset dynamic program settle are left out.  It times that matcher
against ``nx.max_weight_matching`` on the same dense distance
submatrices, checks that the matchings are identical, and records the
d=9 ``decode_batch_packed`` throughput.

A third leg times the decoder *compile* on d=5, 7 and 9 memory DEMs
(rounds = d): the vectorized all-pairs build (one min-plus relaxation
over a slab of sources, exact Dijkstra only for sources whose tied
shortest paths disagree) against the exact per-source path (the
NetworkX-identical Dijkstra from every node), checks that both give
bitwise identical distance and mask tables, and records both times.
It also records the CSR lowering alone (``lower_seconds``) and the
engine's set-up path after the pass (``fresh_compile_seconds``:
``extract_dem`` plus the compile, from a fresh compiled sampler).

Run:  PYTHONPATH=src python benchmarks/bench_decode.py \\
          [--distance 7] [--shots 1024] [--min-speedup 4] \\
          [--min-tail-speedup 3] [--min-compile-speedup 3] \\
          [--out benchmarks/results/bench_decode.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time

import networkx as nx
import numpy as np

from repro.backends import compile_backend
from repro.decoders import compile_decoder
from repro.decoders.blossom import min_weight_matching
from repro.dem import extract_dem
from repro.gf2 import bitops
from repro.obs import format_rate, safe_rate
from repro.qec import surface_code_dem, surface_code_memory

DECODERS = ("matching", "compiled-matching")
REFERENCE = "matching"
# Tail leg: shots sampled per distance (rounds = d), enough for tens
# (d=7) to hundreds (d=9) of defect sets that reach blossom.
TAIL_SHOTS = {7: 8192, 9: 1024}
# Compile leg: memory DEM distances (rounds = d); the gate reads the last.
COMPILE_DISTANCES = (5, 7, 9)


def _best_of(callable_, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def run_bench(
    distance: int,
    rounds: int,
    shots: int,
    p: float,
    repeats: int,
    seed: int,
) -> dict:
    extract_started = time.perf_counter()
    dem = surface_code_dem(distance, rounds, p)
    extract_seconds = time.perf_counter() - extract_started
    syndromes, _ = dem.sample(shots, np.random.default_rng(seed))

    result = {
        "dem": {
            "family": "surface_code_memory",
            "distance": distance,
            "rounds": rounds,
            "p": p,
            "n_detectors": dem.n_detectors,
            "n_observables": dem.n_observables,
            "n_mechanisms": len(dem.mechanisms),
            "extract_seconds": extract_seconds,
        },
        "shots_per_batch": shots,
        "mean_defects_per_shot": float(syndromes.sum(axis=1).mean()),
        "repeats": repeats,
        "decoders": {},
    }
    predictions = {}
    for name in DECODERS:
        init_started = time.perf_counter()
        decoder = compile_decoder(dem, name)
        init_seconds = time.perf_counter() - init_started
        decode_seconds, predicted = _best_of(
            lambda: decoder.decode_batch(syndromes), repeats
        )
        predictions[name] = predicted
        result["decoders"][name] = {
            "init_seconds": init_seconds,
            "decode_seconds": decode_seconds,
            # None (JSON null) when the batch timed at ~0s.
            "syndromes_per_sec": safe_rate(shots, decode_seconds),
        }

    reference = predictions[REFERENCE]
    for name in DECODERS:
        identical = bool(np.array_equal(predictions[name], reference))
        result["decoders"][name]["predictions_identical"] = identical
    compiled_rate = result["decoders"]["compiled-matching"]["syndromes_per_sec"]
    reference_rate = result["decoders"][REFERENCE]["syndromes_per_sec"]
    result["compiled_matching_speedup"] = (
        safe_rate(compiled_rate, reference_rate)
        if compiled_rate is not None
        else None
    )
    return result


def _networkx_matching(dist: np.ndarray) -> set:
    """The reference decoder's matching call on one dense submatrix."""
    graph = nx.Graph()
    k = dist.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            if np.isfinite(dist[i, j]):
                graph.add_edge(i, j, weight=-dist[i, j])
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    return {tuple(sorted(pair)) for pair in matching}


def _pairs(mate: np.ndarray) -> set:
    return {(i, int(j)) for i, j in enumerate(mate) if j > i}


def blossom_defect_sets(decoder, packed: np.ndarray) -> list[np.ndarray]:
    """The defect sets one ``decode_batch_packed(packed)`` call sends to
    the blossom matcher (``_match``'s inputs, in call order)."""
    match = decoder._match
    seen = []

    def recording(defects):
        seen.append(np.array(defects, dtype=np.int64))
        return match(defects)

    decoder._match = recording
    try:
        decoder.decode_batch_packed(packed)
    finally:
        del decoder._match
    return seen


def run_tail(p: float, repeats: int, seed: int) -> dict:
    """Blossom matcher vs NetworkX on the defect sets that reach it."""
    result = {"p": p, "distances": {}}
    matcher_total = networkx_total = 0.0
    for distance, shots in TAIL_SHOTS.items():
        dem = surface_code_dem(distance, distance, p)
        decoder = compile_decoder(dem, "compiled-matching")
        syndromes, _ = dem.sample(shots, np.random.default_rng(seed))
        packed = bitops.pack_rows(syndromes)
        submatrices = []
        for nodes in blossom_defect_sets(decoder, packed):
            if nodes.size % 2:
                nodes = np.append(nodes, decoder._boundary)
            submatrices.append(decoder._dist[np.ix_(nodes, nodes)])
        rows = len(submatrices)
        matcher_s, mates = _best_of(
            lambda: [min_weight_matching(sub) for sub in submatrices],
            repeats,
        )
        networkx_s, expected = _best_of(
            lambda: [_networkx_matching(sub) for sub in submatrices],
            repeats,
        )
        matcher_total += matcher_s
        networkx_total += networkx_s
        leg = {
            "rounds": distance,
            "shots": shots,
            "n_detectors": dem.n_detectors,
            "tail_rows": rows,
            "max_nodes": max((sub.shape[0] for sub in submatrices), default=0),
            "matcher_ms_per_row": 1e3 * matcher_s / max(rows, 1),
            "networkx_ms_per_row": 1e3 * networkx_s / max(rows, 1),
            "matchings_identical": all(
                _pairs(mate) == pairs for mate, pairs in zip(mates, expected)
            ),
        }
        if distance == max(TAIL_SHOTS):
            decode_s, _ = _best_of(
                lambda: decoder.decode_batch_packed(packed), repeats
            )
            leg["decode_batch_packed_seconds"] = decode_s
            leg["decode_batch_packed_shots_per_sec"] = safe_rate(
                shots, decode_s
            )
        result["distances"][str(distance)] = leg
    result["speedup"] = safe_rate(networkx_total, matcher_total)
    return result


def _fresh_compile_seconds(circuit, repeats: int) -> float:
    """Best-of time of the engine's set-up path after the pass: extract
    the DEM from a fresh compiled sampler, then compile the decoder."""
    best = float("inf")
    for _ in range(repeats):
        sampler = compile_backend(circuit, "symbolic")
        started = time.perf_counter()
        compile_decoder(extract_dem(sampler), "compiled-matching")
        best = min(best, time.perf_counter() - started)
    return best


def run_compile(p: float, repeats: int) -> dict:
    """Vectorized all-pairs build vs the exact per-source Dijkstra, plus
    the CSR lowering alone and the fresh extract + compile."""
    result = {"p": p, "distances": {}}
    for distance in COMPILE_DISTANCES:
        circuit = surface_code_memory(
            distance, rounds=distance, after_clifford_depolarization=p,
            before_measure_flip_probability=p,
        )
        dem = extract_dem(circuit)
        compile_s, decoder = _best_of(
            lambda: compile_decoder(dem, "compiled-matching"), repeats
        )
        lower_s, _ = _best_of(lambda: decoder._lower(dem), repeats)
        fresh_s = _fresh_compile_seconds(circuit, repeats)
        vectorized_s, (dist, mask, exact) = _best_of(
            decoder._all_pairs, repeats
        )
        exact_s, (exact_dist, exact_mask) = _best_of(
            decoder._exact_tables, repeats
        )
        result["distances"][str(distance)] = {
            "rounds": distance,
            "n_nodes": int(dist.shape[0]),
            "csr_slots": int(decoder._indices.size),
            "compile_seconds": compile_s,
            "lower_seconds": lower_s,
            "fresh_compile_seconds": fresh_s,
            "all_pairs_seconds": vectorized_s,
            "exact_seconds": exact_s,
            "exact_sources": exact,
            "speedup": safe_rate(exact_s, vectorized_s),
            "tables_identical": bool(
                dist.tobytes() == exact_dist.tobytes()
                and np.array_equal(mask, exact_mask)
            ),
        }
    result["speedup"] = result["distances"][str(COMPILE_DISTANCES[-1])][
        "speedup"
    ]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--distance", type=int, default=7)
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="memory rounds (default 3; detectors scale with rounds)",
    )
    parser.add_argument(
        "--shots", type=int, default=1024,
        help="syndromes per decode_batch call (default 1024)",
    )
    parser.add_argument("--p", type=float, default=0.002)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="benchmarks/results/bench_decode.json",
        help="JSON output path ('' disables writing)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit nonzero unless compiled/reference >= this ratio",
    )
    parser.add_argument(
        "--min-tail-speedup", type=float, default=None,
        help="exit nonzero unless NetworkX/blossom matcher time on the "
        "tail defect sets >= this ratio",
    )
    parser.add_argument(
        "--min-compile-speedup", type=float, default=None,
        help="exit nonzero unless exact per-source / vectorized all-pairs "
        f"build time at d={COMPILE_DISTANCES[-1]} >= this ratio",
    )
    args = parser.parse_args(argv)

    result = run_bench(
        args.distance, args.rounds, args.shots, args.p, args.repeats,
        args.seed,
    )
    result["tail"] = tail = run_tail(args.p, args.repeats, args.seed)
    result["compile"] = compiled = run_compile(args.p, args.repeats)

    print(f"d={args.distance} surface-code DEM "
          f"({result['dem']['n_detectors']} detectors, "
          f"{result['dem']['n_mechanisms']} mechanisms), "
          f"{args.shots} syndromes/batch, best of {args.repeats}")
    print(f"{'decoder':<18} {'init (s)':>10} {'decode (s)':>11} "
          f"{'syndromes/sec':>14} {'identical':>10}")
    for name, row in result["decoders"].items():
        print(f"{name:<18} {row['init_seconds']:>10.4f} "
              f"{row['decode_seconds']:>11.4f} "
              f"{format_rate(args.shots, row['decode_seconds']):>14} "
              f"{str(row['predictions_identical']):>10}")
    speedup = result["compiled_matching_speedup"]
    print(f"compiled matching speedup over per-shot reference: "
          f"{'-' if speedup is None else format(speedup, '.2f') + 'x'}")
    print(f"tail: defect sets decode_batch_packed sends to blossom, "
          f"rounds = d, p={args.p}, best of {args.repeats}")
    print(f"{'d':>3} {'shots':>6} {'rows':>5} {'max k':>6} "
          f"{'blossom ms/row':>15} {'networkx ms/row':>16} {'identical':>10}")
    for distance, leg in tail["distances"].items():
        print(f"{distance:>3} {leg['shots']:>6} {leg['tail_rows']:>5} "
              f"{leg['max_nodes']:>6} {leg['matcher_ms_per_row']:>15.3f} "
              f"{leg['networkx_ms_per_row']:>16.3f} "
              f"{str(leg['matchings_identical']):>10}")
        if "decode_batch_packed_seconds" in leg:
            print(f"    d={distance} decode_batch_packed: "
                  f"{format_rate(leg['shots'], leg['decode_batch_packed_seconds'])}"
                  f" shots/sec")
    tail_speedup = tail["speedup"]
    print(f"blossom matcher speedup over NetworkX on the tail: "
          f"{'-' if tail_speedup is None else format(tail_speedup, '.2f') + 'x'}")
    print(f"compile: memory DEMs, rounds = d, p={args.p}, best of "
          f"{args.repeats}")
    print(f"{'d':>3} {'nodes':>6} {'compile (s)':>12} {'lower (s)':>10} "
          f"{'fresh (s)':>10} {'all-pairs (s)':>14} {'exact (s)':>10} "
          f"{'exact rows':>11} {'identical':>10}")
    for distance, leg in compiled["distances"].items():
        print(f"{distance:>3} {leg['n_nodes']:>6} {leg['compile_seconds']:>12.3f} "
              f"{leg['lower_seconds']:>10.4f} {leg['fresh_compile_seconds']:>10.3f} "
              f"{leg['all_pairs_seconds']:>14.3f} {leg['exact_seconds']:>10.3f} "
              f"{leg['exact_sources']:>11} {str(leg['tables_identical']):>10}")
    print("  lower: the CSR lowering alone; fresh: extract_dem + compile "
          "from a fresh compiled sampler (the engine's set-up after the pass)")
    compile_speedup = compiled["speedup"]
    print(f"vectorized all-pairs speedup over per-source Dijkstra at "
          f"d={COMPILE_DISTANCES[-1]}: "
          f"{'-' if compile_speedup is None else format(compile_speedup, '.2f') + 'x'}")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")

    if not all(
        row["predictions_identical"] for row in result["decoders"].values()
    ):
        print("FAIL: decoder predictions diverge from the reference")
        return 1
    if args.min_speedup is not None and (
        speedup is None or speedup < args.min_speedup
    ):
        print(f"FAIL: speedup below required {args.min_speedup}x")
        return 1
    if not all(
        leg["matchings_identical"] for leg in tail["distances"].values()
    ):
        print("FAIL: blossom matchings diverge from NetworkX")
        return 1
    if args.min_tail_speedup is not None and (
        tail_speedup is None or tail_speedup < args.min_tail_speedup
    ):
        print(f"FAIL: tail speedup below required {args.min_tail_speedup}x")
        return 1
    if not all(
        leg["tables_identical"] for leg in compiled["distances"].values()
    ):
        print("FAIL: vectorized all-pairs tables diverge from exact Dijkstra")
        return 1
    if args.min_compile_speedup is not None and (
        compile_speedup is None or compile_speedup < args.min_compile_speedup
    ):
        print(f"FAIL: compile speedup below required "
              f"{args.min_compile_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
