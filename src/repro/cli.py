"""Command-line interface: sample, analyze, inspect, and batch-collect.

Every command is a thin layer over :mod:`repro.study` —
``Circuit.compile()`` for the single-circuit commands, ``Sweep`` +
``ExecutionOptions`` for ``collect``.

Usage::

    repro sample circuit.stim --shots 1000 [--backend frame|symbolic|...]
    repro detect circuit.stim --shots 1000
    repro decode circuit.stim --shots 20000 --decoder compiled-matching \\
        --workers 4                     # sample + decode + score one circuit
    repro analyze circuit.stim          # symbolic measurement expressions
    repro backends                      # registered sampler backends
    repro decoders                      # registered syndrome decoders
    repro stats circuit.stim            # operation counts
    repro collect --code both --distances 3,5 --probabilities 0.01,0.02 \\
        --max-shots 20000 --max-errors 200 --workers 4 --out results.jsonl

``--seed`` defaults to fresh OS entropy on every command; pass an int
for reproducible (and, with ``--out``, seed-checked resumable) runs.
"""

from __future__ import annotations

import argparse
import sys

import repro.obs as obs
from repro.backends import (
    available_backends,
    backend_choices,
    get_backend,
)
from repro.circuit import Circuit
from repro.decoders import (
    available_decoders,
    decoder_choices,
    get_decoder,
)

_BACKEND_HELP = """\
backends (see `repro backends` for the registered list):
  symbolic      compile once into a GF(2) measurement matrix, sample as a
                matrix product (the paper's Algorithm 1).  Sampling cost is
                independent of circuit depth: prefer it for deep circuits
                sampled many times, and for sparse QEC circuits.
  frame         compile once into a vectorized Pauli-frame program (fused op
                list, packed record buffer).  Per-batch cost scales with gate
                count but with tiny constants: the best general default.
  frame-interp  per-instruction interpreted Pauli frames; bitwise-identical
                samples to `frame` for the same seed.  Benchmarking baseline.
  tableau       per-shot Aaronson-Gottesman Monte Carlo; exact but slow.
                Validation oracle, not for sweeps.

Every backend pays its analysis once per compiled sampler; the collection
engine caches compiled samplers by circuit fingerprint, so a sweep pays each
circuit's compile exactly once per worker process.
"""

_DECODER_HELP = """\
decoders (see `repro decoders` for the registered list):
  compiled-matching  MWPM lowered once into flat arrays (all-pairs shortest
                     paths + path observable masks precomputed); batches
                     decode through vectorized pair lookups.  Bitwise
                     identical predictions to `matching` and the default
                     for anything beyond a handful of shots.
  matching           per-shot Dijkstra + blossom MWPM; the readable
                     reference implementation.
  lookup             maximum-likelihood syndrome table; exact up to the
                     enumerated fault weight, small DEMs only.
  none               (collect/decode) skip decoding; any raw observable
                     flip counts as an error.

Decoders compile once per distinct circuit per worker process (the same
fingerprint-keyed cache the samplers use).
"""

# -- shared argument helpers -------------------------------------------------

def add_backend_argument(
    parser: argparse.ArgumentParser, *, default: str = "symbolic"
) -> None:
    """The one ``--backend`` argument every sampling command shares."""
    parser.add_argument(
        "--backend",
        choices=backend_choices(),
        default=default,
        help=f"sampler backend (default {default})",
    )


def add_seed_argument(parser: argparse.ArgumentParser) -> None:
    """The one ``--seed`` argument every sampling command shares.

    Defaults to ``None`` — fresh OS entropy per run — on *every*
    command; pass an int for reproducible, seed-checked resumable runs.
    """
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=(
            "base RNG seed (default: fresh OS entropy each run; set one "
            "for reproducible, store-resumable results)"
        ),
    )


def _chunk_shots(value: str) -> int:
    """``--chunk-shots`` parser: a positive int."""
    try:
        shots = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if shots < 1:
        raise argparse.ArgumentTypeError("chunk shots must be positive")
    return shots


def add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The engine execution knobs every collection command shares."""
    parser.add_argument(
        "--chunk-shots", type=_chunk_shots, default=2_000,
        help=(
            "shots per derived-seed chunk (default 2000; part of the "
            "statistical protocol, keep fixed across runs sharing a "
            "store)"
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial; counts are identical either way)",
    )
    parser.add_argument(
        "--max-chunk-retries", type=int, default=2, metavar="N",
        help=(
            "retries per failed chunk lease (worker death, expired "
            "deadline, in-chunk exception) before the chunk is "
            "quarantined as a structured failure row (default 2).  A "
            "failed chunk is re-leased at once and replays identical "
            "shots, so counts never change.  Fault injection for chaos "
            "testing comes from the REPRO_FAULTS environment variable "
            "(see repro.engine.faults)"
        ),
    )
    parser.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        dest="chunk_timeout",
        help=(
            "per-chunk lease deadline for pooled runs; an overdue lease "
            "kills its worker and requeues the chunk.  The deadline "
            "includes the worker's first compile of the chunk's circuit "
            "(default: no deadline)"
        ),
    )


def _execution_options(args: argparse.Namespace, **extra):
    """Build :class:`ExecutionOptions` from parsed shared arguments."""
    from repro.study import ExecutionOptions

    return ExecutionOptions(
        base_seed=args.seed,
        workers=args.workers,
        chunk_shots=args.chunk_shots,
        max_chunk_retries=args.max_chunk_retries,
        chunk_timeout_seconds=args.chunk_timeout,
        **extra,
    )


def _load(path: str) -> Circuit:
    with open(path) as handle:
        return Circuit.from_text(handle.read())


# -- commands ----------------------------------------------------------------


def _cmd_sample(args: argparse.Namespace) -> int:
    compiled = _load(args.circuit).compile(sampler=args.backend)
    for row in compiled.sample(args.shots, args.seed):
        print("".join(map(str, row)))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    compiled = _load(args.circuit).compile(sampler=args.backend)
    detectors, observables = compiled.detect(args.shots, args.seed)
    for det_row, obs_row in zip(detectors, observables):
        suffix = (" " + "".join(map(str, obs_row))) if obs_row.size else ""
        print("".join(map(str, det_row)) + suffix)
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    for name in available_backends():
        info = get_backend(name).info
        flags = []
        if info.compile_once:
            flags.append("compile-once")
        flags.append(f"cost:per-{info.per_shot_cost}")
        if info.packed_native:
            flags.append("packed-native")
        if info.oracle:
            flags.append("oracle")
        print(f"{name:<14} [{', '.join(flags)}]  {info.description}")
    return 0


def _cmd_decoders(args: argparse.Namespace) -> int:
    for name in available_decoders():
        info = get_decoder(name).info
        flags = []
        if info.compile_once:
            flags.append("compile-once")
        if info.batched:
            flags.append("batched")
        if info.graphlike_only:
            flags.append("graphlike-only")
        if info.exact:
            flags.append("exact")
        print(f"{name:<18} [{', '.join(flags)}]  {info.description}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    """Sample + decode + score one circuit through the engine.

    The whole gadget-evaluation loop the paper's introduction motivates,
    as one ``CompiledCircuit.collect()`` call: derived-seed chunks fan
    out across ``--workers`` processes, each sampling detectors with the
    chosen backend and decoding them with the registry-resolved decoder.
    """
    compiled = _load(args.circuit).compile(
        sampler=args.backend, decoder=args.decoder
    )
    stats = compiled.collect(
        _execution_options(args),
        max_shots=args.shots,
        max_errors=args.max_errors,
    )
    low, high = stats.wilson()
    rate = obs.format_rate(stats.shots, stats.seconds)
    print(f"decoder:          {stats.decoder}")
    print(f"sampler:          {stats.sampler}")
    print(f"shots:            {stats.shots}")
    print(f"logical errors:   {stats.errors}")
    print(f"logical err rate: {stats.error_rate:.6e}")
    print(f"wilson 95% CI:    [{low:.6e}, {high:.6e}]")
    # End-to-end pipeline rate (compile + sample + decode), not the
    # decoder's decode_batch throughput — bench_decode.py measures that.
    print(f"pipeline:         {rate} shots/sec "
          f"({stats.seconds:.2f}s, workers={args.workers})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    sim = _load(args.circuit).compile().symbolic()
    print(f"# {sim.n_measurements} measurements, "
          f"{sim.symbols.n_symbols} symbols")
    for k in range(sim.n_measurements):
        print(f"m{k} = {sim.measurement_expression(k)}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    circuit = _load(args.circuit)
    stats = circuit.count_operations()
    print(f"qubits:        {circuit.n_qubits}")
    for key, value in stats.items():
        print(f"{key + ':':<14} {value}")
    print(f"detectors:     {circuit.num_detectors}")
    print(f"observables:   {circuit.num_observables}")
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _parse_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _sweep_from_args(args: argparse.Namespace):
    """The CLI's standard sweep: (code family x distance x noise)."""
    from repro.study import Sweep

    return Sweep(
        codes=args.code,
        distances=_parse_ints(args.distances),
        probabilities=_parse_floats(args.probabilities),
        rounds=args.rounds,
        decoders=args.decoder,
        samplers=args.backend,
        max_shots=args.max_shots,
        max_errors=args.max_errors,
    )


def _stage_seconds(reg, stage: str, **labels: str) -> float:
    """Total ``repro_stage_seconds_total`` of one stage (every span of
    that name feeds it), summed over the series matching ``labels``."""
    return sum(
        metric.value
        for _, metric in reg.select(
            "repro_stage_seconds_total", stage=stage, **labels
        )
    )


#: The cache builds a chunk starts itself.  The circuit, symbolic-pass
#: and DEM builds run inside them, so summing every ``cache.build.*``
#: stage would count those twice.
_CHUNK_BUILDS = ("cache.build.sampler", "cache.build.decoder")


def _compile_seconds(reg, **labels: str) -> float:
    """First-chunk compile time: the sampler and decoder builds, each
    including the builds nested inside it."""
    return sum(_stage_seconds(reg, stage, **labels) for stage in _CHUNK_BUILDS)


def _print_profile(results) -> None:
    """Per-stage time breakdown from the run's metrics registry.

    Every span feeds ``repro_stage_seconds_total``: ``worker-busy`` is
    the ``chunk`` stage, ``sample``/``decode`` its two hot stages, and
    ``setup/agg`` everything else the workers spent inside chunks
    (first-chunk compiles, cache lookups, counting).
    ``pool overhead`` is wall time not covered by busy time spread
    over the chunks (scheduling, result pickling, pool spin-up).
    Resumed rows carry no fresh timings and are skipped.
    """
    fresh = [stats for stats in results if not stats.resumed]
    if not fresh:
        print("profile: every task resumed from the store; nothing timed")
        return
    reg = obs.registry()
    shots = sum(s.shots for s in fresh)
    wall = sum(s.seconds for s in fresh)
    busy = _stage_seconds(reg, "chunk")
    sample = _stage_seconds(reg, "sample")
    decode = _stage_seconds(reg, "decode")
    aggregate = max(busy - sample - decode, 0.0)
    # Busy time is summed across workers, so on a pool it can exceed
    # wall; overhead is only meaningful as the wall time left over.
    overhead = max(wall - busy, 0.0)
    print(f"profile ({len(fresh)} task(s), {shots} shots, "
          f"{wall:.2f}s wall, {busy:.2f}s worker-busy):")
    for label, value in (
        ("sample", sample),
        ("decode", decode),
        ("setup/agg", aggregate),
    ):
        share = value / busy if busy else 0.0
        print(f"  {label:<14} {value:>8.2f}s  {share:>6.1%} of worker-busy")
    print(f"  {'pool overhead':<14} {overhead:>8.2f}s  (wall - worker-busy)")
    queue_wait = _stage_seconds(reg, "chunk.queue")
    hold = _stage_seconds(reg, "chunk.hold")
    transport = sum(s.transport_bytes for s in fresh)
    if queue_wait or hold or transport:
        print(f"  {'queue wait':<14} {queue_wait:>8.2f}s  "
              f"(chunk submit -> worker start, summed)")
        print(f"  {'reorder hold':<14} {hold:>8.2f}s  "
              f"(result received -> yielded, summed)")
        print(f"  {'transport':<14} {transport:>9,} B  "
              f"(pickled specs + results, both ways)")
    graph = _stage_seconds(reg, "decoder.graph")
    all_pairs = _stage_seconds(reg, "decoder.all_pairs")
    if graph or all_pairs:
        exact = sum(
            metric.value
            for _, metric in reg.select("repro_decoder_exact_sources_total")
        )
        print(f"  {'decoder build':<14} {graph + all_pairs:>8.2f}s  "
              f"(graph + CSR {graph:.2f}s, all-pairs {all_pairs:.2f}s; "
              f"{int(exact)} source rows by exact Dijkstra)")
    _print_recovery_profile()
    _print_worker_profile()


def _print_recovery_profile() -> None:
    """Fault-tolerance counters from the run's metrics registry.

    Silent when the run saw no faults — these lines only appear when
    the supervisor actually retried, re-leased, or quarantined work,
    so a clean profile stays clean.
    """
    reg = obs.registry()

    def total(name: str) -> float:
        return sum(metric.value for _, metric in reg.select(name))

    retries = int(total("repro_chunk_retries_total"))
    deaths = int(total("repro_worker_deaths_total"))
    expired = int(total("repro_lease_expired_total"))
    quarantined = int(total("repro_chunks_quarantined"))
    if not (retries or deaths or expired or quarantined):
        return
    print("recovery:")
    print(f"  {'chunk retries':<14} {retries:>8}  (re-leased and replayed)")
    print(f"  {'worker deaths':<14} {deaths:>8}  (crashed, pool replenished)")
    print(f"  {'leases expired':<14} {expired:>8}  (deadline hit, worker "
          f"killed)")
    if quarantined:
        print(f"  {'quarantined':<14} {quarantined:>8}  (chunks given up on; "
              f"see failure rows)")


def _print_worker_profile() -> None:
    """Per-worker, per-stage table from the run's metrics registry.

    Only prints when the registry holds worker series (i.e. the run was
    profiled).  ``other`` is ``chunk - sample - decode``; ``compile``
    (the sampler and decoder ``cache.build.*`` stages) is split out of it — the
    per-worker price of the first chunk of every distinct circuit — so
    a pool that re-compiles per worker is visibly different from one
    that is queue-bound.
    """
    reg = obs.registry()
    pids = reg.label_values("repro_chunks_total", "pid")
    if not pids:
        return
    print("per-worker:")
    print(f"  {'pid':>8} {'chunks':>6} {'shots':>9} {'compile':>9} "
          f"{'sample':>9} {'decode':>9} {'other':>9} {'busy':>9} "
          f"{'shots/s':>9}")
    for pid in pids:
        chunks = int(reg.value("repro_chunks_total", pid=pid) or 0)
        shots = int(reg.value("repro_shots_total", pid=pid) or 0)
        busy = _stage_seconds(reg, "chunk", pid=pid)
        sample = _stage_seconds(reg, "sample", pid=pid)
        decode = _stage_seconds(reg, "decode", pid=pid)
        other = max(busy - sample - decode, 0.0)
        compiled = _compile_seconds(reg, pid=pid)
        print(f"  {pid:>8} {chunks:>6} {shots:>9} {compiled:>8.2f}s "
              f"{sample:>8.2f}s {decode:>8.2f}s "
              f"{max(other - compiled, 0.0):>8.2f}s {busy:>8.2f}s "
              f"{obs.format_rate(shots, busy):>9}")


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.engine import collect
    from repro.study import SweepResult

    # Materialize once: circuit construction is per-grid-point work and
    # both the banner and the run need the task list.
    tasks = _sweep_from_args(args).tasks()
    header = (
        f"{'code':>10} {'d':>3} {'p':>8} {'rounds':>6} | "
        f"{'shots':>9} {'errors':>7} {'rate':>10} "
        f"{'wilson 95% CI':>23} {'':>8}"
    )
    seed_label = "entropy" if args.seed is None else args.seed
    print(f"collecting {len(tasks)} task(s), workers={args.workers}, "
          f"seed={seed_label}" + (f", store={args.out}" if args.out else ""))
    print(header)
    print("-" * len(header))

    def report(stats) -> None:
        meta = stats.metadata
        low, high = stats.wilson()
        if stats.resumed:
            tag = "resumed"
        elif stats.failed_chunks:
            tag = "partial"  # quarantined chunks; rerun to re-attempt
        else:
            tag = f"{stats.seconds:7.2f}s"
        print(
            f"{meta.get('code', '?'):>10} {meta.get('distance', '?'):>3} "
            f"{meta.get('p', '?'):>8} {meta.get('rounds', '?'):>6} | "
            f"{stats.shots:>9} {stats.errors:>7} {stats.error_rate:>10.3e} "
            f"[{low:.3e}, {high:.3e}] {tag:>8}"
        )

    # --trace turns on span recording, --profile/--metrics-out turn on
    # the metrics registry; whatever this command enabled it tears down
    # (after exporting) so library users driving main() in-process are
    # unaffected.
    want_tracing = args.trace is not None
    want_metrics = args.profile or args.metrics_out is not None
    enabled_here = (want_tracing and not obs.is_tracing()) or (
        want_metrics and not obs.is_metrics()
    )
    if enabled_here:
        obs.enable(
            tracing=obs.is_tracing() or want_tracing,
            metrics=obs.is_metrics() or want_metrics,
        )
    try:
        result = SweepResult(collect(
            tasks,
            options=_execution_options(args, store=args.out, progress=report),
        ))
        if args.profile:
            _print_profile(result.stats)
        if args.trace is not None:
            spans = obs.drain_spans()
            if args.trace.endswith(".jsonl"):
                count = obs.write_spans_jsonl(spans, args.trace)
                print(f"trace: wrote {count} span(s) to {args.trace}")
            else:
                count = obs.write_chrome_trace(spans, args.trace)
                print(f"trace: wrote {count} event(s) to {args.trace} "
                      f"(load in chrome://tracing or Perfetto)")
        if args.metrics_out is not None:
            obs.write_prometheus(obs.registry(), args.metrics_out)
            print(f"metrics: wrote {args.metrics_out}")
    finally:
        if enabled_here:
            obs.reset()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="SymPhase-reproduction stabilizer tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs_shots in (
        ("sample", True), ("detect", True), ("analyze", False), ("stats", False)
    ):
        p = sub.add_parser(
            name,
            epilog=_BACKEND_HELP if needs_shots else None,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("circuit", help="path to a .stim-dialect circuit file")
        if needs_shots:
            p.add_argument("--shots", type=int, default=10)
            add_seed_argument(p)
            add_backend_argument(p, default="symbolic")

    sub.add_parser(
        "backends",
        help="list registered sampler backends and their capabilities",
    )
    sub.add_parser(
        "decoders",
        help="list registered syndrome decoders and their capabilities",
    )

    decode_parser = sub.add_parser(
        "decode",
        help="sample + decode + score one circuit (logical error rate)",
        description=(
            "Estimate the logical error rate of one noisy circuit: "
            "detector samples stream through the collection engine in "
            "derived-seed chunks (optionally across worker processes), "
            "each chunk decoded by the registry-resolved decoder.  "
            "Counts are independent of --workers."
        ),
        epilog=_DECODER_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    decode_parser.add_argument(
        "circuit", help="path to a .stim-dialect circuit file"
    )
    decode_parser.add_argument("--shots", type=int, default=10_000)
    decode_parser.add_argument(
        "--decoder",
        choices=decoder_choices() + ("none",),
        default="compiled-matching",
    )
    add_backend_argument(decode_parser, default="frame")
    decode_parser.add_argument(
        "--max-errors", type=int, default=None,
        help="stop early once this many logical errors accumulate",
    )
    add_execution_arguments(decode_parser)
    add_seed_argument(decode_parser)

    collect_parser = sub.add_parser(
        "collect",
        help="batch Monte-Carlo collection over a QEC code sweep",
        description=(
            "Estimate logical error rates for a sweep of memory "
            "experiments using the parallel collection engine.  Results "
            "stream to a JSONL store; rerunning with the same --out "
            "resumes, skipping completed rows.  Each distinct circuit is "
            "compiled once per worker process (fingerprint-keyed sampler "
            "cache); sampling afterwards never re-analyzes the circuit."
        ),
        epilog=_BACKEND_HELP + "\n" + _DECODER_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    collect_parser.add_argument(
        "--code", choices=["repetition", "surface", "both"], default="both"
    )
    collect_parser.add_argument(
        "--distances", default="3,5",
        help="comma-separated code distances (default 3,5)",
    )
    collect_parser.add_argument(
        "--probabilities", default="0.005,0.01,0.02",
        help="comma-separated physical error rates",
    )
    collect_parser.add_argument("--rounds", type=int, default=3)
    collect_parser.add_argument(
        "--decoder",
        choices=decoder_choices() + ("none",),
        default="compiled-matching",
        help="registry decoder name/alias, or 'none' to count raw flips",
    )
    add_backend_argument(collect_parser, default="symbolic")
    collect_parser.add_argument("--max-shots", type=int, default=10_000)
    collect_parser.add_argument(
        "--max-errors", type=int, default=None,
        help="stop a task early once this many logical errors accumulate",
    )
    add_execution_arguments(collect_parser)
    add_seed_argument(collect_parser)
    collect_parser.add_argument(
        "--out", default=None,
        help="JSONL result store path (enables resume)",
    )
    collect_parser.add_argument(
        "--profile", action="store_true",
        help=(
            "print a per-stage time breakdown (sample / decode / "
            "aggregate / pool overhead) plus a per-worker table with "
            "compile, queue-wait and transport attribution"
        ),
    )
    collect_parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help=(
            "record spans (scheduler queue/hold included); write a "
            "chrome://tracing-loadable JSON to PATH (or span JSONL "
            "when PATH ends in .jsonl)"
        ),
    )
    collect_parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry to PATH in Prometheus "
             "text exposition format",
    )

    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "detect": _cmd_detect,
        "decode": _cmd_decode,
        "analyze": _cmd_analyze,
        "backends": _cmd_backends,
        "decoders": _cmd_decoders,
        "stats": _cmd_stats,
        "collect": _cmd_collect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
