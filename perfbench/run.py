"""The repository benchmark: one workload per run, end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload surface_d7_decode --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` times the workload end to end with tracing off and prints
every ``end_to_end`` metric of ``BENCHMARK.json``; ``--trace 1`` runs the
traced split and prints every ``per_layer`` metric.  Human-readable lines
(host facts, per-operation figures, exact counts, failed checks) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output check held, 1 when one failed, and 2 when the
program under ``src/`` cannot be imported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before NumPy loads, so the
# benchmark's threads never outnumber the cores.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_THREAD_VARS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Untimed set-up and operation rounds before an end-to-end run's clock
#: starts.
WARM_UP_ROUNDS = 2

def host_facts() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def peak_rss_mib() -> float:
    """Peak resident memory of this process or of any child process it
    waited for, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and by every child
    process it waited for.

    The timed figures are CPU time, not wall time: every workload runs
    serially in this one process, so on an idle host the two agree, but
    on a shared host wall time also counts the time the process waits
    for a core.  Children count, so work moved into a subprocess is
    still measured."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_end_to_end(workload, seed: int, seconds: float, checks):
    """Set up and time the operation again and again, each time on the
    run's next input, for at least ``seconds`` of wall time.  Each
    operation follows its own timed set-up, so set-ups spread over the
    whole run like the operations do.  Afterwards the first input runs
    once more, untimed, so each run checks that an input repeats.

    The reference kernel runs between every two timed phases, and each
    set-up and operation is scaled to the reference host's speed by the
    kernel times on either side of it (see ``hostspeed.py``).  The
    metrics are medians over the run of the scaled figures, so neither a
    burst of load nor a slow stretch of the host moves them much.
    Returns ``(metrics, counts, attempted, quarantined)``."""
    import hostspeed
    import workloads as wl

    inputs = wl.make_inputs(workload, seed)
    # Untimed warm-up on inputs no timed operation uses: the first
    # rounds in a process also pay lazy imports, module-level tables and
    # the first touch of the heap, which no later round repeats.
    for index in range(1, WARM_UP_ROUNDS + 1):
        wl.run_operation(
            workload, wl.setup(workload, inputs), inputs.sample_seeds[-index]
        )
    kernels = [hostspeed.time_kernel()]
    setup_times: list[float] = []
    op_times: list[float] = []
    summaries: list[dict] = []
    mechanisms = set()
    attempted = quarantined = 0
    started = time.perf_counter()
    while len(op_times) < wl.MIN_OPERATIONS or (
        time.perf_counter() - started < seconds
        and len(op_times) < wl.INPUTS_PER_RUN - WARM_UP_ROUNDS
    ):
        index = len(op_times)
        compiled = result = None
        gc.collect()
        t0 = cpu_seconds()
        compiled = wl.setup(workload, inputs)
        setup_times.append(cpu_seconds() - t0)
        kernels.append(hostspeed.time_kernel())
        t0 = cpu_seconds()
        result = wl.run_operation(
            workload, compiled, inputs.sample_seeds[index]
        )
        op_times.append(cpu_seconds() - t0)
        kernels.append(hostspeed.time_kernel())
        if workload.surface:
            mechanisms.add(len(compiled.dem.mechanisms))
        summary = wl.outcome(workload, result)
        summaries.append(summary)
        wl.check_operation(workload, summary, checks)
        more, failed = wl.operations(workload, summary)
        attempted += more
        quarantined += failed
    compiled = result = None
    gc.collect()
    result = wl.run_operation(
        workload, wl.setup(workload, inputs), inputs.sample_seeds[0]
    )
    repeat = wl.outcome(workload, result)
    checks.check("a repeated input gives the same output",
                 repeat == summaries[0])
    more, failed = wl.operations(workload, repeat)
    attempted += more
    quarantined += failed
    counts = {
        key: [summary[key] for summary in summaries[:wl.MIN_OPERATIONS]]
        for key in summaries[0]
    }
    if workload.surface:
        checks.check("every set-up builds the same DEM", len(mechanisms) == 1)
        counts["dem.mechanisms"] = mechanisms.pop()

    # Set-up i sits between kernels 2i and 2i+1, operation i between
    # kernels 2i+1 and 2i+2.
    setups = hostspeed.scaled(setup_times, kernels[0::2], kernels[1::2])
    ops = hostspeed.scaled(op_times, kernels[1::2], kernels[2::2])
    metrics = {
        "shots_per_s": workload.shots / statistics.median(ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mib(),
    }
    print(
        f"{len(op_times)} operations of {workload.shots} shots, one per "
        f"input; host speed {hostspeed.REFERENCE_S / statistics.median(kernels):.3f}"
        f" of the reference; CPU s per operation median "
        f"{statistics.median(op_times):.4f} (scaled {statistics.median(ops):.4f}),"
        f" per set-up median {statistics.median(setup_times):.4f} (scaled "
        f"{metrics['setup_s']:.4f}, min {min(setups):.4f}, max {max(setups):.4f})"
    )
    return metrics, counts, attempted, quarantined


def run_per_layer(workload, seed: int, checks):
    import traced
    import workloads as wl

    spans = traced.Spans()
    inputs = wl.make_inputs(workload, seed)
    metrics, counts, attempted, quarantined, reconcile = traced.run_traced(
        workload, inputs, spans, checks
    )
    for name, (count, total) in spans.summary().items():
        print(f"span {name:<36} {count:>6} x {total:>10.4f} s")
    print(
        f"reconcile: per-layer sum {reconcile['replay.layer_sum_s']:.4f} s "
        f"vs end-to-end wall "
        f"{reconcile['replay.e2e_wall_s']:.4f} s; unattributed "
        f"{reconcile['engine.unattributed_s']:+.4f} s; trace overhead "
        f"{reconcile['obs.trace_overhead_frac']:+.3%}"
    )
    return metrics, counts, attempted, quarantined


def select_metrics(spec: dict, key: str, measured: dict) -> dict:
    """Every metric ``BENCHMARK.json`` lists under ``key``, with its unit.

    A listed metric the run did not measure belongs to a layer that does
    no work on this workload and reads 0; a measured name the file does
    not list is a bug and raises.
    """
    listed = {metric["name"]: metric["unit"] for metric in spec[key]}
    unknown = sorted(set(measured) - set(listed))
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    return {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in listed.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    import workloads as wl

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    print("host " + json.dumps(host_facts(), sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")

    checks = wl.Checks()
    if args.trace:
        measured, counts, attempted, quarantined = run_per_layer(
            workload, args.seed, checks
        )
        metrics = select_metrics(spec, "per_layer", measured)
    else:
        measured, counts, attempted, quarantined = run_end_to_end(
            workload, args.seed, args.seconds, checks
        )
        metrics = select_metrics(spec, "end_to_end", measured)
    failed = quarantined + len(checks.failed)
    for name in checks.failed:
        print(f"FAILED CHECK: {name}")
    print(f"checks passed {len(checks.results) - len(checks.failed)}"
          f"/{len(checks.results)}; failed_frac {failed / attempted:.6f} "
          f"({failed}/{attempted} operations)")
    print("counts " + json.dumps(counts, sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
