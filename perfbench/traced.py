"""The traced run: per-layer numbers from direct calls into each module.

Nothing inside the program is instrumented for this.  The traced run
splits a workload into calls to each layer's public functions and
records a span from the benchmark's own code around every call; the
engine's counters come from one ``collect(..., profile=True)``.
"""

from __future__ import annotations

import gc
import itertools
import time
from contextlib import contextmanager

import numpy as np

import repro.obs as obs
import workloads as wl
from repro.backends import compile_backend, packed_detector_samples
from repro.circuit.circuit import Circuit
from repro.core import CompiledSampler, SymPhaseSimulator
from repro.decoders import compile_decoder
from repro.dem import extract_dem
from repro.engine import plan_chunks
from repro.gf2 import bitops
from repro.rng import chunk_generator

#: Decode tiers by defect count: ``(tier, fewest, most)``.  The compiled
#: matching decoder gathers precomputed pairs for 1-2 defects,
#: enumerates pairings up to its 12-node ceiling and falls back to
#: blossom matching above it.
TIERS = (("gather", 1, 2), ("enum", 3, 12), ("blossom", 13, None))

#: The spans whose sum is one replay of the timed operation.
SURFACE_LAYERS = (
    "backends.sample_detectors_packed",
    *(f"decoders.tier_{tier}" for tier, _, _ in TIERS),
    "gf2.count",
)
LAYERED_LAYERS = ("core.draw_symbols", "core.eq4")

#: Marginal band for the layered workload's frame cross-check, in
#: binomial standard deviations of the difference of two estimates.
MARGINAL_SIGMAS = 6.0


class Spans:
    """Spans kept in memory: ``(span_id, parent_id, name, start, end)``."""

    def __init__(self) -> None:
        self.records: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((span_id, parent, name, start, end))

    def total(self, name: str) -> float:
        return sum(
            end - start for _, _, n, start, end in self.records if n == name
        )

    def summary(self) -> dict[str, tuple[int, float]]:
        """``name -> (span count, total seconds)``, in first-start order."""
        out: dict[str, tuple[int, float]] = {}
        for _, _, name, start, end in sorted(self.records, key=lambda r: r[3]):
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + end - start)
        return out


def replay(workload, compiled, base_seed: int, spans: Spans, checks) -> dict:
    """Replay the engine's exact chunk plan for a surface workload.

    Per chunk: the chunk's generator from the derived-seed scheme, the
    packed detector sample, one ``decode_batch_packed`` per decode tier,
    and the error count.  Outside that sum it also draws the unpacked
    sample (and, for the symbolic sampler, the symbol values alone) from
    a fresh generator for the same chunk.  Returns the exact counts.
    """
    sampler, decoder = compiled.sampler, compiled.decoder
    task = wl.task(workload, compiled)
    entropy = task.seed_entropy()
    counts = dict.fromkeys(
        ("errors", "chunks", "shots", "defects", "rows_zero", "unique_rows")
        + tuple(f"rows_{tier}" for tier, _, _ in TIERS),
        0,
    )
    bits_match = True
    for spec in plan_chunks(task, base_seed, workload.chunk_shots):
        index, shots = spec.chunk_index, spec.shots
        with spans.span("replay.chunk"):
            rng = chunk_generator(base_seed, entropy, index)
            with spans.span("backends.sample_detectors_packed"):
                detectors, observables = packed_detector_samples(
                    sampler, shots, rng
                )
            defects = bitops.popcount_rows(detectors)
            predictions = np.zeros_like(observables)
            for tier, fewest, most in TIERS:
                in_tier = defects >= fewest
                if most is not None:
                    in_tier &= defects <= most
                rows = np.flatnonzero(in_tier)
                if not rows.size:
                    continue
                batch = detectors[rows]
                with spans.span(f"decoders.tier_{tier}"):
                    predictions[rows] = decoder.decode_batch_packed(batch)
                counts[f"rows_{tier}"] += int(rows.size)
                counts["unique_rows"] += int(
                    bitops.dedupe_rows_packed(batch)[0].shape[0]
                )
            with spans.span("gf2.count"):
                errors = int(
                    np.count_nonzero(
                        bitops.xor_rows_any(predictions, observables)
                    )
                )
        counts["errors"] += errors
        counts["chunks"] += 1
        counts["shots"] += shots
        counts["defects"] += int(defects.sum())
        counts["rows_zero"] += int(np.count_nonzero(defects == 0))

        rng = chunk_generator(base_seed, entropy, index)
        with spans.span("backends.sample_detectors"):
            unpacked = sampler.sample_detectors(shots, rng)
        bits_match &= np.array_equal(
            bitops.pack_rows(unpacked[0]), detectors
        ) and np.array_equal(bitops.pack_rows(unpacked[1]), observables)
        if workload.sampler == "symbolic":
            rng = chunk_generator(base_seed, entropy, index)
            with spans.span("core.draw_symbols"):
                sampler.draw_symbols(shots, rng)
    checks.check("packed sample == packed unpacked sample", bits_match)
    return counts


def cold_compiles(workload, circuit: Circuit, spans: Spans, checks) -> dict:
    """Time each layer's compile step once, on fresh objects (no cache).
    Returns the counts they expose."""
    with spans.span("circuit.fingerprint"):
        fingerprint = circuit.fingerprint()
    text = circuit.to_text()  # the text every engine chunk spec carries
    with spans.span("circuit.parse"):
        parsed = Circuit.from_text(text)
    checks.check(
        "parsed circuit keeps its fingerprint",
        parsed.fingerprint() == fingerprint,
    )
    with spans.span("backends.compile"):
        compile_backend(circuit, workload.sampler)
    with spans.span("core.symbolic_pass"):
        simulator = SymPhaseSimulator.from_circuit(circuit)
    with spans.span("core.sampler_build"):
        symbolic = CompiledSampler(simulator)
    counts = {
        "core.symbols": symbolic.symbols.n_symbols,
        "core.avg_support": symbolic.average_support(),
    }
    if workload.surface:
        with spans.span("dem.extract"):
            dem = extract_dem(circuit)
        with spans.span("decoders.compile"):
            compile_decoder(dem, workload.decoder)
        counts["dem.detectors"] = dem.n_detectors
        counts["dem.mechanisms"] = len(dem.mechanisms)
    return counts


def _registry_total(name: str) -> float:
    return sum(metric.value for _, metric in obs.registry().select(name))


def _timed(workload, compiled, seed: int, **extra):
    """Time one operation, after a collection like the end-to-end run's;
    returns ``(result, wall seconds)``."""
    gc.collect()
    started = time.perf_counter()
    result = wl.run_operation(workload, compiled, seed, **extra)
    return result, time.perf_counter() - started


def run_traced(workload, inputs, spans: Spans, checks):
    """One traced run, on the first of the run's inputs.  Returns
    ``(metrics, counts, attempted, quarantined, reconcile)``: per-layer
    values by metric name, the exact counts, the operations attempted and
    quarantined, and the figures that reconcile the per-layer sum with
    the end-to-end wall time."""
    seed = inputs.sample_seeds[0]
    counts = cold_compiles(workload, inputs.circuit, spans, checks)
    metrics = {"core.avg_support": counts.pop("core.avg_support")}

    plain, wall = _timed(workload, wl.setup(workload, inputs), seed)
    summary = wl.outcome(workload, plain)
    wl.check_operation(workload, summary, checks)
    attempted, quarantined = wl.operations(workload, summary)

    # The same operation with tracing and metrics on, from the same
    # cache state: its wall time against the untraced one is the
    # tracing overhead, and its registry holds the engine's counters.
    compiled = wl.setup(workload, inputs)
    obs.reset()
    obs.enable(tracing=True, metrics=True)
    try:
        extra = {"profile": True} if workload.surface else {}
        traced, traced_wall = _timed(workload, compiled, seed, **extra)
        registry = {
            name: _registry_total(name)
            for name in (
                "repro_chunk_retries_total",
                "repro_worker_deaths_total",
                "repro_cache_misses_total",
                "repro_pack_adapter_shots_total",
                "repro_decode_nonzero_rows_total",
                "repro_decode_unique_rows_total",
            )
        }
    finally:
        obs.reset()
    traced_summary = wl.outcome(workload, traced)
    checks.check(
        "traced operation == untraced operation", traced_summary == summary
    )
    more, failed = wl.operations(workload, traced_summary)
    attempted += more
    quarantined += failed

    if workload.surface:
        layers = SURFACE_LAYERS
        rows = replay(workload, compiled, seed, spans, checks)
        attempted += rows["chunks"]
        checks.check(
            f"replay errors {rows['errors']} == collect errors "
            f"{summary['errors']}",
            rows["errors"] == summary["errors"]
            and rows["chunks"] == summary["chunks"],
        )
        nonzero = sum(rows[f"rows_{tier}"] for tier, _, _ in TIERS)
        checks.check(
            "decoder row counters == replay rows",
            registry["repro_decode_nonzero_rows_total"] == nonzero
            and registry["repro_decode_unique_rows_total"]
            == rows["unique_rows"],
        )
        adapter = registry["repro_pack_adapter_shots_total"]
        checks.check(
            "pack adapter used exactly when the sampler is not packed-native",
            adapter == (summary["shots"] if workload.sampler == "symbolic" else 0),
        )
        counts.update(
            {
                "errors": summary["errors"],
                "defects": rows["defects"],
                "engine.chunks": traced.chunks,
                "backends.pack_adapter_shots": int(adapter),
                "decoders.rows_zero": rows["rows_zero"],
                "decoders.unique_rows": rows["unique_rows"],
                **{
                    f"decoders.rows_{tier}": rows[f"rows_{tier}"]
                    for tier, _, _ in TIERS
                },
            }
        )
        metrics.update(
            {
                "decoders.mean_defects": rows["defects"] / rows["shots"],
                "decoders.decode_s": sum(
                    spans.total(f"decoders.tier_{tier}") for tier, _, _ in TIERS
                ),
                "engine.wall_s": traced.seconds,
                "engine.busy_s": traced.worker_seconds,
                "engine.queue_wait_s": traced.queue_wait_seconds,
                "engine.hold_s": traced.hold_seconds,
                "engine.transport_bytes": traced.transport_bytes,
                "engine.retries": registry["repro_chunk_retries_total"],
                "engine.worker_deaths": registry["repro_worker_deaths_total"],
                "engine.cache_misses": registry["repro_cache_misses_total"],
            }
        )
        if workload.sampler == "frame":
            # The packed sample is the frame program's own packed path.
            metrics["frame.sample_detectors_packed_s"] = spans.total(
                "backends.sample_detectors_packed"
            )
    else:
        layers = LAYERED_LAYERS
        sampler = compiled.sampler
        shots = workload.shots
        with spans.span("core.draw_symbols"):
            symbol_values = sampler.draw_symbols(
                shots, np.random.default_rng(seed)
            )
        with spans.span("core.eq4"):
            records = sampler.sample(shots, symbol_values=symbol_values)
        attempted += 1
        checks.check(
            "Eq. 4 replay == sample",
            wl.records_digest(records) == summary["sha256"],
        )
        frame = compile_backend(inputs.circuit, "frame")
        with spans.span("frame.sample"):
            reference = frame.sample(shots, np.random.default_rng(seed))
        checks.check(
            "measurement marginals agree with the frame backend",
            marginals_agree(records, reference),
        )
        metrics["table1.symbolic_over_frame"] = (
            spans.total("core.draw_symbols") + spans.total("core.eq4")
        ) / spans.total("frame.sample")
        counts.update(
            {key: summary[key] for key in ("measurements", "ones", "sha256")}
        )

    layer_sum = sum(spans.total(name) for name in layers)
    reconcile = {
        "replay.layer_sum_s": layer_sum,
        "replay.e2e_wall_s": wall,
        "engine.unattributed_s": wall - layer_sum,
        "engine.scaling_eff": layer_sum / wall,
        "obs.trace_overhead_frac": traced_wall / wall - 1.0,
    }
    metrics.update(reconcile)
    for name in {record[2] for record in spans.records} - {"replay.chunk"}:
        metrics.setdefault(f"{name}_s", spans.total(name))
    # Dotted count names are per-layer metrics too.
    for name, value in counts.items():
        if "." in name:
            metrics.setdefault(name, value)
    return metrics, counts, attempted, quarantined, reconcile


def marginals_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Each column's mean agrees between two independent samples within
    a binomial band (plus a few counts' slack for rare outcomes)."""
    if a.shape != b.shape:
        return False
    shots = a.shape[0]
    pa, pb = a.mean(axis=0), b.mean(axis=0)
    pooled = (pa + pb) / 2
    band = MARGINAL_SIGMAS * np.sqrt(2 * pooled * (1 - pooled) / shots)
    return bool(np.all(np.abs(pa - pb) <= band + 3.0 / shots))
