"""The public study API: circuit -> compiled handle -> sweep -> curve.

The paper's whole evaluation is one pipeline — build a circuit family,
compile each circuit's sampler once, stream samples through a decoder
into an error-rate table — and this package is that pipeline as four
small composable objects:

:class:`CompiledCircuit`
    ``Circuit.compile(sampler=..., decoder=...)`` — one handle that
    lazily builds and caches the backend sampler, the merged DEM and
    the compiled decoder, with ``.sample()``, ``.detect()``,
    ``.decode()``, their packed-domain twins ``.detect_packed()`` /
    ``.decode_packed()`` (packed uint64 rows, the pipeline's native
    format, with every sampler and decoder) and
    ``.logical_error_rate()``.
:class:`Sweep`
    A declarative (code x distance x probability x ...) grid of engine
    tasks with consistent metadata, plus ``.add_task()`` for custom
    circuits.
:class:`ExecutionOptions`
    The execution policy (workers, chunk size, base seed, early-stop
    default, store, progress hook) threaded through the engine.
:class:`SweepResult`
    Typed statistics rows: filtering (``.by(code=...)``), grouping,
    Wilson intervals, ASCII tables, JSON export and
    ``.threshold_estimate()``.

Typical use::

    from repro.qec import surface_code_memory
    from repro.study import ExecutionOptions, Sweep

    # one circuit, end to end
    rate = surface_code_memory(3, 3,
        after_clifford_depolarization=0.004,
        before_measure_flip_probability=0.004,
    ).compile().logical_error_rate(100_000, seed=0)

    # a threshold sweep
    result = Sweep(codes="repetition", distances=(3, 5, 7),
                   probabilities=(0.02, 0.05, 0.1, 0.2),
                   max_shots=50_000).collect(
        ExecutionOptions(base_seed=0, workers=4, store="results.jsonl"))
    print(result.table())
    print("threshold ~", result.threshold_estimate())

The CLI (``python -m repro collect``/``decode``), the experiments
harness and the examples are thin layers over these objects.
"""

from repro.engine.options import ExecutionOptions
from repro.study.compiled import CompiledCircuit
from repro.study.result import SweepResult
from repro.study.sweep import CODE_BUILDERS, Sweep

__all__ = [
    "CODE_BUILDERS",
    "CompiledCircuit",
    "ExecutionOptions",
    "Sweep",
    "SweepResult",
]
