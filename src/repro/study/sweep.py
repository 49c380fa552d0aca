"""Declarative sweep grids: from parameter lists to engine tasks.

:class:`Sweep` replaces every hand-rolled ``for code / for distance /
for p`` task loop (the CLI's, the harness's, the examples') with one
grid builder that always emits the same circuits, the same metadata
keys (``code``, ``distance``, ``p``, ``rounds``) and therefore the same
content-based ``strong_id``s — a sweep described here resumes a result
store written by ``python -m repro collect`` and vice versa.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.engine.options import ExecutionOptions
from repro.engine.tasks import Task
from repro.study.result import SweepResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.circuit.circuit import Circuit

# "Not passed" sentinel for add_task's keywords, whose defaults are the
# sweep's own settings: it tells "not passed" from an explicit value
# (``max_errors=None`` means "no early stop", not "inherit").
UNSET: Any = object()


def _repetition(distance: int, rounds: int, p: float) -> "Circuit":
    from repro.qec import repetition_code_memory

    return repetition_code_memory(
        distance,
        rounds=rounds,
        data_flip_probability=p,
        measure_flip_probability=p,
    )


def _surface(distance: int, rounds: int, p: float) -> "Circuit":
    from repro.qec import surface_code_memory

    return surface_code_memory(
        distance,
        rounds=rounds,
        after_clifford_depolarization=p,
        before_measure_flip_probability=p,
    )


#: Code families the grid knows how to build:
#: ``builder(distance, rounds, p) -> Circuit``.
CODE_BUILDERS: dict[str, Callable[[int, int, float], "Circuit"]] = {
    "repetition": _repetition,
    "surface": _surface,
}


def _as_tuple(value: Any) -> tuple:
    """Normalize a scalar-or-iterable grid axis to a tuple."""
    if value is None:
        return ()
    if isinstance(value, (str, bytes)):
        return (value,)
    if isinstance(value, Iterable):
        return tuple(value)
    return (value,)


class Sweep:
    """A declarative (code x distance x probability x ...) task grid.

    Every constructor argument is a grid axis and accepts a scalar or an
    iterable; the defaults reproduce ``python -m repro collect``'s
    default sweep exactly (identical ``strong_id``s, so stores written
    by either side resume the other).  ``codes`` may include ``"both"``
    as shorthand for repetition + surface.

    Custom circuits join the grid through :meth:`add_task`.  The grid is
    materialized by :meth:`tasks` and executed by :meth:`collect`::

        result = Sweep(codes="repetition", distances=(3, 5, 7),
                       probabilities=(0.02, 0.05, 0.1),
                       max_shots=20_000).collect(
            ExecutionOptions(base_seed=0, workers=4))
        print(result.table())
    """

    def __init__(
        self,
        *,
        codes: Any = ("repetition", "surface"),
        distances: Any = (3, 5),
        probabilities: Any = (0.005, 0.01, 0.02),
        rounds: Any = 3,
        decoders: Any = "compiled-matching",
        samplers: Any = "symbolic",
        max_shots: int = 10_000,
        max_errors: int | None = None,
    ):
        codes_tuple: tuple = ()
        for code in _as_tuple(codes):
            if code == "both":
                codes_tuple += ("repetition", "surface")
            elif code in CODE_BUILDERS:
                codes_tuple += (code,)
            else:
                raise ValueError(
                    f"unknown code family {code!r}; "
                    f"expected one of {sorted(CODE_BUILDERS)} or 'both' "
                    f"(use add_task() for custom circuits)"
                )
        self.codes = codes_tuple
        self.distances = tuple(int(d) for d in _as_tuple(distances))
        self.probabilities = tuple(float(p) for p in _as_tuple(probabilities))
        self.rounds = tuple(int(r) for r in _as_tuple(rounds))
        self.decoders = _as_tuple(decoders)
        self.samplers = _as_tuple(samplers)
        self.max_shots = max_shots
        self.max_errors = max_errors
        self._extra: list[Task] = []

    # -- building --------------------------------------------------------

    def add_task(
        self,
        circuit: "Circuit",
        *,
        decoder: str = UNSET,
        sampler: str = UNSET,
        max_shots: int = UNSET,
        max_errors: int | None = UNSET,
        metadata: dict[str, Any] | None = None,
    ) -> "Sweep":
        """Append one custom-circuit task to the grid; returns ``self``.

        Arguments not passed inherit the sweep's (first) decoder/sampler
        and shot budget, so a custom circuit rides the grid's settings;
        an explicit value — including ``max_errors=None`` for "no early
        stop" — always wins.
        """
        if decoder is UNSET:
            decoder = (self.decoders or ("compiled-matching",))[0]
        if sampler is UNSET:
            sampler = (self.samplers or ("symbolic",))[0]
        self._extra.append(
            Task(
                circuit,
                decoder=decoder,
                sampler=sampler,
                max_shots=self.max_shots if max_shots is UNSET else max_shots,
                max_errors=(
                    self.max_errors if max_errors is UNSET else max_errors
                ),
                metadata=dict(metadata or {}),
            )
        )
        return self

    def tasks(self) -> list[Task]:
        """The grid as engine tasks, built fresh from the current axis
        attributes (mutate-then-collect always sees the mutation; task
        identity is content-based, so rebuilt tasks keep their
        ``strong_id``s).

        Grid order is code, then distance, then probability (then
        rounds, decoder, sampler), matching the CLI's historical sweep
        order; custom :meth:`add_task` circuits follow in insertion
        order.
        """
        built: list[Task] = []
        for code in self.codes:
            builder = CODE_BUILDERS[code]
            for distance in self.distances:
                for p in self.probabilities:
                    for rounds in self.rounds:
                        circuit = builder(distance, rounds, p)
                        for decoder in self.decoders:
                            for sampler in self.samplers:
                                built.append(
                                    Task(
                                        circuit,
                                        decoder=decoder,
                                        sampler=sampler,
                                        max_shots=self.max_shots,
                                        max_errors=self.max_errors,
                                        metadata={
                                            "code": code,
                                            "distance": distance,
                                            "p": p,
                                            "rounds": rounds,
                                        },
                                    )
                                )
        return built + list(self._extra)

    def __len__(self) -> int:
        # Pure arithmetic — sizing a sweep must not build its circuits.
        grid = (
            len(self.codes)
            * len(self.distances)
            * len(self.probabilities)
            * len(self.rounds)
            * len(self.decoders)
            * len(self.samplers)
        )
        return grid + len(self._extra)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks())

    # -- execution -------------------------------------------------------

    def collect(
        self,
        options: ExecutionOptions | None = None,
        **overrides: Any,
    ) -> SweepResult:
        """Run the grid through the collection engine.

        ``options`` carries the execution policy (workers, chunk size,
        base seed, store, ...); keyword ``overrides`` patch it in place
        (``sweep.collect(workers=4, store="out.jsonl")``).  Each pool
        worker compiles a circuit once, on its first chunk of it;
        counts are bitwise identical under every worker count.  Returns a
        :class:`~repro.study.result.SweepResult` over one
        ``TaskStats`` per task.
        """
        import repro.obs as obs
        from repro.engine.collector import collect as engine_collect

        options = ExecutionOptions.resolve(options, **overrides)
        tasks = self.tasks()
        with obs.span(
            "sweep.collect", tasks=len(tasks), workers=options.workers
        ):
            return SweepResult(engine_collect(tasks, options=options))

