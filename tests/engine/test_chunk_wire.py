"""The pool wire carries header-only chunk specs.

A :class:`ChunkSpec` is pickled once per leased chunk, and workers
rebuild every heavy object from its strings and ints.  An ndarray, a
lock or a closure in a field would ride the pickle wire on every lease
(or fail to pickle at all).  ``plan_chunks`` builds every spec and the
retry path's ``dataclasses.replace`` re-stamps ``attempt``; nothing else
constructs one.  So the specs leaving both places must hold exactly
``str`` and ``int`` values: not ``bool``, not a NumPy scalar.
"""

from dataclasses import fields

from repro import Circuit
from repro.engine import ChunkRunner, ChunkSpec, Task, plan_chunks
from repro.engine.supervise import SupervisedPool
from repro.qec import repetition_code_memory, surface_code_memory


def assert_header_only(spec):
    assert type(spec) is ChunkSpec
    for field in fields(ChunkSpec):
        value = getattr(spec, field.name)
        assert type(value) in (str, int), (field.name, type(value))


def tasks():
    return [
        Task(
            repetition_code_memory(3, 2, 0.02, 0.02),
            decoder="compiled-matching", sampler="frame", max_shots=1_100,
            metadata={"p": 0.02},
        ),
        Task(
            surface_code_memory(3, 2, 0.001, 0.001),
            decoder="none", sampler="symbolic", max_shots=300,
        ),
        Task(Circuit.from_text("H 0\nM 0\n"), decoder="none",
             sampler="tableau", max_shots=7),
    ]


def test_planned_specs_are_header_only():
    for task in tasks():
        specs = plan_chunks(task, base_seed=5, chunk_shots=500)
        assert sum(spec.shots for spec in specs) == task.max_shots
        for spec in specs:
            assert_header_only(spec)


def test_retried_specs_on_the_wire_are_header_only(monkeypatch):
    """Every spec the supervisor sends, first attempts and retries."""
    sent = []
    original = SupervisedPool.send

    def recording_send(self, slot, message):
        if message[0] == "chunk":
            sent.append(message[3])
        return original(self, slot, message)

    monkeypatch.setattr(SupervisedPool, "send", recording_send)
    specs = plan_chunks(tasks()[0], base_seed=5, chunk_shots=500)
    with ChunkRunner(workers=2, fault_plan="raise@1") as runner:
        results = list(runner.run(specs))
    assert [r.chunk_index for r in results] == [0, 1, 2]
    assert any(spec.attempt >= 1 for spec in sent), "no retry was sent"
    for spec in sent:
        assert_header_only(spec)
