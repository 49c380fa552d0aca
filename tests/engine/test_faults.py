"""Chaos suite: injected faults never change the collected counts.

The grid runs one small sweep three ways — serial (the uninjected
reference), pooled clean, and pooled with a fault plan firing — and
asserts the ``(shots, errors)`` counts and the
task ``strong_id``s are bitwise identical everywhere.  Recovery is
asserted through the supervisor's metrics (deaths, retries, expired
leases), and the quarantine/resume round-trip is exercised end to end
through a :class:`ResultStore`.
"""

import os

import pytest

import repro.obs as obs
from repro.engine import ChunkRunner, Task, collect, plan_chunks
from repro.engine.collector import ResultStore
from repro.engine.faults import (
    ENV_VAR,
    NOOP,
    FaultClause,
    FaultPlan,
    active_plan,
    install,
    plan_from_env,
    resolve_plan,
)
from repro.qec import repetition_code_memory


def make_task(max_shots=4_000, p=0.02, distance=3):
    circuit = repetition_code_memory(
        distance, rounds=3,
        data_flip_probability=p, measure_flip_probability=p,
    )
    return Task(
        circuit, decoder="compiled-matching", sampler="frame",
        max_shots=max_shots, metadata={"p": p},
    )


def counts(stats_list):
    return [(s.shots, s.errors) for s in stats_list]


# -- plan parsing and resolution ---------------------------------------------


class TestFaultPlan:
    def test_parse_single_clause(self):
        plan = FaultPlan.parse("kill@2")
        assert plan.clauses == (FaultClause("kill", 2),)

    def test_parse_arg_and_attempts(self):
        plan = FaultPlan.parse("delay@5:0.25x3")
        assert plan.clauses == (FaultClause("delay", 5, 0.25, 3),)

    def test_parse_always_fires(self):
        (clause,) = FaultPlan.parse("raise@1x*").clauses
        assert clause.attempts is None
        assert clause.fires("raise", 1, 0)
        assert clause.fires("raise", 1, 99)

    def test_parse_multiple_clauses(self):
        plan = FaultPlan.parse("kill@0, raise@3 ,delay@2:1.5")
        assert [c.action for c in plan.clauses] == [
            "kill", "raise", "delay"
        ]

    def test_default_fires_first_attempt_only(self):
        (clause,) = FaultPlan.parse("kill@2").clauses
        assert clause.fires("kill", 2, 0)
        assert not clause.fires("kill", 2, 1)
        assert not clause.fires("kill", 3, 0)
        assert not clause.fires("delay", 2, 0)

    def test_round_trip_str(self):
        for text in ("kill@2", "delay@5:0.25x3", "raise@1x*"):
            assert str(FaultPlan.parse(text)) == text

    @pytest.mark.parametrize("text", ["explode@2", "corrupt-slot@1"])
    def test_bad_action_rejected(self, text):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse(text)

    def test_bad_chunk_rejected(self):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse("kill@two")

    def test_empty_string_is_noop(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ,  ")

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "kill@1")
        assert plan_from_env().clauses == (FaultClause("kill", 1),)
        monkeypatch.setenv(ENV_VAR, "")
        assert plan_from_env() is NOOP

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "kill@9")
        explicit = FaultPlan.parse("delay@1:0.1")
        assert resolve_plan(explicit) is explicit
        assert resolve_plan("raise@2").clauses[0].action == "raise"
        assert resolve_plan(None).clauses == (FaultClause("kill", 9),)

    def test_install_and_active(self):
        install("raise@1")
        try:
            assert active_plan().match("raise", 1, 0) is not None
        finally:
            install(NOOP)
        assert active_plan() is NOOP

    def test_faults_never_fire_outside_workers(self):
        """Armed plan + parent process = every hook is a noop; serial
        runs are the chaos grid's clean reference by construction."""
        from repro.engine import faults

        install("kill@0x*,raise@0x*,delay@0:5x*")
        try:
            faults.on_chunk_start(0, 0, in_worker=False)  # no SIGKILL
            faults.on_decode(0, 0, in_worker=False)  # no raise
        finally:
            install(NOOP)


# -- the chaos grid ----------------------------------------------------------

FAULT_CASES = {
    # Worker SIGKILLed right before chunk 1: its leases requeue onto
    # the replenished pool.
    "kill": dict(fault_plan="kill@1"),
    # Chunk 2 stalls past its lease deadline: the supervisor kills the
    # holder and requeues.
    "timeout": dict(fault_plan="delay@2:3.0", chunk_timeout_seconds=0.5,
                    retry_backoff=0.01),
    # Chunk 1's decode raises in-worker: the error message travels back
    # and the chunk retries.
    "raise": dict(fault_plan="raise@1", retry_backoff=0.01),
}

@pytest.mark.parametrize("fault", sorted(FAULT_CASES))
def test_faulted_pooled_counts_match_serial(fault):
    task = make_task()
    # 500-shot chunks -> chunk indices 0..7, so every clause's target
    # chunk actually exists (chunk_shots is shared: it is part of the
    # statistical protocol, and all three runs must draw the same shots).
    serial = collect([task], base_seed=11, workers=1, chunk_shots=500)
    pooled = collect([task], base_seed=11, workers=2, chunk_shots=500)
    faulted = collect(
        [task], base_seed=11, workers=2, chunk_shots=500,
        **FAULT_CASES[fault],
    )
    assert counts(faulted) == counts(pooled) == counts(serial)
    assert (
        [s.task_id for s in faulted]
        == [s.task_id for s in pooled]
        == [s.task_id for s in serial]
    )
    assert all(s.failed_chunks == 0 for s in faulted)


def test_worker_death_metrics_recorded():
    obs.enable(tracing=False, metrics=True)
    task = make_task()
    stats = collect(
        [task], base_seed=3, workers=2, fault_plan="kill@1",
        retry_backoff=0.01,
    )
    assert stats[0].failed_chunks == 0
    reg = obs.registry()
    assert reg.value("repro_worker_deaths_total") >= 1.0
    assert reg.value("repro_chunk_retries_total") >= 1.0


def test_retried_chunk_spans_carry_attempt():
    """A chunk replayed after its worker died shows up in the trace as
    a retry: its scheduler spans carry the attempt that produced it."""
    obs.enable(tracing=True, metrics=True)
    task = make_task()
    stats = collect(
        [task], base_seed=3, workers=2, chunk_shots=500,
        fault_plan="kill@1", retry_backoff=0.01,
    )
    assert stats[0].failed_chunks == 0
    queue = {
        r.attrs["chunk"]: r
        for r in obs.drain_spans()
        if r.name == "chunk.queue"
    }
    assert sorted(queue) == list(range(8))
    assert queue[1].attrs["attempt"] >= 1


def test_lease_expiry_metrics_recorded():
    obs.enable(tracing=False, metrics=True)
    task = make_task()
    stats = collect(
        [task], base_seed=3, workers=2, chunk_shots=500,
        fault_plan="delay@2:3.0", chunk_timeout_seconds=0.5,
        retry_backoff=0.01,
    )
    assert stats[0].failed_chunks == 0
    reg = obs.registry()
    assert reg.value("repro_lease_expired_total") >= 1.0
    assert reg.value("repro_chunk_retries_total") >= 1.0


def test_env_plan_drives_pooled_run(monkeypatch):
    """REPRO_FAULTS reaches forked workers without any options plumbing."""
    monkeypatch.setenv(ENV_VAR, "raise@1")
    obs.enable(tracing=False, metrics=True)
    task = make_task()
    faulted = collect([task], base_seed=11, workers=2, retry_backoff=0.01)
    monkeypatch.setenv(ENV_VAR, "")
    serial = collect([task], base_seed=11, workers=1)
    assert counts(faulted) == counts(serial)
    assert obs.registry().value("repro_chunk_retries_total") >= 1.0


def test_retry_replays_identical_chunk():
    """The determinism argument, directly: a retried chunk's result is
    bitwise identical to the same chunk run serially, because the RNG
    derives from (base_seed, entropy, chunk_index) — never attempt."""
    task = make_task(max_shots=2_000)
    specs = plan_chunks(task, base_seed=17, chunk_shots=500)
    with ChunkRunner(workers=1) as runner:
        reference = {r.chunk_index: (r.shots, r.errors)
                     for r in runner.run(specs)}
    with ChunkRunner(
        workers=2, fault_plan="raise@1,raise@2", retry_backoff=0.01,
    ) as runner:
        retried = {r.chunk_index: (r.shots, r.errors)
                   for r in runner.run(specs)}
    assert retried == reference


# -- quarantine and resume ---------------------------------------------------


class TestQuarantine:
    def test_poison_chunk_quarantined(self, tmp_path):
        """A chunk that fails on every attempt is given up on: a
        structured failure row lands in the store, no task row is
        written, and the run still completes with the healthy chunks'
        shots counted."""
        store_path = tmp_path / "results.jsonl"
        task = make_task()
        stats = collect(
            [task], base_seed=11, workers=2, store=store_path,
            fault_plan="raise@1x*", max_chunk_retries=1,
            retry_backoff=0.01,
        )
        assert stats[0].failed_chunks == 1
        assert stats[0].shots == task.max_shots - 2_000  # one chunk lost

        store = ResultStore(store_path)
        failures = store.load_failures()
        assert len(failures) == 1
        assert failures[0]["chunk_index"] == 1
        assert failures[0]["attempts"] == 2  # initial try + one retry
        assert "FaultInjected" in failures[0]["error"]
        # No task row: the task is incomplete and must not resume as done.
        assert store.load() == {}

    def test_resume_reattempts_quarantined_chunks(self, tmp_path):
        """Rerunning the same store with the fault gone completes the
        task and matches the serial reference exactly."""
        store_path = tmp_path / "results.jsonl"
        task = make_task()
        poisoned = collect(
            [task], base_seed=11, workers=2, store=store_path,
            fault_plan="raise@1x*", max_chunk_retries=1,
            retry_backoff=0.01,
        )
        assert poisoned[0].failed_chunks == 1

        healed = collect(
            [task], base_seed=11, workers=2, store=store_path,
            fault_plan=NOOP,
        )
        serial = collect([task], base_seed=11, workers=1)
        assert counts(healed) == counts(serial)
        assert healed[0].failed_chunks == 0
        assert not healed[0].resumed

        # Third run resumes off the now-complete task row.
        resumed = collect([task], base_seed=11, workers=2, store=store_path)
        assert resumed[0].resumed
        assert counts(resumed) == counts(serial)

    def test_quarantine_gauge_recorded(self, tmp_path):
        obs.enable(tracing=False, metrics=True)
        collect(
            [make_task()], base_seed=11, workers=2,
            store=tmp_path / "r.jsonl", fault_plan="raise@1x*",
            max_chunk_retries=0, retry_backoff=0.01,
        )
        assert obs.registry().value("repro_chunks_quarantined") == 1.0


class TestDurability:
    def test_appends_reach_disk_immediately(self, tmp_path):
        """Rows are flushed + fsynced per append: a reader (or a
        post-crash resume) sees every completed row without waiting for
        interpreter exit."""
        store_path = tmp_path / "results.jsonl"
        store = ResultStore(store_path)
        task = make_task(max_shots=1_000)
        stats = collect([task], base_seed=5, store=store)
        # Read through a fresh fd while the writing handle stays open.
        fd = os.open(store_path, os.O_RDONLY)
        try:
            on_disk = os.read(fd, 1 << 20).decode()
        finally:
            os.close(fd)
        assert on_disk.endswith("\n")
        assert str(stats[0].shots) and '"shots": 1000' in on_disk
