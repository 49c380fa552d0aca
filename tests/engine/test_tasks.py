"""Task identity and deterministic chunk planning."""

import pytest

from repro.engine import Task, plan_chunks
from repro.qec import repetition_code_memory
from tests.helpers import swap_rng_stream


def make_circuit(p=0.05):
    return repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )


class TestTask:
    def test_rejects_unknown_decoder(self):
        with pytest.raises(ValueError):
            Task(make_circuit(), decoder="tensor-network")

    def test_rejects_unknown_sampler(self):
        with pytest.raises(ValueError):
            Task(make_circuit(), sampler="quantum")

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            Task(make_circuit(), max_shots=0)

    def test_strong_id_stable_across_reconstruction(self):
        a = Task(make_circuit(), metadata={"d": 3, "p": 0.05})
        b = Task(make_circuit(), metadata={"d": 3, "p": 0.05})
        assert a.strong_id() == b.strong_id()

    def test_strong_id_ignores_budget(self):
        a = Task(make_circuit(), max_shots=100)
        b = Task(make_circuit(), max_shots=9999, max_errors=5)
        assert a.strong_id() == b.strong_id()

    def test_strong_id_separates_decoder_and_metadata(self):
        base = Task(make_circuit())
        ids = {
            base.strong_id(),
            Task(make_circuit(), decoder="lookup").strong_id(),
            Task(make_circuit(), sampler="frame").strong_id(),
            Task(make_circuit(), metadata={"d": 3}).strong_id(),
            Task(make_circuit(0.06)).strong_id(),
        }
        assert len(ids) == 5

    @pytest.mark.parametrize("sampler", ["symbolic", "frame"])
    def test_strong_id_follows_the_rng_stream(self, sampler):
        current = Task(make_circuit(), sampler=sampler).strong_id()
        with swap_rng_stream(sampler, "an-older-scheme"):
            older = Task(make_circuit(), sampler=sampler).strong_id()
        assert older != current

    def test_describe_uses_metadata(self):
        task = Task(make_circuit(), metadata={"d": 3, "p": 0.05})
        assert task.describe() == "d=3,p=0.05"


class TestPlanChunks:
    def test_budget_split_exact(self):
        task = Task(make_circuit(), max_shots=5_000)
        specs = plan_chunks(task, base_seed=0, chunk_shots=2_000)
        assert [s.shots for s in specs] == [2_000, 2_000, 1_000]
        assert [s.chunk_index for s in specs] == [0, 1, 2]

    def test_specs_deterministic(self):
        task = Task(make_circuit(), max_shots=4_000)
        again = Task(make_circuit(), max_shots=4_000)
        assert plan_chunks(task, 7, 1_000) == plan_chunks(again, 7, 1_000)

    def test_chunk_seed_entropy_matches_fingerprint(self):
        task = Task(make_circuit())
        specs = plan_chunks(task, 0, 1_000)
        assert all(s.task_entropy == task.seed_entropy() for s in specs)
        assert all(s.fingerprint == task.circuit_fingerprint() for s in specs)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            plan_chunks(Task(make_circuit()), 0, 0)
