"""Sweep grids, CLI parity, SweepResult operations."""

import argparse
import json

import pytest

from repro.engine import ExecutionOptions, Task, TaskStats, collect
from repro.qec import repetition_code_memory
from repro.study import Sweep, SweepResult

SEED = 5


def cli_default_namespace(**overrides):
    """The `repro collect` defaults, as `_sweep_from_args` consumes them."""
    values = dict(
        code="both",
        distances="3,5",
        probabilities="0.005,0.01,0.02",
        rounds=3,
        decoder="compiled-matching",
        backend="symbolic",
        max_shots=10_000,
        max_errors=None,
    )
    values.update(overrides)
    return argparse.Namespace(**values)


class TestCliParity:
    def test_default_grid_strong_ids_unchanged(self):
        """The `repro collect` default grid is Sweep()'s grid exactly —
        same order, same strong_ids — so existing result stores resume."""
        from repro.cli import _sweep_from_args

        cli_tasks = _sweep_from_args(cli_default_namespace()).tasks()
        fresh = Sweep().tasks()
        assert len(cli_tasks) == len(fresh) == 12  # 2 codes x 2 d x 3 p
        for old, new in zip(cli_tasks, fresh):
            assert old.strong_id() == new.strong_id()
            assert old.metadata == new.metadata
            assert (old.decoder, old.sampler) == (new.decoder, new.sampler)

    def test_metadata_keys_are_canonical(self):
        task = Sweep(codes="repetition", distances=3, probabilities=0.01).tasks()[0]
        assert set(task.metadata) == {"code", "distance", "p", "rounds"}


class TestGrid:
    def test_scalar_axes_normalize(self):
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.01,
                      rounds=2, decoders="mwpm", samplers="frame")
        assert len(sweep) == 1
        task = sweep.tasks()[0]
        assert task.decoder == "matching"  # canonicalized by Task
        assert task.sampler == "frame"

    def test_both_expands(self):
        sweep = Sweep(codes="both", distances=3, probabilities=0.01)
        codes = [t.metadata["code"] for t in sweep]
        assert codes == ["repetition", "surface"]

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown code family"):
            Sweep(codes="steane")

    def test_grid_over_decoders_and_rounds(self):
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.01,
                      rounds=(2, 3), decoders=("matching", "lookup"))
        assert len(sweep) == 4
        seen = {(t.metadata["rounds"], t.decoder) for t in sweep}
        assert seen == {(2, "matching"), (2, "lookup"),
                        (3, "matching"), (3, "lookup")}

    def test_add_task_appends_custom_circuit(self):
        circuit = repetition_code_memory(3, rounds=1,
                                         data_flip_probability=0.3)
        sweep = Sweep(codes=(), distances=(), probabilities=())
        sweep.add_task(circuit, decoder="matching", max_shots=123,
                       metadata={"tag": "custom"})
        tasks = sweep.tasks()
        assert len(tasks) == 1
        assert tasks[0].max_shots == 123
        assert tasks[0].metadata == {"tag": "custom"}

    def test_add_task_explicit_none_max_errors_wins(self):
        """max_errors=None means "no early stop", not "inherit"."""
        circuit = repetition_code_memory(3, rounds=1,
                                         data_flip_probability=0.3)
        sweep = Sweep(codes=(), max_errors=100)
        task = sweep.add_task(circuit, max_errors=None).tasks()[0]
        assert task.max_errors is None
        inherited = sweep.add_task(circuit, metadata={"n": 2}).tasks()[1]
        assert inherited.max_errors == 100

    def test_axis_mutation_is_seen_by_tasks(self):
        """The grid is built fresh per call — tuning a public axis
        between runs must not serve a stale cached grid."""
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.01,
                      max_shots=100)
        assert sweep.tasks()[0].max_shots == 100
        sweep.max_shots = 999
        assert sweep.tasks()[0].max_shots == 999
        sweep.distances = (3, 5)
        assert len(sweep) == 2

    def test_add_task_inherits_sweep_defaults(self):
        circuit = repetition_code_memory(3, rounds=1,
                                         data_flip_probability=0.3)
        sweep = Sweep(codes=(), decoders="lookup", samplers="frame",
                      max_shots=777)
        task = sweep.add_task(circuit).tasks()[0]
        assert (task.decoder, task.sampler) == ("lookup", "frame")
        assert task.max_shots == 777


class TestCollect:
    def test_counts_match_manual_engine_path(self):
        """Sweep.collect == engine.collect on the same tasks + seed."""
        sweep = Sweep(codes="repetition", distances=(3,),
                      probabilities=(0.05, 0.1), rounds=2, max_shots=800)
        result = sweep.collect(ExecutionOptions(base_seed=SEED,
                                                chunk_shots=400))
        manual = collect(sweep.tasks(), base_seed=SEED, chunk_shots=400)
        assert len(result) == len(manual) == 2
        for a, b in zip(result, manual):
            assert (a.task_id, a.shots, a.errors) == (
                b.task_id, b.shots, b.errors
            )

    def test_collect_overrides_patch_options(self, tmp_path):
        store = tmp_path / "rows.jsonl"
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.05,
                      rounds=2, max_shots=300)
        first = sweep.collect(ExecutionOptions(base_seed=SEED),
                              store=str(store))
        assert not first[0].resumed
        again = sweep.collect(ExecutionOptions(base_seed=SEED),
                              store=str(store))
        assert again[0].resumed

    def test_default_collect_is_unseeded(self):
        """No options => fresh entropy, matching --seed's CLI default
        and logical_error_rate(seed=None); the drawn seed is recorded."""
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.05,
                      rounds=2, max_shots=200)
        first = sweep.collect()[0]
        second = sweep.collect()[0]
        assert isinstance(first.base_seed, int)
        # Two independent 128-bit entropy draws never collide.
        assert first.base_seed != second.base_seed

    def test_collect_matches_engine_collect_on_task_lists(self):
        """``Sweep.collect`` and the engine's ``collect`` over the same
        task list (the CLI's path) are one execution path."""
        sweep = Sweep(codes="repetition", distances=3, probabilities=0.05,
                      rounds=2, max_shots=300)
        from_sweep = sweep.collect(ExecutionOptions(base_seed=SEED))
        from_tasks = SweepResult(
            collect(sweep.tasks(), options=ExecutionOptions(base_seed=SEED))
        )
        assert isinstance(from_sweep, SweepResult)
        assert from_sweep[0].errors == from_tasks[0].errors


def fake_stats(metadata, shots=1000, errors=0, **fields):
    return TaskStats(
        task_id=json.dumps(metadata, sort_keys=True),
        decoder=fields.get("decoder", "compiled-matching"),
        sampler=fields.get("sampler", "symbolic"),
        metadata=metadata,
        shots=shots,
        errors=errors,
    )


class TestSweepResult:
    def make_result(self):
        return SweepResult([
            fake_stats({"code": "repetition", "distance": 3, "p": 0.01},
                       errors=30),
            fake_stats({"code": "repetition", "distance": 5, "p": 0.01},
                       errors=10),
            fake_stats({"code": "surface", "distance": 3, "p": 0.01},
                       errors=50, decoder="matching"),
        ])

    def test_by_filters_metadata_and_fields(self):
        result = self.make_result()
        assert len(result.by(code="repetition")) == 2
        assert len(result.by(code="repetition", distance=5)) == 1
        assert len(result.by(decoder="matching")) == 1
        assert len(result.by(distance=(3, 5))) == 3
        assert len(result.by(code="steane")) == 0

    def test_by_resolves_decoder_and_sampler_aliases(self):
        """Rows store canonical names; filters spelled with registry
        aliases must still match them."""
        result = self.make_result()
        assert len(result.by(decoder="mwpm")) == 1
        assert len(result.by(decoder="cmwpm")) == 2
        assert len(result.by(sampler="symphase")) == 3
        assert len(result.by(decoder=("mwpm", "cmwpm"))) == 3
        assert len(result.by(decoder="not-a-decoder")) == 0

    def test_group_and_values(self):
        result = self.make_result()
        assert result.values("distance") == [3, 5]
        grouped = result.group("code")
        assert set(grouped) == {"repetition", "surface"}
        assert len(grouped["repetition"]) == 2

    def test_totals(self):
        assert self.make_result().totals() == (3000, 90)

    def test_table_renders_all_rows(self):
        table = self.make_result().table()
        lines = table.splitlines()
        assert len(lines) == 5  # header + rule + 3 rows
        assert "code" in lines[0] and "wilson 95% CI" in lines[0]
        assert "repetition" in table and "surface" in table

    def test_table_distinguishes_multi_decoder_rows(self):
        """Rows that differ only by decoder/sampler get that column
        automatically; explicit keys may name the stats fields too."""
        result = self.make_result()
        assert "decoder" in result.table().splitlines()[0]
        assert "matching" in result.table()
        explicit = result.table(keys=("decoder",))
        assert "compiled-matching" in explicit
        # Single-decoder results stay free of the redundant column.
        uniform = result.by(decoder="compiled-matching")
        assert "decoder" not in uniform.table().splitlines()[0]

    def test_json_roundtrip(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "rows.json"
        result.save(path)
        rows = json.loads(path.read_text())
        assert len(rows) == 3
        assert rows[0]["errors"] == 30
        assert rows[0]["metadata"]["code"] == "repetition"

    def test_slice_returns_result(self):
        result = self.make_result()
        assert isinstance(result[:2], SweepResult)
        assert isinstance(result[0], TaskStats)


class TestThresholdEstimate:
    def curve_result(self, d3_rates, d7_rates, ps=(0.01, 0.02, 0.04)):
        rows = []
        for d, rates in ((3, d3_rates), (7, d7_rates)):
            for p, rate in zip(ps, rates):
                rows.append(fake_stats(
                    {"code": "repetition", "distance": d, "p": p},
                    shots=10_000, errors=int(rate * 10_000),
                ))
        return SweepResult(rows)

    def test_crossing_is_interpolated_between_grid_points(self):
        # d=7 below d=3 at p=0.01/0.02, above at p=0.04: crossing in
        # (0.02, 0.04).
        result = self.curve_result((0.10, 0.20, 0.30), (0.02, 0.10, 0.40))
        estimate = result.threshold_estimate()
        assert estimate is not None
        assert 0.02 < estimate < 0.04

    def test_no_crossing_returns_none(self):
        result = self.curve_result((0.10, 0.20, 0.30), (0.01, 0.02, 0.03))
        assert result.threshold_estimate() is None

    def test_single_distance_returns_none(self):
        rows = [fake_stats({"distance": 3, "p": 0.01}, errors=10)]
        assert SweepResult(rows).threshold_estimate() is None

    def test_rate_curve_shape(self):
        result = self.curve_result((0.1, 0.2, 0.3), (0.02, 0.1, 0.4))
        curves = result.rate_curve()
        assert set(curves) == {3, 7}
        assert curves[3][0] == (0.01, pytest.approx(0.1))

    def test_duplicate_grid_points_raise_instead_of_mixing(self):
        """A multi-decoder sweep has two rows per (distance, p); a curve
        silently keeping the last one would be wrong."""
        result = self.curve_result((0.1, 0.2, 0.3), (0.02, 0.1, 0.4))
        doubled = SweepResult(
            list(result) + [
                fake_stats({"distance": 3, "p": 0.01}, errors=999,
                           decoder="lookup"),
            ]
        )
        with pytest.raises(ValueError, match=r"\.by\("):
            doubled.rate_curve()
        # Narrowing first works.
        curves = doubled.by(decoder="compiled-matching").rate_curve()
        assert curves[3][0] == (0.01, pytest.approx(0.1))
