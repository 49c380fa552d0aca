"""Tests for the command-line interface."""

import pytest

from repro.cli import main

CIRCUIT_TEXT = """\
H 0
CNOT 0 1
X_ERROR(0.25) 0
M 0 1
DETECTOR rec[-1] rec[-2]
OBSERVABLE_INCLUDE(0) rec[-1]
"""


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "bell.stim"
    path.write_text(CIRCUIT_TEXT)
    return str(path)


class TestSample:
    def test_symbolic_output_shape(self, circuit_file, capsys):
        assert main(["sample", circuit_file, "--shots", "7", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert all(len(line) == 2 and set(line) <= {"0", "1"} for line in lines)

    def test_frame_backend_option(self, circuit_file, capsys):
        assert main([
            "sample", circuit_file, "--shots", "5", "--seed", "1",
            "--backend", "frame",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

    def test_seed_reproducible(self, circuit_file, capsys):
        main(["sample", circuit_file, "--shots", "20", "--seed", "42"])
        first = capsys.readouterr().out
        main(["sample", circuit_file, "--shots", "20", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second


class TestSeedAndAliasHelpers:
    def test_seed_defaults_to_fresh_entropy(self, circuit_file, capsys):
        """No --seed => fresh OS entropy: two runs disagree (50 coin-flip
        rows agreeing by chance is a 2^-50 event)."""
        assert main(["sample", circuit_file, "--shots", "50"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", circuit_file, "--shots", "50"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_shared_seed_helper_defaults_to_none(self):
        """`repro decode` used to hard-code --seed 0; every command now
        routes through one shared helper whose default is None."""
        import argparse

        from repro.cli import add_seed_argument

        parser = argparse.ArgumentParser()
        add_seed_argument(parser)
        assert parser.parse_args([]).seed is None
        assert parser.parse_args(["--seed", "3"]).seed == 3

    @pytest.mark.parametrize("flag", ["--simulator", "--sampler"])
    def test_removed_backend_spellings_are_usage_errors(
        self, circuit_file, capsys, flag
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["sample", circuit_file, "--shots", "3", flag, "frame"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"unrecognized arguments: {flag}" in err

    def test_canonical_backend_flag_does_not_warn(self, circuit_file, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main([
                "sample", circuit_file, "--shots", "3", "--seed", "0",
                "--backend", "frame",
            ]) == 0


class TestDetect:
    def test_detector_output(self, circuit_file, capsys):
        assert main(["detect", circuit_file, "--shots", "4", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        # one detector bit + space + one observable bit
        assert all(len(line) == 3 for line in lines)


#: Resets, both feedback forms and three noise channels in one circuit.
MIXED_TEXT = """\
H 0 1
CNOT 0 2
DEPOLARIZE1(0.01) 0 1
M 0
CX rec[-1] 3
R 0
X_ERROR(0.1) 0 3
H 0
MR 1
CZ rec[-1] 2
DEPOLARIZE2(0.02) 2 3
M 0 2 3
DETECTOR rec[-1] rec[-3]
OBSERVABLE_INCLUDE(0) rec[-2]
"""


def _surface_d3_text():
    from repro.qec import surface_code_memory

    return surface_code_memory(3, 3, 0.001, 0.001).to_text()


class TestAnalyze:
    def test_expressions_printed(self, circuit_file, capsys):
        assert main(["analyze", circuit_file]) == 0
        out = capsys.readouterr().out
        assert "m0 =" in out
        assert "m1 =" in out
        assert "symbols" in out

    @pytest.mark.parametrize("name, digest, lines", [
        ("mixed",
         "6d3bbb45d9466760aac9bf94610c508585de5f26642038e0c042bd2b3e8ef161", 6),
        ("surface_d3",
         "2dd44ba2bc06c5358ad412f3b12c9c86b0f470945d4e427e6368084f292f73ac", 34),
    ])
    def test_output_is_pinned(self, tmp_path, capsys, name, digest, lines):
        """The expressions come from the engine's one cached pass, and
        print byte for byte what a standalone SymPhaseSimulator prints."""
        import hashlib

        from repro import Circuit
        from repro.core import SymPhaseSimulator

        text = MIXED_TEXT if name == "mixed" else _surface_d3_text()
        path = tmp_path / f"{name}.stim"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert len(out.splitlines()) == lines

        sim = SymPhaseSimulator.from_circuit(Circuit.from_text(text))
        expected = [
            f"# {sim.num_measurements} measurements, "
            f"{sim.symbols.n_symbols} symbols"
        ] + [
            f"m{k} = {sim.measurement_expression(k)}"
            for k in range(sim.num_measurements)
        ]
        assert out.splitlines() == expected

    def test_served_from_the_cached_pass(self):
        from repro import Circuit
        from repro.engine.cache import cached_pass, shared_cache

        compiled = Circuit.from_text(MIXED_TEXT).compile(sampler="frame")
        analysis = compiled.symbolic()
        assert analysis is cached_pass(compiled.circuit, compiled.fingerprint)
        assert not any(
            key[0] == "symbolic-analysis" for key in shared_cache()._entries
        )


class TestStats:
    def test_counts_printed(self, circuit_file, capsys):
        assert main(["stats", circuit_file]) == 0
        out = capsys.readouterr().out
        assert "qubits:        2" in out
        assert "measurements:  2" in out
        assert "detectors:     1" in out


class TestDecoders:
    def test_lists_registered_decoders_with_flags(self, capsys):
        assert main(["decoders"]) == 0
        out = capsys.readouterr().out
        assert "compiled-matching" in out
        assert "matching" in out
        assert "lookup" in out
        assert "batched" in out
        assert "exact" in out
        # Every decoder takes packed rows: there is no packed flag to list.
        assert "packed" not in out


class TestDecode:
    def test_decode_reports_rate(self, circuit_file, capsys):
        assert main([
            "decode", circuit_file, "--shots", "400",
            "--decoder", "compiled-matching", "--seed", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "logical err rate" in out
        assert "shots:            400" in out
        assert "decoder:          compiled-matching" in out

    def test_decode_alias_resolves(self, circuit_file, capsys):
        assert main([
            "decode", circuit_file, "--shots", "200", "--decoder", "mwpm",
        ]) == 0
        assert "decoder:          matching" in capsys.readouterr().out

    def test_decode_counts_independent_of_workers(self, circuit_file, capsys):
        args = ["decode", circuit_file, "--shots", "600",
                "--chunk-shots", "200", "--seed", "5"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        pooled = capsys.readouterr().out
        pick = lambda text: [  # noqa: E731
            line for line in text.splitlines()
            if line.startswith(("shots", "logical errors"))
        ]
        assert pick(serial) == pick(pooled)

    def test_decoder_matching_and_compiled_agree(self, circuit_file, capsys):
        outputs = []
        for decoder in ("matching", "compiled-matching"):
            assert main([
                "decode", circuit_file, "--shots", "500",
                "--decoder", decoder, "--seed", "3",
            ]) == 0
            outputs.append([
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("logical errors")
            ])
        assert outputs[0] == outputs[1]


class TestCollect:
    ARGS = [
        "collect", "--code", "repetition", "--distances", "3",
        "--probabilities", "0.05", "--rounds", "2",
        "--max-shots", "600", "--chunk-shots", "300", "--seed", "3",
    ]

    def test_sweep_prints_rates(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "collecting 1 task(s)" in out
        assert "repetition" in out
        assert "600" in out

    @pytest.mark.parametrize(
        "value,message",
        [("0", "must be positive"), ("auto", "positive integer")],
    )
    def test_chunk_shots_rejects_non_positive_int(
        self, capsys, value, message
    ):
        args = self.ARGS[:-4] + ["--chunk-shots", value, "--seed", "3"]
        with pytest.raises(SystemExit):
            main(args)
        assert message in capsys.readouterr().err

    def test_transport_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--transport", "pickle"])
        assert "--transport" in capsys.readouterr().err

    def test_profile_prints_stage_breakdown(self, capsys):
        assert main(self.ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile (1 task(s), 600 shots" in out
        for stage in ("sample", "decode", "setup/agg", "pool overhead"):
            assert stage in out, stage

    def test_profile_splits_decoder_build(self, capsys):
        from repro.engine.cache import reset_shared_cache

        # The in-process cache would otherwise serve an earlier test's
        # decoder without building it.
        reset_shared_cache()
        assert main(self.ARGS + ["--profile"]) == 0
        out = capsys.readouterr().out
        (line,) = [l for l in out.splitlines() if "decoder build" in l]
        assert "graph + CSR" in line and "all-pairs" in line
        assert "source rows by exact Dijkstra" in line

    def test_profile_notes_fully_resumed_runs(self, tmp_path, capsys):
        store = str(tmp_path / "rows.jsonl")
        assert main(self.ARGS + ["--out", store]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--out", store, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "every task resumed" in out

    def test_store_written_and_resumed(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(self.ARGS + ["--out", store]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--out", store]) == 0
        second = capsys.readouterr().out
        assert not first.rstrip().endswith("resumed")
        assert second.rstrip().endswith("resumed")
        assert len((tmp_path / "results.jsonl").read_text().splitlines()) == 1

    def test_profile_compile_counts_nested_builds_once(self):
        """A build nested inside another (the symbolic pass inside the
        sampler, the DEM inside the decoder) is already part of the
        outer build's time; the compile column counts it once."""
        import time

        import repro.obs as obs
        from repro.cli import _compile_seconds, _stage_seconds
        from repro.engine.cache import SamplerCache

        obs.enable(tracing=False, metrics=True)
        cache = SamplerCache()
        cache.get_or_build(
            ("sampler", "f", "frame"),
            lambda: cache.get_or_build(("pass", "f"), lambda: time.sleep(0.02)),
        )
        reg = obs.registry()
        outer = _stage_seconds(reg, "cache.build.sampler")
        assert outer >= _stage_seconds(reg, "cache.build.pass") >= 0.02
        assert _compile_seconds(reg) == outer

    def test_profile_prints_per_worker_table(self, capsys):
        assert main(self.ARGS + ["--profile", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "per-worker:" in out
        assert "compile" in out and "shots/s" in out
        assert "queue wait" in out
        assert "transport" in out
        # Two pool workers each get a row (the parent pid does not).
        import os
        table = out.split("per-worker:")[1].strip().splitlines()
        pids = {line.split()[0] for line in table[1:]}
        assert len(pids) == 2
        assert str(os.getpid()) not in pids

    def test_trace_writes_chrome_json(self, tmp_path, capsys):
        from repro.obs.schema import validate_trace_file

        trace = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--trace", trace]) == 0
        assert validate_trace_file(trace) > 0
        import json

        doc = json.loads((tmp_path / "trace.json").read_text())
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"task", "chunk", "sample", "decode"} <= names

    def test_trace_jsonl_extension_writes_span_lines(self, tmp_path, capsys):
        from repro.obs.schema import validate_trace_file

        trace = str(tmp_path / "spans.jsonl")
        assert main(self.ARGS + ["--trace", trace]) == 0
        assert validate_trace_file(trace) > 0

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.prom")
        assert main(self.ARGS + ["--metrics-out", metrics]) == 0
        text = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE repro_shots_total counter" in text
        assert "repro_shots_total" in text

    def test_obs_state_restored_after_run(self, tmp_path, capsys):
        import repro.obs as obs

        trace = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--trace", trace, "--profile"]) == 0
        assert not obs.is_tracing() and not obs.is_metrics()
        assert obs.drain_spans() == []

    def test_workers_match_serial_counts(self, tmp_path, capsys):
        serial = str(tmp_path / "serial.jsonl")
        pooled = str(tmp_path / "pooled.jsonl")
        assert main(self.ARGS + ["--out", serial]) == 0
        assert main(self.ARGS + ["--workers", "2", "--out", pooled]) == 0
        capsys.readouterr()
        import json

        row_a = json.loads((tmp_path / "serial.jsonl").read_text())
        row_b = json.loads((tmp_path / "pooled.jsonl").read_text())
        assert (row_a["shots"], row_a["errors"]) == (
            row_b["shots"], row_b["errors"]
        )
