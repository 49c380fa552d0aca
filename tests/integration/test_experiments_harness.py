"""Smoke tests for the figure-regeneration harness (tiny sizes)."""

from repro.experiments import run_fig2, run_fig3, run_sparse, run_table1


class TestFig3:
    def test_fig3a_rows(self, capsys):
        rows = run_fig3("fig3a", sizes=[8, 12], shots=200)
        assert len(rows) == 2
        assert rows[0]["n"] == 8
        for row in rows:
            for key in ("init_symphase", "init_frame",
                        "sample_symphase", "sample_frame"):
                assert row[key] > 0
        assert "fig3a" in capsys.readouterr().out

    def test_fig3c_has_noise(self, capsys):
        rows = run_fig3("fig3c", sizes=[8], shots=100)
        assert rows[0]["noise_sites"] > 0

    def test_unknown_variant(self):
        import pytest
        with pytest.raises(ValueError):
            run_fig3("fig3z")


class TestTable1:
    def test_sweeps(self, capsys):
        out = run_table1(
            n_qubits=8, layer_sweep=[4, 8], shot_sweep=[100, 200]
        )
        assert len(out["gate_sweep"]) == 2
        assert len(out["shot_sweep"]) == 2
        # Gate count must grow along the layer sweep.
        gates = [r["gates"] for r in out["gate_sweep"]]
        assert gates[1] > gates[0]


class TestFig2:
    def test_layout_rows(self, capsys):
        rows = run_fig2(n=512, n_ops=16)
        assert {r["layout"] for r in rows} == {"chp", "stim8", "symphase512"}
        for row in rows:
            assert row["column_ops"] >= 0
            assert row["row_ops"] >= 0


class TestSparse:
    def test_sparse_result(self, capsys):
        result = run_sparse(distance=3, rounds=2, shots=500)
        assert result["auto"] == "scatter"
        assert result["avg_support"] > 0
