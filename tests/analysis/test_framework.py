"""Framework plumbing: suppressions, baselines, reporters, CLI."""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    JSON_SCHEMA_VERSION,
    AnalysisResult,
    Baseline,
    Finding,
    all_rules,
    analyze,
    render_github,
    render_json,
    render_text,
    rule_ids,
    select_rules,
)
from repro.analysis.__main__ import main
from repro.analysis.core import is_suppressed, sort_findings, suppressed_rules

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = (
    "import numpy as np\n"
    "def roll():\n"
    "    return np.random.randint(10)\n"
)


def write_violation(tmp_path, rel="roll.py", text=VIOLATION):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestRuleRegistry:
    def test_at_least_eight_rules(self):
        assert len(all_rules()) >= 8

    def test_ids_unique_and_metadata_complete(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert len(set(ids)) == len(ids)
        for rule in rules:
            assert rule.severity in ("error", "warning")
            assert rule.title
            assert rule.rationale

    def test_expected_rule_set(self):
        assert set(rule_ids()) == {
            "RNG001", "RNG002", "FORK001", "REG001", "OBS001", "API001",
            "PARSE000", "SEED001", "PACK002", "RES001", "WIRE001", "EXC001",
        }

    def test_readme_rule_table_matches_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Static analysis", 1)[1].split("\n### ")[0]
        documented = re.findall(r"^\| `(\w+)` \|", section, re.M)
        assert sorted(documented) == sorted(rule_ids())

    def test_select_and_ignore(self):
        assert [r.id for r in select_rules(select=("RNG001",))] == ["RNG001"]
        assert "API001" not in {
            r.id for r in select_rules(ignore=("API001",))
        }

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="NOPE999"):
            select_rules(select=("NOPE999",))
        with pytest.raises(ValueError, match="NOPE999"):
            select_rules(ignore=("NOPE999",))


class TestSuppressionParsing:
    def test_single_id(self):
        assert suppressed_rules("x = 1  # repro: ignore[RNG001]") == {
            "RNG001"
        }

    def test_comma_list(self):
        assert suppressed_rules(
            "x = 1  # repro: ignore[RNG001, PACK002]"
        ) == {"RNG001", "PACK002"}

    def test_wildcard(self):
        line = "x = 1  # repro: ignore[*]"
        assert suppressed_rules(line) == {"*"}
        finding = Finding("RES001", "error", "f.py", 1, "m")
        assert is_suppressed(finding, [line])

    def test_plain_comment_is_not_a_suppression(self):
        assert suppressed_rules("x = 1  # ignore this") == frozenset()

    def test_wrong_rule_does_not_suppress(self):
        finding = Finding("RES001", "error", "f.py", 1, "m")
        assert not is_suppressed(finding, ["x  # repro: ignore[RNG001]"])

    def test_line_out_of_range(self):
        finding = Finding("RES001", "error", "f.py", 99, "m")
        assert not is_suppressed(finding, ["x  # repro: ignore[*]"])


class TestBaseline:
    def entry(self, **overrides):
        entry = {
            "rule": "RNG001",
            "path": "roll.py",
            "note": "legacy roll, tracked in #12",
        }
        entry.update(overrides)
        return entry

    def finding(self, **overrides):
        fields = dict(
            rule="RNG001", severity="error", path="roll.py", line=3,
            message="np.random.randint used", symbol="roll",
        )
        fields.update(overrides)
        return Finding(**fields)

    def test_match_on_rule_and_path(self):
        baseline = Baseline(entries=[self.entry()])
        assert baseline.matches(self.finding())
        assert not baseline.matches(self.finding(path="other.py"))
        assert not baseline.matches(self.finding(rule="RES001"))
        assert baseline.stale_entries() == []

    def test_symbol_and_contains_narrow_the_match(self):
        baseline = Baseline(
            entries=[self.entry(symbol="roll", contains="randint")]
        )
        assert baseline.matches(self.finding())
        assert not baseline.matches(self.finding(symbol="other"))
        assert not baseline.matches(self.finding(message="random.choice"))

    def test_stale_entries_reported(self):
        baseline = Baseline(entries=[self.entry(path="deleted.py")])
        assert not baseline.matches(self.finding())
        assert baseline.stale_entries() == [self.entry(path="deleted.py")]

    def test_load_validates_required_keys(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"entries": [self.entry()]}))
        assert Baseline.load(good).entries == [self.entry()]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"entries": [{"rule": "RNG001"}]}))
        with pytest.raises(ValueError, match="missing"):
            Baseline.load(bad)

    def test_analyze_partitions_baselined(self, tmp_path):
        write_violation(tmp_path)
        baseline = Baseline(entries=[self.entry()])
        result = analyze(
            [tmp_path / "roll.py"], root=tmp_path,
            include_context=False, baseline=baseline,
        )
        assert result.findings == []
        assert [f.rule for f in result.baselined] == ["RNG001"]
        assert result.exit_code == 0


class TestReporters:
    def run_violation(self, tmp_path):
        write_violation(tmp_path)
        return analyze(
            [tmp_path / "roll.py"], root=tmp_path, include_context=False
        )

    def test_json_schema(self, tmp_path):
        payload = json.loads(render_json(self.run_violation(tmp_path)))
        assert set(payload) == {
            "version", "rules", "findings", "suppressed", "baselined",
            "stale_baseline", "counts", "files_analyzed", "exit_code",
        }
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["exit_code"] == 1
        assert payload["counts"] == {"RNG001": 1}
        assert payload["files_analyzed"] == 1
        # No "seconds" field: the JSON report is a pure function of the
        # findings so cold and warm cache runs stay byte-identical.
        assert "seconds" not in payload
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "severity", "path", "line", "message", "hint", "symbol"
        }
        assert finding["rule"] == "RNG001"
        assert finding["path"] == "roll.py"
        assert finding["line"] == 3
        assert finding["symbol"] == "roll"
        for rule_id, meta in payload["rules"].items():
            assert set(meta) == {"severity", "title", "rationale"}
            assert rule_id in payload["rules"]

    def test_github_annotations(self, tmp_path):
        text = render_github(self.run_violation(tmp_path))
        lines = text.splitlines()
        assert lines[0].startswith("::error ")
        assert "file=roll.py" in lines[0]
        assert "line=3" in lines[0]
        assert "title=RNG001" in lines[0]
        assert "::" in lines[0].split("title=RNG001", 1)[1]
        assert lines[-1] == "1 finding(s) in 1 file(s), 12 rule(s)"

    def test_github_annotation_escaping(self):
        finding = Finding(
            "RNG001", "warning", "a,b.py", 7,
            "bad: 100% broken\nreally",
        )
        result = AnalysisResult(
            findings=[finding], files_analyzed=1, rules_run=("RNG001",),
        )
        (annotation, _summary) = render_github(result).splitlines()
        assert annotation.startswith("::warning file=a%2Cb.py,line=7,")
        assert "100%25 broken%0Areally" in annotation

    def test_text_report(self, tmp_path):
        text = render_text(self.run_violation(tmp_path))
        assert "roll.py:3: RNG001 [error]" in text
        assert "1 finding(s)" in text

    def test_clean_text_report(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        result = analyze(
            [tmp_path / "ok.py"], root=tmp_path, include_context=False
        )
        assert "clean" in render_text(result)

    def test_sort_findings_orders_by_path_line_rule(self):
        unordered = [
            Finding("RNG001", "error", "b.py", 2, "m"),
            Finding("RES001", "error", "a.py", 9, "m"),
            Finding("API001", "warning", "a.py", 9, "m"),
            Finding("RNG001", "error", "a.py", 1, "m"),
        ]
        ordered = sort_findings(unordered)
        assert [(f.path, f.line, f.rule) for f in ordered] == [
            ("a.py", 1, "RNG001"), ("a.py", 9, "API001"),
            ("a.py", 9, "RES001"), ("b.py", 2, "RNG001"),
        ]


class TestCli:
    @pytest.fixture
    def violation_dir(self, tmp_path, monkeypatch):
        write_violation(tmp_path)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_exit_1_on_finding(self, violation_dir, capsys):
        assert main(["roll.py", "--no-context"]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_exit_0_on_clean_tree(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["ok.py", "--no-context"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_format_parses(self, violation_dir, capsys):
        assert main(["roll.py", "--no-context", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1

    def test_select_and_ignore_flags(self, violation_dir, capsys):
        assert main(
            ["roll.py", "--no-context", "--select", "API001"]
        ) == 0
        assert main(
            ["roll.py", "--no-context", "--ignore", "RNG001,RNG002"]
        ) == 0
        capsys.readouterr()

    def test_unknown_rule_is_usage_error(self, violation_dir, capsys):
        assert main(["roll.py", "--no-context", "--select", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_missing_baseline_is_usage_error(self, violation_dir, capsys):
        assert main(
            ["roll.py", "--no-context", "--baseline", "absent.json"]
        ) == 2
        assert "baseline" in capsys.readouterr().err

    def test_baseline_gates_exit_code(self, violation_dir, capsys):
        (violation_dir / "baseline.json").write_text(json.dumps({
            "entries": [{
                "rule": "RNG001", "path": "roll.py",
                "note": "fixture violation",
            }]
        }))
        assert main(
            ["roll.py", "--no-context", "--baseline", "baseline.json"]
        ) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out
