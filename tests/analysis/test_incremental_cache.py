"""Incremental cache semantics + PARSE000 regression.

The cache is an accelerator only: cold and warm runs of the same tree
must produce byte-identical JSON reports, and editing a file must
invalidate exactly what the edit affects (content-hash keys, no
timestamps involved).
"""

import json

from repro.analysis import analyze, render_json
from repro.analysis.cache import AnalysisCache, CACHE_DIR_NAME

FILES = {
    "helper.py": (
        "def fetch(sampler, shots):\n"
        "    return sampler.sample_detectors(shots)\n"
    ),
    "mix.py": (
        "from helper import fetch\n"
        "def run(sampler, shots):\n"
        "    rows = fetch(sampler, shots)\n"
        "    return popcount_rows(rows)\n"
    ),
}


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return [tmp_path / rel for rel in files]


def run(tmp_path, files, **kwargs):
    return analyze(
        write_tree(tmp_path, files),
        root=tmp_path,
        include_context=False,
        **kwargs,
    )


class TestColdWarmIdentity:
    def test_cold_and_warm_reports_byte_identical(self, tmp_path):
        cold = render_json(run(tmp_path, FILES))
        assert (tmp_path / CACHE_DIR_NAME).is_dir()
        warm = render_json(run(tmp_path, FILES))
        assert cold == warm
        assert json.loads(cold)["counts"] == {"PACK002": 1}

    def test_no_cache_run_matches_cached_run(self, tmp_path):
        cached = render_json(run(tmp_path, FILES))
        uncached = render_json(run(tmp_path, FILES, use_cache=False))
        assert cached == uncached


class TestInvalidation:
    def test_edit_changes_the_verdict(self, tmp_path):
        result = run(tmp_path, FILES)
        assert [f.rule for f in result.findings] == ["PACK002"]
        # Fix the helper to return packed rows: the caller's cached
        # findings must not survive, because the resolved summary
        # table (part of every findings key) changed.
        fixed = dict(FILES)
        fixed["helper.py"] = (
            "def fetch(sampler, shots):\n"
            "    return sampler.sample_detectors_packed(shots)\n"
        )
        result = run(tmp_path, fixed)
        assert result.findings == []
        # And back again: stale entries must not resurrect either way.
        result = run(tmp_path, FILES)
        assert [f.rule for f in result.findings] == ["PACK002"]

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        run(tmp_path, FILES)
        cache_dir = tmp_path / CACHE_DIR_NAME
        entries = list(cache_dir.rglob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("{not json")
        result = run(tmp_path, FILES)
        assert [f.rule for f in result.findings] == ["PACK002"]


class TestCacheStore:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = AnalysisCache(tmp_path / "store")
        assert cache.get("section", "key") is None
        cache.put("section", "key", {"x": [1, 2]})
        assert cache.get("section", "key") == {"x": [1, 2]}

    def test_disabled_cache_is_inert(self, tmp_path):
        cache = AnalysisCache(None)
        cache.put("section", "key", {"x": 1})
        assert cache.get("section", "key") is None
        assert not cache.enabled


class TestPARSE000:
    BROKEN = "def broken(:\n    return 1\n"

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        files = dict(FILES)
        files["broken.py"] = self.BROKEN
        result = run(tmp_path, files)
        rules = sorted({f.rule for f in result.findings})
        assert rules == ["PACK002", "PARSE000"]
        (parse,) = [f for f in result.findings if f.rule == "PARSE000"]
        assert parse.path == "broken.py"
        assert parse.message.startswith("SyntaxError:")
        assert parse.line >= 1
        assert result.exit_code == 1

    def test_other_files_still_fully_analyzed(self, tmp_path):
        # The broken file must not shadow findings elsewhere in the
        # tree — the rest of the run proceeds normally.
        files = dict(FILES)
        files["broken.py"] = self.BROKEN
        result = run(tmp_path, files)
        assert any(f.rule == "PACK002" for f in result.findings)

    def test_clean_tree_with_only_broken_file(self, tmp_path):
        result = run(tmp_path, {"broken.py": self.BROKEN})
        assert [f.rule for f in result.findings] == ["PARSE000"]
