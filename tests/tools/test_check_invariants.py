"""``tools/check_invariants.py``: one positive and one negative fixture
per rule, plus the real trees it runs on in CI."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "check_invariants.py"

spec = importlib.util.spec_from_file_location("check_invariants", TOOL)
check_invariants = importlib.util.module_from_spec(spec)
sys.modules["check_invariants"] = check_invariants
spec.loader.exec_module(check_invariants)

#: A minimal registry package for REG001's class discovery.
REGISTRY = {
    "src/repro/__init__.py": "",
    "src/repro/impl.py": "class FastSampler:\n    pass\n",
    "src/repro/backends.py": (
        "from repro.impl import FastSampler\n"
        "def _build(circuit):\n"
        "    return FastSampler()\n"
        "register_backend('fast', _build)\n"
    ),
}


def scan(tmp_path, files):
    """Rules that fire on ``files`` (a ``{path: text}`` tree)."""
    for rel, text in {**REGISTRY, **files}.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    findings, _ = check_invariants.check(
        [tmp_path / rel for rel in files], root=tmp_path,
        context=[tmp_path / "src" / "repro"],
    )
    return [finding.rule for finding in findings]


CASES = {
    "API001": (
        {"examples/demo.py": "from repro.core.simulator import SymPhaseSimulator\n"},
        {"examples/demo.py": "from repro import Circuit\nimport repro.qec\n"},
    ),
    "EXC001": (
        {"src/repro/engine/run.py": (
            "def step(job):\n"
            "    try:\n"
            "        job()\n"
            "    except OSError:\n"
            "        pass\n"
        )},
        {"src/repro/engine/run.py": (
            "import contextlib\n"
            "def step(job):\n"
            "    with contextlib.suppress(OSError):\n"
            "        job()\n"
            "    try:\n"
            "        job()\n"
            "    except:\n"
            "        raise\n"
        )},
    ),
    "OBS001": (
        {"src/repro/sim.py": (
            "import repro.obs as obs\n"
            "def sample(shots):\n"
            "    for shot in range(shots):\n"
            "        obs.counter('shots').inc()\n"
        )},
        {"src/repro/sim.py": (
            "from repro.obs import counter\n"
            "def sample(shots):\n"
            "    total = 0\n"
            "    for shot in range(shots):\n"
            "        total += 1\n"
            "    counter('shots').inc(total)\n"
        )},
    ),
    "REG001": (
        {"src/repro/study.py": (
            "from repro.impl import FastSampler\n"
            "def build():\n"
            "    return FastSampler()\n"
        )},
        {"src/repro/study.py": (
            "from repro.backends import compile_backend\n"
            "def build(circuit):\n"
            "    return compile_backend(circuit, 'fast')\n"
        )},
    ),
    "RES001": (
        {"src/repro/store.py": (
            "def append(path, line):\n"
            "    handle = open(path, 'a')\n"
            "    handle.write(line)\n"
            "    handle.close()\n"
        )},
        {"src/repro/store.py": (
            "def append(path, line):\n"
            "    with open(path, 'a') as handle:\n"
            "        handle.write(line)\n"
            "def reader(path):\n"
            "    return open(path)\n"
        )},
    ),
}


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_fires_on_positive_fixture(tmp_path, rule):
    assert scan(tmp_path, CASES[rule][0]) == [rule]


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_quiet_on_negative_fixture(tmp_path, rule):
    assert scan(tmp_path, CASES[rule][1]) == []


def test_scope_limits(tmp_path):
    """EXC001 holds engine modules only, API001 user-facing layers only,
    REG001 exempts tests."""
    assert scan(tmp_path, {
        "src/repro/core/x.py": "try:\n    pass\nexcept OSError:\n    pass\n",
        "src/repro/core/y.py": "from repro.core.simulator import S\n",
        "tests/test_fast.py": "from repro.impl import FastSampler\nFastSampler()\n",
    }) == []


def test_allowlist_entry_goes_stale(tmp_path, monkeypatch):
    path = tmp_path / "examples" / "demo.py"
    path.parent.mkdir(parents=True)
    path.write_text("from repro import Circuit\n")
    entry = ("API001", "examples/demo.py", "repro.core", "walkthrough")
    monkeypatch.setattr(check_invariants, "ALLOWED", [entry])
    findings, stale = check_invariants.check([path], root=tmp_path, context=[])
    assert findings == [] and stale == [entry]


@pytest.mark.parametrize("tree", ["src/repro", "examples", "benchmarks"])
def test_repository_trees_are_clean(tree):
    findings, stale = check_invariants.check([ROOT / tree])
    assert findings == [], [str(finding) for finding in findings]
    assert stale == []


def test_command_line_exit_codes(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    run = subprocess.run(
        [sys.executable, str(TOOL), str(bad)], capture_output=True, text=True
    )
    assert run.returncode == 1 and "syntax error" in run.stdout
    good = tmp_path / "fine.py"
    good.write_text("x = 1\n")
    run = subprocess.run(
        [sys.executable, str(TOOL), str(good)], capture_output=True, text=True
    )
    assert run.returncode == 0 and run.stdout == ""
