"""The determinism contract, pinned: task identity and seed entropy are
pure functions of task content.

``Task.strong_id()`` keys the result store (resume) and
``seed_entropy()`` seeds every chunk (serial == pooled == retried), so
both must come out the same in every process.  The literals below were
computed once and must never drift; a wall clock, ``os.urandom`` or a
set's iteration order anywhere in identity construction moves them.
The subprocess runs use their own ``PYTHONHASHSEED``, so string hashing
(and with it set order) differs from this process and from each other.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

IDENTITY_SCRIPT = '''
import json
from repro import Circuit
from repro.engine import Task
from repro.qec import repetition_code_memory

tasks = [
    Task(
        repetition_code_memory(3, 2, 0.05, 0.05),
        decoder="compiled-matching",
        sampler="frame",
        metadata={"code": "repetition", "distance": 3, "p": 0.05},
    ),
    Task(
        Circuit.from_text(
            "H 0\\nCNOT 0 1\\nX_ERROR(0.25) 0\\nM 0 1\\n"
            "DETECTOR rec[-1] rec[-2]\\nOBSERVABLE_INCLUDE(0) rec[-1]\\n"
        ),
        decoder="none",
        sampler="symphase",
        max_shots=500,
        metadata={"zeta": "z", "alpha": [1, 2], "mid": {"b": 1, "a": 2}},
    ),
]
print(json.dumps([
    [task.strong_id(), task.circuit_fingerprint(), task.seed_entropy()]
    for task in tasks
]))
'''

#: ``[strong_id, circuit_fingerprint, seed_entropy]`` per task above.
PINNED = [
    [
        "e083301a12f7d08cfc55286e2f104d53b7c37801ba451aa0f5f2fd7a97d45c3a",
        "8f4294b450ea089fc25ac58629ac93b83922412fced18ab003ba0ad7ddb5f8aa",
        10322976798059137183,
    ],
    [
        "c3a5f1f425d370cb9f5abd6624287f42f3697573acd322ebc1858ad430e3f7cb",
        "09576e0053e004496bc10053ff99d0b8554225e9d361bab0092ec6e1bb8db02f",
        673127617001423945,
    ],
]


def test_identity_in_process():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(IDENTITY_SCRIPT, {})
    assert json.loads(out.getvalue()) == PINNED


@pytest.mark.parametrize("hash_seed", ["3", "4242"])
def test_identity_under_another_hash_seed(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", IDENTITY_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == PINNED
