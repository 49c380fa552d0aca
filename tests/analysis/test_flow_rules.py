"""Dataflow-rule fixtures: SEED001, PACK002, RES001, WIRE001.

Same shape as ``test_rules.py`` — self-contained snippet trees under
``tmp_path`` — but exercising the flow-sensitive machinery: branch
joins, interprocedural summaries, exception-path precision.
"""

from repro.analysis import analyze


def scan(tmp_path, files, **kwargs):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return analyze(
        [tmp_path / rel for rel in files],
        root=tmp_path,
        include_context=False,
        **kwargs,
    )


def rules_found(result):
    return sorted({f.rule for f in result.findings})


class TestSEED001:
    def test_wall_clock_into_hash_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import hashlib\n"
            "import time\n"
            "def fingerprint(task):\n"
            "    stamp = time.time()\n"
            "    payload = f'{task}-{stamp}'\n"
            "    return hashlib.sha256(payload.encode()).hexdigest()\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert "hashlib.sha256" in result.findings[0].message

    def test_taint_through_helper_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import time\n"
            "def _stamp():\n"
            "    return time.time()\n"
            "def identify(task):\n"
            "    salt = _stamp()\n"
            "    return task.strong_id(salt)\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert "strong_id" in result.findings[0].message

    def test_set_iteration_order_flagged(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "def fingerprint(items):\n"
            "    names = {item.name for item in items}\n"
            "    return circuit_fingerprint(list(names))\n"
        )})
        assert rules_found(result) == ["SEED001"]

    def test_sorted_sanitizes_set_order(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "def fingerprint(items):\n"
            "    names = {item.name for item in items}\n"
            "    return circuit_fingerprint(sorted(names))\n"
        )})
        assert result.findings == []

    def test_unseeded_default_rng_flagged_seeded_clean(self, tmp_path):
        result = scan(tmp_path, {"seeds.py": (
            "import numpy as np\n"
            "def fresh():\n"
            "    noise = np.random.default_rng().integers(2**32)\n"
            "    return chunk_seed_sequence(noise)\n"
            "def derived(base_seed):\n"
            "    rng = np.random.default_rng(base_seed)\n"
            "    return chunk_seed_sequence(rng.integers(2**32))\n"
        )})
        assert rules_found(result) == ["SEED001"]
        assert all("fresh()" in f.message for f in result.findings)

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"ident.py": (
            "import time\n"
            "def identify(task):\n"
            "    salt = time.time()\n"
            "    return task.strong_id(salt)  # repro: ignore[SEED001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["SEED001"]


class TestPACK002Flow:
    def test_taint_through_helper_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def _fetch(sampler, shots):\n"
            "    return sampler.sample_detectors(shots)\n"
            "def run(sampler, shots):\n"
            "    rows = _fetch(sampler, shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]
        assert "run()" in result.findings[0].message

    def test_cross_module_summary_flagged(self, tmp_path):
        result = scan(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/fetch.py": (
                "def fetch(sampler, shots):\n"
                "    return sampler.sample_detectors(shots)\n"
            ),
            "pkg/count.py": (
                "from pkg.fetch import fetch\n"
                "def run(sampler, shots):\n"
                "    return popcount_rows(fetch(sampler, shots))\n"
            ),
        })
        assert rules_found(result) == ["PACK002"]

    def test_mark_survives_branch_join(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, shots, flag):\n"
            "    if flag:\n"
            "        rows = sampler.sample_detectors(shots)\n"
            "    else:\n"
            "        rows = transform(shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]

    def test_conversion_on_every_path_clean(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "from repro.gf2.bitops import pack_rows\n"
            "def run(sampler, shots, flag):\n"
            "    if flag:\n"
            "        rows = pack_rows(sampler.sample_detectors(shots))\n"
            "    else:\n"
            "        rows = sampler.sample_detectors_packed(shots)\n"
            "    return popcount_rows(rows)\n"
        )})
        assert result.findings == []


class TestRES001:
    def test_early_return_leak_flagged(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe(size, limit):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    if size > limit:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert "RES001" in rules_found(result)
        assert "'seg'" in result.findings[0].message

    def test_with_block_clean(self, tmp_path):
        result = scan(tmp_path, {"io.py": (
            "def read(path):\n"
            "    with open(path) as handle:\n"
            "        return handle.read()\n"
        )})
        assert result.findings == []

    def test_release_on_all_paths_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        return seg.size\n"
            "    finally:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_acquire_inside_try_exception_path_clean(self, tmp_path):
        # The exception edge into the handler must carry the *any
        # point* join of the try body — the acquisition may not have
        # happened yet, so the handler path holds no obligation.
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def available(size):\n"
            "    try:\n"
            "        seg = SharedMemory(create=True, size=size)\n"
            "    except OSError:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_ownership_escape_by_return_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    return seg\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_ownership_escape_by_store_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "class Arena:\n"
            "    def grow(self, size):\n"
            "        seg = SharedMemory(create=True, size=size)\n"
            "        self.segments[seg.name] = seg\n"
            "        return seg.name\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_alias_move_keeps_single_obligation(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    handle = seg\n"
            "    handle.close()\n"
            "    handle.unlink()\n"
        )})
        assert "RES001" not in rules_found(result)

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size, limit):\n"
            "    seg = SharedMemory(create=True, size=size)  "
            "# repro: ignore[RES001]\n"
            "    if size > limit:\n"
            "        return False\n"
            "    seg.close()\n"
            "    seg.unlink()\n"
            "    return True\n"
        )})
        assert result.findings == []
        assert sorted(f.rule for f in result.suppressed) == ["RES001"]


class TestWIRE001:
    def test_lambda_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(chunk_id):\n"
            "    task = lambda x: x + 1\n"
            "    return ChunkSpec(task=task, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]
        assert "'task'" in result.findings[0].message
        assert "closure" in result.findings[0].message

    def test_live_array_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "import numpy as np\n"
            "def make(chunk_id, n):\n"
            "    buf = np.zeros(n)\n"
            "    return ChunkSpec(payload=buf, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]
        assert "ndarray" in result.findings[0].message

    def test_lock_into_spec_flagged(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "from threading import Lock\n"
            "def make(chunk_id):\n"
            "    guard = Lock()\n"
            "    return ChunkSpec(guard=guard, chunk_id=chunk_id)\n"
        )})
        assert rules_found(result) == ["WIRE001"]

    def test_header_only_spec_clean(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(blob_name, chunk_id, shots):\n"
            "    return ChunkSpec(\n"
            "        circuit_ref=blob_name,\n"
            "        chunk_id=chunk_id,\n"
            "        shots=shots,\n"
            "    )\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"dispatch.py": (
            "def make(chunk_id):\n"
            "    task = lambda x: x + 1\n"
            "    return ChunkSpec(task=task, chunk_id=chunk_id)  "
            "# repro: ignore[WIRE001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["WIRE001"]
