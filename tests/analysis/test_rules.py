"""Per-rule fixtures: one positive, one negative, one suppressed each.

Every fixture is a self-contained snippet tree written under
``tmp_path`` and analyzed with ``include_context=False``, so these
tests exercise the rules' own logic, not the shape of the real
``repro`` package (``test_self.py`` covers that).
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


class TestRNG001:
    def test_np_legacy_call_flagged(self, tmp_path):
        result = scan(tmp_path, {"roll.py": (
            "import numpy as np\n"
            "def roll():\n"
            "    return np.random.randint(10)\n"
        )})
        assert rules_found(result) == ["RNG001"]
        assert "np.random.randint" in result.findings[0].message

    def test_stdlib_random_flagged(self, tmp_path):
        result = scan(tmp_path, {"pick.py": (
            "import random\n"
            "def pick(items):\n"
            "    return random.choice(items)\n"
        )})
        assert rules_found(result) == ["RNG001"]

    def test_generator_usage_clean(self, tmp_path):
        result = scan(tmp_path, {"ok.py": (
            "import numpy as np\n"
            "def roll(rng):\n"
            "    return rng.integers(10)\n"
            "def fresh():\n"
            "    return np.random.default_rng(0)\n"
        )})
        assert result.findings == []

    def test_repro_rng_module_exempt(self, tmp_path):
        result = scan(tmp_path, {
            "repro/__init__.py": "",
            "repro/rng.py": (
                "import numpy as np\n"
                "def as_generator(seed_or_rng=None):\n"
                "    if isinstance(seed_or_rng, np.random.Generator):\n"
                "        return seed_or_rng\n"
                "    return np.random.default_rng(seed_or_rng)\n"
            ),
        })
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"roll.py": (
            "import numpy as np\n"
            "def roll():\n"
            "    return np.random.randint(10)  # repro: ignore[RNG001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RNG001"]


class TestRNG002:
    FILES = {"repro/__init__.py": ""}

    def test_seed_bypassing_as_generator_flagged(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "import numpy as np\n"
            "def draw(n, seed=None):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random(n)\n"
        )})
        assert rules_found(result) == ["RNG002"]
        assert "draw()" in result.findings[0].message

    def test_as_generator_clean(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "from repro.rng import as_generator\n"
            "def draw(n, seed=None):\n"
            "    return as_generator(seed).random(n)\n"
        )})
        assert result.findings == []

    def test_forwarding_seed_clean(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "from repro.workloads import build\n"
            "def draw(n, seed=None):\n"
            "    return build(n, seed)\n"
        )})
        assert result.findings == []

    def test_generator_isinstance_branch_clean(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "import numpy as np\n"
            "def draw(n, seed=None):\n"
            "    if isinstance(seed, np.random.Generator):\n"
            "        return seed.random(n)\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )})
        assert result.findings == []

    def test_private_function_exempt(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "import numpy as np\n"
            "def _draw(n, seed=None):\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )})
        assert result.findings == []

    def test_non_repro_module_exempt(self, tmp_path):
        result = scan(tmp_path, {"script.py": (
            "import numpy as np\n"
            "def draw(n, seed=None):\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {**self.FILES, "repro/sampling.py": (
            "import numpy as np\n"
            "def draw(n, seed=None):  # repro: ignore[RNG002]\n"
            "    return np.random.default_rng(seed).random(n)\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RNG002"]


class TestFORK001:
    def test_unreset_mutation_flagged(self, tmp_path):
        result = scan(tmp_path, {"pool.py": (
            "from multiprocessing import Pool\n"
            "_CACHE = {}\n"
            "def work(x):\n"
            "    _CACHE[x] = x * 2\n"
            "    return _CACHE[x]\n"
            "def main(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(work, items)\n"
        )})
        assert rules_found(result) == ["FORK001"]
        assert "_CACHE" in result.findings[0].message

    def test_initializer_reset_clean(self, tmp_path):
        result = scan(tmp_path, {"pool.py": (
            "from multiprocessing import Pool\n"
            "_CACHE = {}\n"
            "def _init():\n"
            "    _CACHE.clear()\n"
            "def work(x):\n"
            "    _CACHE[x] = x * 2\n"
            "    return _CACHE[x]\n"
            "def main(items):\n"
            "    with Pool(2, initializer=_init) as pool:\n"
            "        return pool.map(work, items)\n"
        )})
        assert result.findings == []

    def test_guarded_memo_clean(self, tmp_path):
        result = scan(tmp_path, {"pool.py": (
            "from multiprocessing import Pool\n"
            "_CACHE = {}\n"
            "def work(x):\n"
            "    if x not in _CACHE:\n"
            "        _CACHE[x] = x * 2\n"
            "    return _CACHE[x]\n"
            "def main(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(work, items)\n"
        )})
        assert result.findings == []

    def test_transitive_callee_flagged(self, tmp_path):
        result = scan(tmp_path, {"pool.py": (
            "from multiprocessing import Pool\n"
            "_SEEN = []\n"
            "def _record(x):\n"
            "    _SEEN.append(x)\n"
            "def work(x):\n"
            "    _record(x)\n"
            "    return x\n"
            "def main(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.imap_unordered(work, items)\n"
        )})
        assert rules_found(result) == ["FORK001"]

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"pool.py": (
            "from multiprocessing import Pool\n"
            "_CACHE = {}\n"
            "def work(x):\n"
            "    _CACHE[x] = x * 2  # repro: ignore[FORK001]\n"
            "    return _CACHE[x]\n"
            "def main(items):\n"
            "    with Pool(2) as pool:\n"
            "        return pool.map(work, items)\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["FORK001"]


class TestRES001SharedMemory:
    """Shared-memory segments: RES001 owns the create/unlink discipline."""

    def test_create_without_unlink_flagged(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    return seg.name\n"
        )})
        # Returning seg.name keeps the handle captive: a leak.
        assert rules_found(result) == ["RES001"]

    def test_unlink_in_finally_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def probe(size):\n"
            "    seg = SharedMemory(create=True, size=size)\n"
            "    try:\n"
            "        return seg.name\n"
            "    finally:\n"
            "        seg.close()\n"
            "        seg.unlink()\n"
        )})
        assert result.findings == []

    def test_finalize_backstop_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "import weakref\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def _unlink_all(segments):\n"
            "    for seg in segments:\n"
            "        seg.unlink()\n"
            "class Arena:\n"
            "    def __init__(self):\n"
            "        self.segments = []\n"
            "        weakref.finalize(self, _unlink_all, self.segments)\n"
            "    def grow(self, size):\n"
            "        self.segments.append(SharedMemory(create=True, size=size))\n"
        )})
        assert result.findings == []

    def test_attach_existing_segment_clean(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def attach(name):\n"
            "    return SharedMemory(name=name)\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"seg.py": (
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def grab(size):\n"
            "    seg = SharedMemory(create=True, size=size)  "
            "# repro: ignore[RES001]\n"
            "    return seg.name\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["RES001"]


class TestPACK002ModuleLevel:
    """Module-level (import-time) statements are PACK002's own scope."""

    def test_module_level_mix_flagged(self, tmp_path):
        result = scan(tmp_path, {"wire.py": (
            "rows = sample_detectors(1024)\n"
            "counts = popcount_rows(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]
        assert "module level" in result.findings[0].message

    def test_module_level_conversion_clean(self, tmp_path):
        result = scan(tmp_path, {"wire.py": (
            "rows = sample_detectors(1024)\n"
            "packed = pack_rows(rows)\n"
            "counts = popcount_rows(packed)\n"
        )})
        assert result.findings == []

    def test_function_body_reported_once(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, decoder, shots):\n"
            "    rows = sampler.sample_detectors(shots)\n"
            "    return decoder.decode_batch_packed(rows)\n"
        )})
        # The module scope does not descend into def bodies.
        assert [f.rule for f in result.findings] == ["PACK002"]
        assert result.findings[0].message.endswith("in run()")

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"wire.py": (
            "rows = sample_detectors(1024)\n"
            "counts = popcount_rows(rows)  # repro: ignore[PACK002]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["PACK002"]


class TestPACK002:
    def test_unpacked_into_packed_consumer_flagged(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, decoder, shots):\n"
            "    rows = sampler.sample_detectors(shots)\n"
            "    return decoder.decode_batch_packed(rows)\n"
        )})
        assert rules_found(result) == ["PACK002"]
        assert "'rows'" in result.findings[0].message

    def test_double_pack_flagged(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "from repro.gf2.bitops import pack_rows\n"
            "def run(sampler, shots):\n"
            "    packed = sampler.sample_detectors_packed(shots)\n"
            "    return pack_rows(packed)\n"
        )})
        assert rules_found(result) == ["PACK002"]

    def test_explicit_conversion_clean(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "from repro.gf2.bitops import pack_rows, popcount_rows\n"
            "def run(sampler, shots, width):\n"
            "    rows = sampler.sample_detectors(shots)\n"
            "    packed = pack_rows(rows)\n"
            "    return popcount_rows(packed)\n"
        )})
        assert result.findings == []

    def test_reassignment_clears_mark(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, decoder, shots, transform):\n"
            "    rows = sampler.sample_detectors(shots)\n"
            "    rows = transform(rows)\n"
            "    return decoder.decode_batch_packed(rows)\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"mix.py": (
            "def run(sampler, decoder, shots):\n"
            "    rows = sampler.sample_detectors(shots)\n"
            "    return decoder.decode_batch_packed(rows)  "
            "# repro: ignore[PACK002]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["PACK002"]


class TestREG001:
    REGISTRY_PKG = {
        "pkg/__init__.py": "",
        "pkg/impls.py": (
            "class FancyDecoder:\n"
            "    def __init__(self, dem):\n"
            "        self.dem = dem\n"
        ),
        "pkg/registry.py": (
            "from pkg.impls import FancyDecoder\n"
            "_REGISTRY = {}\n"
            "def register_decoder(name, factory):\n"
            "    _REGISTRY[name] = factory\n"
            "register_decoder('fancy', lambda dem: FancyDecoder(dem))\n"
        ),
    }

    def test_direct_instantiation_flagged(self, tmp_path):
        result = scan(tmp_path, {**self.REGISTRY_PKG, "pkg/offender.py": (
            "from pkg.impls import FancyDecoder\n"
            "def build(dem):\n"
            "    return FancyDecoder(dem)\n"
        )})
        assert "REG001" in rules_found(result)
        reg = [f for f in result.findings if f.rule == "REG001"]
        assert reg[0].path.endswith("offender.py")

    def test_factory_through_helper_function_flagged(self, tmp_path):
        # The registry reaches the helper through a package re-export,
        # the way the symbolic backend reaches repro.core.compile_sampler.
        result = scan(tmp_path, {
            "pkg/__init__.py": "from pkg.impls import compile_fancy\n",
            "pkg/impls.py": (
                "class FancySampler:\n"
                "    def __init__(self, circuit):\n"
                "        self.circuit = circuit\n"
                "def compile_fancy(circuit):\n"
                "    return FancySampler(circuit)\n"
            ),
            "pkg/registry.py": (
                "_REGISTRY = {}\n"
                "def register_backend(name, factory):\n"
                "    _REGISTRY[name] = factory\n"
                "def _compile_fancy(circuit):\n"
                "    from pkg import compile_fancy\n"
                "    return compile_fancy(circuit)\n"
                "register_backend('fancy', _compile_fancy)\n"
            ),
            "pkg/offender.py": (
                "from pkg.impls import FancySampler\n"
                "def build(circuit):\n"
                "    return FancySampler(circuit)\n"
            ),
        })
        reg = [f for f in result.findings if f.rule == "REG001"]
        assert [f.path for f in reg] == ["pkg/offender.py"]
        assert "FancySampler" in reg[0].message

    def test_registry_and_defining_modules_allowed(self, tmp_path):
        result = scan(tmp_path, {**self.REGISTRY_PKG, "pkg/maker.py": (
            "from pkg.impls import FancyDecoder\n"
        )})
        reg = [f for f in result.findings if f.rule == "REG001"]
        assert reg == []

    def test_tests_directory_exempt(self, tmp_path):
        result = scan(tmp_path, {**self.REGISTRY_PKG, "tests/test_fancy.py": (
            "from pkg.impls import FancyDecoder\n"
            "def test_build():\n"
            "    assert FancyDecoder(object()).dem is not None\n"
        )})
        reg = [f for f in result.findings if f.rule == "REG001"]
        assert reg == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {**self.REGISTRY_PKG, "pkg/offender.py": (
            "from pkg.impls import FancyDecoder\n"
            "def build(dem):\n"
            "    return FancyDecoder(dem)  # repro: ignore[REG001]\n"
        )})
        reg = [f for f in result.findings if f.rule == "REG001"]
        assert reg == []
        assert [f.rule for f in result.suppressed] == ["REG001"]


class TestOBS001:
    def test_counter_in_shot_loop_flagged(self, tmp_path):
        result = scan(tmp_path, {"loop.py": (
            "import repro.obs as obs\n"
            "def sample(shots):\n"
            "    for shot in range(shots):\n"
            "        obs.counter('repro_shots_total', 1)\n"
        )})
        assert rules_found(result) == ["OBS001"]

    def test_span_in_shot_while_loop_flagged(self, tmp_path):
        result = scan(tmp_path, {"loop.py": (
            "from repro.obs import span\n"
            "def sample(shots):\n"
            "    remaining_shots = shots\n"
            "    while remaining_shots:\n"
            "        with span('shot'):\n"
            "            remaining_shots -= 1\n"
        )})
        assert rules_found(result) == ["OBS001"]

    def test_per_chunk_telemetry_clean(self, tmp_path):
        result = scan(tmp_path, {"loop.py": (
            "import repro.obs as obs\n"
            "def sample(shots):\n"
            "    total = 0\n"
            "    for shot in range(shots):\n"
            "        total += 1\n"
            "    obs.counter('repro_shots_total', total)\n"
        )})
        assert result.findings == []

    def test_non_shot_loop_clean(self, tmp_path):
        result = scan(tmp_path, {"loop.py": (
            "import repro.obs as obs\n"
            "def process(chunks):\n"
            "    for chunk in chunks:\n"
            "        obs.counter('repro_chunks_total', 1)\n"
        )})
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"loop.py": (
            "import repro.obs as obs\n"
            "def sample(shots):\n"
            "    for shot in range(shots):\n"
            "        obs.counter('repro_shots_total', 1)  "
            "# repro: ignore[OBS001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["OBS001"]


class TestAPI001:
    def test_benchmark_deep_import_flagged(self, tmp_path):
        result = scan(tmp_path, {"benchmarks/bench_x.py": (
            "from repro.engine.supervise import SupervisedPool\n"
        )})
        assert rules_found(result) == ["API001"]
        assert "repro.engine.supervise" in result.findings[0].message

    def test_example_deep_import_flagged(self, tmp_path):
        result = scan(tmp_path, {"examples/demo.py": (
            "import repro.frame.program\n"
        )})
        assert rules_found(result) == ["API001"]

    def test_cli_deep_import_flagged(self, tmp_path):
        result = scan(tmp_path, {
            "repro/__init__.py": "",
            "repro/cli.py": "from repro.core import SymPhaseSimulator\n",
        })
        assert rules_found(result) == ["API001"]

    def test_sanctioned_facades_clean(self, tmp_path):
        result = scan(tmp_path, {"examples/demo.py": (
            "from repro.study import Sweep\n"
            "from repro.qec import surface_code_memory\n"
            "import repro.obs as obs\n"
            "from repro.rng import as_generator\n"
        )})
        assert result.findings == []

    def test_internal_module_not_in_scope(self, tmp_path):
        result = scan(tmp_path, {
            "repro/__init__.py": "",
            "repro/engine_helper.py": "from repro.frame import program\n",
        })
        assert result.findings == []

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {"benchmarks/bench_x.py": (
            "from repro.engine.supervise import SupervisedPool  "
            "# repro: ignore[API001]\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["API001"]


class TestEXC001:
    ENGINE = {
        "repro/__init__.py": "",
        "repro/engine/__init__.py": "",
    }

    def test_except_pass_in_engine_flagged(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/pool.py": (
            "def reap(conn):\n"
            "    try:\n"
            "        conn.close()\n"
            "    except OSError:\n"
            "        pass\n"
        )})
        assert rules_found(result) == ["EXC001"]
        assert "OSError" in result.findings[0].message
        assert "suppress" in result.findings[0].hint

    def test_bare_except_without_reraise_flagged(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/loopy.py": (
            "def drain(queue):\n"
            "    try:\n"
            "        return queue.get()\n"
            "    except:\n"
            "        return None\n"
        )})
        assert rules_found(result) == ["EXC001"]
        assert "bare except" in result.findings[0].message

    def test_bare_except_with_reraise_clean(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/clean.py": (
            "def guarded(conn):\n"
            "    try:\n"
            "        return conn.recv()\n"
            "    except:\n"
            "        conn.close()\n"
            "        raise\n"
        )})
        assert result.findings == []

    def test_contextlib_suppress_clean(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/ok.py": (
            "import contextlib\n"
            "def reap(conn):\n"
            "    with contextlib.suppress(OSError):\n"
            "        conn.close()\n"
        )})
        assert result.findings == []

    def test_handler_with_real_work_clean(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/retry.py": (
            "def attempt(chunk, requeue):\n"
            "    try:\n"
            "        return chunk.run()\n"
            "    except RuntimeError as exc:\n"
            "        requeue(chunk, str(exc))\n"
        )})
        assert result.findings == []

    def test_non_engine_module_not_in_scope(self, tmp_path):
        result = scan(tmp_path, {
            "repro/__init__.py": "",
            "repro/util.py": (
                "def probe(path):\n"
                "    try:\n"
                "        return open(path).read()\n"
                "    except OSError:\n"
                "        pass\n"
            ),
        })
        assert "EXC001" not in rules_found(result)

    def test_suppression_comment(self, tmp_path):
        result = scan(tmp_path, {**self.ENGINE, "repro/engine/old.py": (
            "def reap(conn):\n"
            "    try:\n"
            "        conn.close()\n"
            "    except OSError:  # repro: ignore[EXC001]\n"
            "        pass\n"
        )})
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["EXC001"]
