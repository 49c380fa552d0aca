"""Ablation bench: the full gadget-evaluation loop (intro's use case).

Compares the per-stage costs — circuit analysis (once), syndrome
sampling (per batch, the paper's headline number), DEM extraction
(once), and decoding (per batch) — showing that with phase
symbolization, sampling stops being the bottleneck the paper's
introduction describes.
"""

import numpy as np
import pytest

from repro.core import compile_sampler
from repro.decoders import compile_decoder
from repro.dem import extract_dem
from repro.qec import repetition_code_memory

SHOTS = 2000


@pytest.fixture(scope="module")
def pipeline():
    circuit = repetition_code_memory(
        7, rounds=7,
        data_flip_probability=0.02,
        measure_flip_probability=0.02,
    )
    sampler = compile_sampler(circuit)
    dem = extract_dem(sampler)
    decoder = compile_decoder(dem, "matching")
    rng = np.random.default_rng(0)
    detectors, _ = sampler.sample_detectors(SHOTS, rng)
    return circuit, sampler, dem, decoder, detectors


def test_stage_analyze(benchmark, pipeline):
    benchmark.group = "gadget-eval-stages"
    circuit = pipeline[0]
    benchmark(compile_sampler, circuit)


def test_stage_sample(benchmark, pipeline):
    benchmark.group = "gadget-eval-stages"
    sampler = pipeline[1]
    rng = np.random.default_rng(1)
    benchmark(sampler.sample_detectors, SHOTS, rng)


def test_stage_extract_dem(benchmark, pipeline):
    benchmark.group = "gadget-eval-stages"
    sampler = pipeline[1]
    benchmark(extract_dem, sampler)


def test_stage_decode(benchmark, pipeline):
    benchmark.group = "gadget-eval-stages"
    decoder, detectors = pipeline[3], pipeline[4]
    benchmark(decoder.decode_batch, detectors)


def test_stage_decode_compiled(benchmark, pipeline):
    benchmark.group = "gadget-eval-stages"
    dem, detectors = pipeline[2], pipeline[4]
    decoder = compile_decoder(dem, "compiled-matching")
    benchmark(decoder.decode_batch, detectors)
