"""Tests for the sampler backend protocol and registry."""

import numpy as np
import pytest

from repro.backends import (
    BackendInfo,
    Sampler,
    available_backends,
    backend_choices,
    canonical_name,
    compile_backend,
    get_backend,
    pack_detector_samples,
    register_backend,
)
from repro.circuit import Circuit
from repro.engine import Task
from repro.qec import repetition_code_memory


def small_circuit() -> Circuit:
    return Circuit().h(0).cx(0, 1).x_error(0.1, 0).m(0, 1).detector(-1, -2)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for name in ("frame", "frame-interp", "symbolic", "tableau"):
            assert name in names

    def test_alias_resolution(self):
        assert canonical_name("symphase") == "symbolic"
        assert canonical_name("symbolic") == "symbolic"

    def test_choices_include_aliases(self):
        choices = backend_choices()
        assert "symphase" in choices
        assert "frame" in choices

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="frame"):
            canonical_name("quantum-supremacy")

    def test_alias_cannot_shadow_backend(self):
        info = BackendInfo(name="shadow-test", description="x")
        with pytest.raises(ValueError):
            register_backend(info, lambda c: None, aliases=("frame",))
        assert "shadow-test" not in available_backends()

    def test_alias_cannot_be_rebound_to_other_backend(self):
        info = BackendInfo(name="alias-steal-test", description="x")
        with pytest.raises(ValueError, match="symphase"):
            register_backend(info, lambda c: None, aliases=("symphase",))
        assert canonical_name("symphase") == "symbolic"

    def test_name_cannot_equal_existing_alias(self):
        info = BackendInfo(name="symphase", description="x")
        with pytest.raises(ValueError, match="alias"):
            register_backend(info, lambda c: None)
        assert canonical_name("symphase") == "symbolic"

    def test_every_builtin_satisfies_protocol(self):
        circuit = small_circuit()
        for name in available_backends():
            sampler = compile_backend(circuit, name)
            assert isinstance(sampler, Sampler), name

    def test_capability_flags(self):
        assert get_backend("frame").info.compile_once
        assert get_backend("tableau").info.oracle
        assert get_backend("tableau").info.per_shot_cost == "shot"
        assert (
            get_backend("frame").info.rng_stream
            == get_backend("frame-interp").info.rng_stream
        )
        assert (
            get_backend("frame").info.rng_stream
            != get_backend("symbolic").info.rng_stream
        )

    def test_hit_draw_streams_are_versioned(self):
        """The batch samplers draw noise as sparse hits; their tokens
        differ from the per-site-uniform scheme's ("frame", "symbolic")
        so no store row from that scheme is resumed into."""
        assert get_backend("frame").info.rng_stream == "frame-hits-v2"
        assert get_backend("frame-interp").info.rng_stream == "frame-hits-v2"
        assert get_backend("symbolic").info.rng_stream == "symbolic-hits-v2"

    def test_custom_backend_registration(self):
        calls = []

        class FakeSampler:
            def sample(self, shots, rng=None):
                return np.zeros((shots, 0), dtype=np.uint8)

            def sample_detectors(self, shots, rng=None):
                empty = np.zeros((shots, 0), dtype=np.uint8)
                return empty, empty

            def sample_detectors_packed(self, shots, rng=None):
                # The protocol's packed view; the generic adapter turns
                # an unpacked implementation into one.
                return pack_detector_samples(self, shots, rng)

        def factory(circuit):
            calls.append(circuit)
            return FakeSampler()

        register_backend(
            BackendInfo(name="fake-test-backend", description="test double"),
            factory,
        )
        sampler = compile_backend(small_circuit(), "fake-test-backend")
        assert isinstance(sampler, Sampler)
        assert len(calls) == 1


class TestBackendSamplers:
    @pytest.mark.parametrize("name", ["frame", "frame-interp", "symbolic"])
    def test_sample_shapes(self, name, rng):
        sampler = compile_backend(small_circuit(), name)
        records = sampler.sample(50, rng)
        assert records.shape == (50, 2)
        detectors, observables = sampler.sample_detectors(50, rng)
        assert detectors.shape == (50, 1)
        assert observables.shape == (50, 0)

    def test_tableau_sample_shapes(self, rng):
        sampler = compile_backend(small_circuit(), "tableau")
        records = sampler.sample(20, rng)
        assert records.shape == (20, 2)
        detectors, _ = sampler.sample_detectors(20, rng)
        assert detectors.shape == (20, 1)

    @pytest.mark.parametrize("name", ["frame", "symbolic", "tableau"])
    def test_zero_shots_rejected(self, name, rng):
        sampler = compile_backend(small_circuit(), name)
        with pytest.raises(ValueError):
            sampler.sample(0, rng)


class TestTaskIntegration:
    def make_task(self, **kwargs):
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.05,
            measure_flip_probability=0.05,
        )
        return Task(circuit, **kwargs)

    def test_alias_canonicalized(self):
        assert self.make_task(sampler="symphase").sampler == "symbolic"

    def test_alias_shares_strong_id(self):
        a = self.make_task(sampler="symphase")
        b = self.make_task(sampler="symbolic")
        assert a.strong_id() == b.strong_id()

    def test_every_backend_accepted(self):
        for name in available_backends():
            assert self.make_task(sampler=name).sampler == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            self.make_task(sampler="quantum")
