"""Tests for the symbolic-phase simulator, including the paper's own
worked examples (§3.1 and Fig. 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import Circuit, resolve_record_annotations
from repro.core import (
    SymPhaseSimulator,
    concrete_replay,
    random_assignment,
    substituted_record,
)
from tests.helpers import random_clifford_circuit


def supports(sim, k):
    return set(sim.measurement_support(k).tolist())


class TestPaperSection31Example:
    """The 2-qubit worked example of §3.1:

        |0> -H-.--X^s1--M
        |0> ---X--X^s2--M

    yields m1 = s3 (fresh coin) and m2 = s1 ^ s2 ^ s3.
    """

    @pytest.fixture()
    def sim(self):
        c = Circuit.from_text(
            "H 0\nCNOT 0 1\nX_ERROR(0.5) 0\nX_ERROR(0.5) 1\nM 0 1"
        )
        return SymPhaseSimulator.from_circuit(c)

    def test_symbol_inventory(self, sim):
        kinds = [kind for *_, kind in sim.symbols.sites()]
        assert kinds == ["noise", "noise", "measurement"]

    def test_m1_is_fresh_coin(self, sim):
        assert supports(sim, 0) == {3}

    def test_m2_is_s1_xor_s2_xor_s3(self, sim):
        assert supports(sim, 1) == {1, 2, 3}


class TestPaperFig1Example:
    """Fig. 1's exact content: after the GHZ prep and the faults
    Z^{s1} X^{s2} X^{s3} X^{s4}, the stabilizer tableau is

        (-1)^{s1}      XXXX
        (-1)^{s2}      ZZII
        (-1)^{s2+s3}   IZZI
        (-1)^{s3+s4}   IIZZ

    i.e. the faults accumulate *explicitly* in the phases.  (The figure's
    measurement column idealizes away the collapse coin; the measurement
    semantics are covered exactly by the §3.1 example above and by the
    linearity tests below.)
    """

    @pytest.fixture()
    def sim(self):
        c = Circuit.from_text("""
            H 0
            CNOT 0 1
            CNOT 1 2
            CNOT 2 3
            Z_ERROR(0.5) 0
            X_ERROR(0.5) 1
            X_ERROR(0.5) 2
            X_ERROR(0.5) 3
        """)
        return SymPhaseSimulator.from_circuit(c)

    def test_stabilizer_paulis_match_figure(self, sim):
        n = sim.n
        rows = ["".join(
            "IXZY"[int(x) + 2 * int(z)]
            for x, z in zip(sim.xs[:, n + i], sim.zs[:, n + i])
        ) for i in range(n)]
        assert rows == ["XXXX", "ZZII", "IZZI", "IIZZ"]

    def test_phase_expressions_match_figure(self, sim):
        n = sim.n
        phase_supports = [
            set(sim.phases.row_support(n + i).tolist()) for i in range(n)
        ]
        assert phase_supports == [{1}, {2}, {2, 3}, {3, 4}]

    def test_symbols_are_all_noise(self, sim):
        assert [kind for *_, kind in sim.symbols.sites()] == ["noise"] * 4


class TestControlFlowFacts:
    def test_fact2_xz_blocks_independent_of_noise(self):
        """Fact 2: the X/Z bit blocks evolve independently of the phases,
        so adding noise must not change them."""
        clean = Circuit().h(0).cx(0, 1).m(0, 1)
        noisy = Circuit().h(0).depolarize1(0.4, 0).cx(0, 1).x_error(0.2, 1).m(0, 1)
        a = SymPhaseSimulator.from_circuit(clean)
        b = SymPhaseSimulator.from_circuit(noisy)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.zs, b.zs)

    def test_deterministic_circuit_constant_expressions(self):
        c = Circuit().x(0).cx(0, 1).m(0, 1)
        sim = SymPhaseSimulator.from_circuit(c)
        assert supports(sim, 0) == {0}  # constant 1
        assert supports(sim, 1) == {0}

    def test_expression_string_format(self):
        c = Circuit().h(0).m(0)
        sim = SymPhaseSimulator.from_circuit(c)
        assert sim.measurement_expression(0) == "m0(q0)"

    def test_zero_expression_renders(self):
        c = Circuit().m(0)
        sim = SymPhaseSimulator.from_circuit(c)
        assert sim.measurement_expression(0) == "0"


class TestLinearity:
    """The paper's central claim (Facts 1+2): substituting any concrete
    symbol values into the symbolic expressions reproduces exactly the
    record of a concrete simulation with those faults and coins."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_substitution_equals_concrete_replay(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        circuit = random_clifford_circuit(
            rng, n, depth=30, p_noise=0.2, p_measure=0.12, p_reset=0.08
        )
        sim = SymPhaseSimulator.from_circuit(circuit)
        for _ in range(3):
            assignment = random_assignment(sim, rng)
            assert np.array_equal(
                substituted_record(sim, assignment),
                concrete_replay(circuit, sim, assignment),
            )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_linearity_with_feedback(self, seed):
        """Same property with classically-controlled Paulis mixed in —
        the §6 extension must preserve the substitution theorem."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        circuit = random_clifford_circuit(
            rng, n, depth=35,
            p_noise=0.15, p_measure=0.15, p_reset=0.05, p_feedback=0.1,
        )
        sim = SymPhaseSimulator.from_circuit(circuit)
        for _ in range(3):
            assignment = random_assignment(sim, rng)
            assert np.array_equal(
                substituted_record(sim, assignment),
                concrete_replay(circuit, sim, assignment),
            )

    def test_exhaustive_small_circuit(self):
        """All 2^n assignments on a circuit small enough to enumerate."""
        circuit = Circuit.from_text("""
            H 0
            CX 0 1
            X_ERROR(0.5) 0
            Z_ERROR(0.5) 0
            M 0
            CX 1 0
            MR 1
            M 0
        """)
        sim = SymPhaseSimulator.from_circuit(circuit)
        width = sim.symbols.width
        for bits in range(2 ** (width - 1)):
            assignment = np.zeros(width, dtype=np.uint8)
            assignment[0] = 1
            for j in range(width - 1):
                assignment[j + 1] = (bits >> j) & 1
            assert np.array_equal(
                substituted_record(sim, assignment),
                concrete_replay(circuit, sim, assignment),
            ), f"assignment {assignment} diverged"

    def test_assignment_validation(self):
        sim = SymPhaseSimulator.from_circuit(Circuit().h(0).m(0))
        bad = np.zeros(sim.symbols.width, dtype=np.uint8)  # constant = 0
        with pytest.raises(ValueError):
            substituted_record(sim, bad)
        with pytest.raises(ValueError):
            substituted_record(sim, np.ones(99, dtype=np.uint8))


class TestDetectorsAndObservables:
    def test_detector_lookback_resolution(self):
        c = Circuit().h(0).m(0).m(0).detector(-1, -2)
        sim = SymPhaseSimulator.from_circuit(c)
        assert list(sim.detectors[0]) == [1, 0]

    def test_observable_accumulates(self):
        c = Circuit().m(0).observable_include(0, -1).m(0).observable_include(0, -1)
        sim = SymPhaseSimulator.from_circuit(c)
        assert sim.observables[0] == [0, 1]

    def test_observables_ordered_by_index_across_runs(self):
        """Sparse OBSERVABLE_INCLUDE indices, first seen out of order and
        over two ``run`` calls, land in index order, as every other
        backend's ``resolve_record_annotations`` holds them."""
        first = Circuit.from_text(
            "M 0 1 2\nOBSERVABLE_INCLUDE(5) rec[-1]\nOBSERVABLE_INCLUDE(0) rec[-3]"
        )
        second = Circuit.from_text(
            "M 0\nOBSERVABLE_INCLUDE(2) rec[-1]\nOBSERVABLE_INCLUDE(5) rec[-3]"
        )
        sim = SymPhaseSimulator(3)
        sim.run(first)
        sim.run(second)
        assert sim.observables == [[0], [3], [2, 1]]
        _, resolved = resolve_record_annotations((first + second).flattened())
        assert [list(o) for o in resolved] == sim.observables

    def test_lookback_before_start_rejected(self):
        c = Circuit().m(0).detector(-2)
        with pytest.raises(ValueError):
            SymPhaseSimulator.from_circuit(c)

    def test_repeated_measurement_of_collapsed_qubit(self):
        c = Circuit().h(0).m(0).m(0).m(0)
        sim = SymPhaseSimulator.from_circuit(c)
        # All three must be the same expression: one coin, re-read twice.
        assert supports(sim, 0) == supports(sim, 1) == supports(sim, 2)
