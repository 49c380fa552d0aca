"""The array-native symbolic pass: bitwise identity and linearity.

Init-C evaluates each gate's ANF kernel on every target at once and
Init-P XORs one column block per noise instruction.  The digests below
were recorded with the earlier per-site implementation of the pass (one
table lookup per gate target, one symbol group per noise site), so they
pin the matrices, the symbol order, probabilities and labels, and the
RNG stream of ``sample`` bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.noise.channels as channels
import repro.obs as obs
from benchmarks.bench_symbolic_pass import detectors_digest, grid, pass_digests
from repro.backends import compile_backend
from repro.circuit import Circuit, RecTarget
from repro.circuit.instructions import disjoint_runs
from repro.circuit.transforms import RecordAnnotations, record_index
from repro.core import (
    CompiledSampler,
    PhaseMatrix,
    SymbolTable,
    SymPhaseSimulator,
    concrete_replay,
    random_assignment,
    substituted_record,
)
from repro.core.simulator import pack_generators, rowsum_sign_flips, y_counts
from repro.frame.program import FrameProgram
from repro.gates.anf import gate_kernel
from repro.gates.database import BASIS_CONJUGATION, FEEDBACK_LETTER, get_gate
from repro.gates.unitaries import UNITARIES_1Q, UNITARIES_2Q
from repro.gf2 import bitops
from repro.noise.channels import noise_channel
from repro.tableau.tableau import g_exponents
from repro.workloads import fig3c_circuit
from tests.helpers import append_random_annotations

DIGESTS = {
    "fig3c_n128": {
        "matrices": "d8596302445b50830c7d3cc587648e74a660a06d7e3d8821082852d7e10a7a2c",
        "symbols": "042152558ce882f5b02f855d22eb4279fe222c8f4cb5de9ff92512eef9303b73",
        "sample": "808ed51496b97d2c56b170c34c30927be22ecd09a7d13cc583ef9b00edf369ad",
    },
    "surface_d3": {
        "matrices": "32a76d5d05f49cf0451553b2c4a4981e772c75d64c164382375d9f4560caf956",
        "symbols": "6d840f55959ef7bea04e64f06c15a027e94022aa0a92dbb521706cf6d7b7cb1b",
        "sample": "186a23f010392c86f5fb1833b2b7959da938339a71a60114b50ced9679884f6e",
    },
    "surface_d5": {
        "matrices": "b09deb02d29d8a8c0a87cf4dbdaa5cc14c1f28c0681a4de05a2cedf6e2089379",
        "symbols": "9a372cadbd422f9516094f13ad690367451b8232323c5bccb67a6b916626456b",
        "sample": "1e9d49826f6021b15dfb36060eacace825b9416ac25ecca58e66010b0c4ab191",
    },
    "surface_d7": {
        "matrices": "b908a1542bf88e6fd99e5f71fe49fe3cac25397df4b9b017c3b38c5e6e6e01a4",
        "symbols": "dc05f2862f78a0df0d1abdce474c5071f183dd366156d3e97f2353aef9855978",
        "sample": "c2abac6da6c982f8a032d1b46068468f25171607e5cb8c506378a6bc13d4080d",
    },
    "mixed": {
        "matrices": "0b72ddbfaf3eb5139632205b59cb228c5f70b75da9e389ed3d255462640fa658",
        "symbols": "66062dbc0645843f9fabb61369bac600bf7cf5b372e41a21dcc9ef2ee4689872",
        "sample": "da41c598af386f81dfb88bf15600e92bb67c842a3e97c801ab5ef33515a2ede3",
        "detectors": "3bde68eb3c8f287401eb9e1f5b5762b47ec71dbbb66ef4c9e841a66427e3df82",
    },
}

#: The mixed circuit's detector digest: one engine chunk, and a call
#: whose last word is partial.
MIXED_DETECTOR_SHOTS = (512, 4097)

NOISE_1Q = ("X_ERROR", "Y_ERROR", "Z_ERROR", "DEPOLARIZE1")
MEASURES = ("M", "MX", "MY", "R", "RX", "RY", "MR", "MRX", "MRY")


def mixed_circuit(rng: np.random.Generator, n_qubits: int, depth: int) -> Circuit:
    """Random multi-target instructions over every unitary gate, noise
    channel, measurement and reset, with repeated targets and ``rec``
    feedback.  1-qubit instructions may repeat a qubit; 2-qubit ones
    repeat qubits across pairs (never within one)."""

    def qubits(k):
        return " ".join(str(q) for q in rng.integers(0, n_qubits, k))

    def pairs(k):
        return " ".join(
            " ".join(str(q) for q in rng.choice(n_qubits, 2, replace=False))
            for _ in range(k)
        )

    def p():
        return round(float(rng.uniform(0.01, 0.2)), 3)

    lines, measured = [], 0
    for _ in range(depth):
        kind = int(rng.integers(0, 8))
        size = int(rng.integers(1, 5))
        if kind == 0:
            lines.append(f"{rng.choice(sorted(UNITARIES_1Q))} {qubits(size)}")
        elif kind == 1:
            lines.append(f"{rng.choice(sorted(UNITARIES_2Q))} {pairs(size)}")
        elif kind == 2:
            lines.append(f"{rng.choice(NOISE_1Q)}({p()}) {qubits(size)}")
        elif kind == 3:
            px, py, pz = (round(p() / 3, 4) for _ in range(3))
            lines.append(f"PAULI_CHANNEL_1({px}, {py}, {pz}) {qubits(size)}")
        elif kind == 4:
            if rng.random() < 0.5:
                lines.append(f"DEPOLARIZE2({p()}) {pairs(size)}")
            else:
                args = ", ".join(str(round(p() / 15, 4)) for _ in range(15))
                lines.append(f"PAULI_CHANNEL_2({args}) {pairs(size)}")
        elif kind == 5:
            paulis = " ".join(
                f"{rng.choice(('X', 'Y', 'Z'))}{q}"
                for q in rng.integers(0, n_qubits, size)
            )
            lines.append(f"CORRELATED_ERROR({p()}) {paulis}")
        elif kind == 6:
            name = str(rng.choice(MEASURES))
            lines.append(f"{name} {qubits(size)}")
            if name.startswith("M"):
                measured += size
        elif measured:
            controls = " ".join(
                f"rec[-{rng.integers(1, min(measured, 4) + 1)}] "
                f"{rng.integers(0, n_qubits)}"
                for _ in range(size)
            )
            lines.append(f"{rng.choice(('CX', 'CY', 'CZ'))} {controls}")
    lines.append("M " + " ".join(str(q) for q in range(n_qubits)))
    return Circuit.from_text("\n".join(lines))


def assert_linear(circuit: Circuit, rng: np.random.Generator, assignments=3):
    """Substituting symbol values equals the concrete replay."""
    simulator = SymPhaseSimulator.from_circuit(circuit)
    for _ in range(assignments):
        assignment = random_assignment(simulator, rng)
        assert np.array_equal(
            substituted_record(simulator, assignment),
            concrete_replay(circuit, simulator, assignment),
        )


class TestDigests:
    @pytest.mark.parametrize(
        "name", ["fig3c_n128", "surface_d3", "surface_d5", "surface_d7"]
    )
    def test_pass_reproduces_recorded_digests(self, name):
        sampler = compile_backend(grid()[name], "symbolic")
        assert pass_digests(sampler) == DIGESTS[name]

    def test_mixed_circuit_reproduces_recorded_digests(self):
        """The pass digests read the plain circuit, which has no
        detectors; ``detectors`` reads it with random annotations
        appended, so every channel kind and feedback reaches the
        detector sample."""
        circuit = mixed_circuit(np.random.default_rng(2024), 6, 120)
        digests = pass_digests(compile_backend(circuit, "symbolic"))
        append_random_annotations(
            circuit, np.random.default_rng(2025), n_detectors=12
        )
        digests["detectors"] = detectors_digest(
            compile_backend(circuit, "symbolic"), MIXED_DETECTOR_SHOTS
        )
        assert digests == DIGESTS["mixed"]


class TestDuplicateTargets:
    @pytest.mark.parametrize(
        "text",
        [
            "H 0 0",
            "S 0 1 0",
            "CX 0 1 0 1",
            "SQRT_X_DAG 2 2 2",
            "H 0 1 2\nCX 0 1 2 0 1 2\nS 1 1",
            "ISWAP 0 1 1 2 2 0\nC_XYZ 2 2",
        ],
    )
    def test_substitution_equals_concrete_replay(self, text):
        prefix = "H 0\nS 1\nH 2\nX_ERROR(0.5) 0 1 2\nDEPOLARIZE1(0.5) 2 2\n"
        circuit = Circuit.from_text(prefix + text + "\nM 0 1 2\nMX 0 1 2")
        assert_linear(circuit, np.random.default_rng(5), assignments=8)

    def test_repeated_noise_targets_allocate_one_record(self):
        circuit = Circuit.from_text(
            "H 0\nDEPOLARIZE2(0.1) 0 1 1 0\nCORRELATED_ERROR(0.1) X0 X0 Z1\nM 0 1"
        )
        simulator = SymPhaseSimulator.from_circuit(circuit)
        noise = [r for r in simulator.symbols.records if r.kind == "noise"]
        assert [(r.n_sites, r.symbols_per_site) for r in noise] == [(2, 4), (1, 1)]
        labels = [simulator.symbols.label(i) for i in range(1, 10)]
        assert labels == ["X0", "Z0", "X1", "Z1", "X1", "Z1", "X0", "Z0", "X0*X0*Z1"]


class TestLinearityFuzz:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), n_qubits=st.integers(2, 6))
    def test_substitution_equals_concrete_replay(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        assert_linear(mixed_circuit(rng, n_qubits, depth=25), rng)


class TestNoPerSiteObjects:
    @pytest.fixture()
    def forbid_per_site(self, monkeypatch):
        """Make building a per-site action list or view raise."""

        def forbidden(*args, **kwargs):
            raise AssertionError("per-site object built")

        monkeypatch.setattr(channels.NoiseChannel, "actions", forbidden)
        monkeypatch.setattr(SymbolTable, "sites", forbidden)
        monkeypatch.setattr(SymbolTable, "label", forbidden)

    def test_pass_and_sample_build_no_per_site_object(self, forbid_per_site):
        circuit = grid()["surface_d3"]
        simulator = SymPhaseSimulator.from_circuit(circuit)
        sampler = CompiledSampler(simulator)
        records = sampler.sample(256, rng=3)
        detectors, _ = sampler.sample_detectors(256, rng=3)
        assert records.shape == (256, sampler.n_measurements)
        assert detectors.shape == (256, sampler.n_detectors)

    def test_frame_program_builds_no_per_site_object(self, forbid_per_site):
        circuit = grid()["surface_d3"]
        program = FrameProgram(circuit)
        flips = program.run(256, 3)
        assert flips.shape == (program.n_records, bitops.words_for(256))


class TestCompileSpans:
    def test_pass_and_build_nest_under_backend_compile(self):
        obs.enable(tracing=True, metrics=True)
        compile_backend(grid()["surface_d3"], "symbolic")
        spans = {record.name: record for record in obs.drain_spans()}
        outer = spans["backend.compile"]
        for name in ("core.symbolic_pass", "core.sampler_build"):
            assert spans[name].parent_id == outer.span_id
        text = obs.prometheus_text(obs.registry())
        assert 'stage="core.symbolic_pass"' in text
        assert 'stage="core.sampler_build"' in text


class TwoHalfReference:
    """The pass as it was before it dropped the destabilizer phases: a
    2n-row phase matrix, every sign update on all rows it touches, the
    collapse copying row p's phase into destabilizer p - n, whole-row
    phase XORs and a per-row loop for determinate outcomes.  Test-only
    and self-contained: generator-major X/Z arrays, A-G's per-target
    measurement with A-G's sign bits, and its own dispatch, so nothing of
    the pass under test runs inside it."""

    def __init__(self, n_qubits: int):
        n = n_qubits
        self.n = n
        self.xs = np.zeros((2 * n, n), dtype=np.uint8)
        self.zs = np.zeros((2 * n, n), dtype=np.uint8)
        idx = np.arange(n)
        self.xs[idx, idx] = 1
        self.zs[n + idx, idx] = 1
        self.phases = PhaseMatrix(2 * n)
        self.symbols = SymbolTable()
        self.measurements = []
        self.annotations = RecordAnnotations()

    @classmethod
    def from_circuit(cls, circuit: Circuit) -> "TwoHalfReference":
        reference = cls(max(circuit.n_qubits, 1))
        for instruction in circuit.flattened():
            reference.do_instruction(instruction)
        return reference

    @property
    def detectors(self):
        return self.annotations.detectors

    @property
    def observables(self):
        return self.annotations.observables

    @property
    def num_measurements(self):
        return len(self.measurements)

    def do_instruction(self, instruction):
        gate = instruction.gate
        if gate.is_unitary:
            if gate.name in FEEDBACK_LETTER and any(
                isinstance(t, RecTarget) for t in instruction.targets[0::2]
            ):
                self._apply_feedback(instruction)
            else:
                self._apply_gate(gate.name, instruction.targets)
        elif gate.kind == "measure":
            for qubit in instruction.targets:
                self.measurements.append(self._measure(qubit, gate.basis))
        elif gate.kind == "reset":
            for qubit in instruction.targets:
                self._reset(qubit, gate.basis, record=False)
        elif gate.kind == "measure_reset":
            for qubit in instruction.targets:
                self._reset(qubit, gate.basis, record=True)
        elif gate.kind == "noise":
            self._apply_noise(instruction)
        elif gate.kind == "annotation":
            self.annotations.add(instruction, len(self.measurements))
        else:
            raise ValueError(f"unhandled instruction kind {gate.kind!r}")

    def _apply_gate(self, name, targets):
        kernel = gate_kernel(get_gate(name).name)
        arity = kernel.n_qubits
        for run in disjoint_runs(targets, arity):
            sites = np.asarray(run, dtype=np.int64).reshape(-1, arity)
            columns = [sites[:, slot] for slot in range(arity)]
            inputs = []
            for qubits in columns:
                inputs += [self.xs[:, qubits], self.zs[:, qubits]]
            *outputs, flip = kernel.evaluate(inputs)
            for slot, qubits in enumerate(columns):
                self.xs[:, qubits] = outputs[2 * slot]
                self.zs[:, qubits] = outputs[2 * slot + 1]
            flipped = np.nonzero(np.bitwise_xor.reduce(flip, axis=1))[0]
            if flipped.size:
                self.phases.xor_constant(flipped)

    def _all_rows_mask(self, letter, qubits):
        if letter == "X":
            return self.zs[:, qubits]
        if letter == "Z":
            return self.xs[:, qubits]
        return self.xs[:, qubits] ^ self.zs[:, qubits]

    def _apply_feedback(self, instruction):
        letter = FEEDBACK_LETTER[instruction.name]
        targets = instruction.targets
        for control, qubit in zip(targets[0::2], targets[1::2]):
            if isinstance(control, RecTarget):
                vector = self.measurements[
                    record_index(len(self.measurements), control)
                ]
                rows = np.nonzero(self._all_rows_mask(letter, qubit))[0]
                if rows.size:
                    self.phases.xor_vector(rows, vector)
            else:
                self._apply_gate(instruction.name, (control, qubit))

    def _apply_noise(self, instruction):
        channel = noise_channel(instruction)
        if not channel.n_sites:
            return
        first = self.symbols.allocate_noise(channel)
        block = np.zeros(
            (2 * self.n, channel.n_sites, len(channel.columns)), dtype=np.uint8
        )
        for j, column in enumerate(channel.columns):
            for letter, slot in column:
                block[:, :, j] ^= self._all_rows_mask(
                    letter, channel.qubits[:, slot]
                )
        self.phases.xor_block(first, block.reshape(2 * self.n, -1))

    def _rowsum_all(self, rows, src):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        g_sum = g_exponents(
            self.xs[rows], self.zs[rows], self.xs[src], self.zs[src]
        ).sum(axis=1, dtype=np.int64)
        g_mod4 = g_sum % 4
        assert not np.any((g_mod4 & 1) & (rows >= self.n))
        self.phases.words[rows] ^= self.phases.words[src]
        const_rows = rows[(g_mod4 >> 1) & 1 == 1]
        if const_rows.size:
            self.phases.xor_constant(const_rows)
        self.xs[rows] ^= self.xs[src]
        self.zs[rows] ^= self.zs[src]

    def _measure_z(self, qubit):
        n = self.n
        stab_hits = np.nonzero(self.xs[n:, qubit])[0]
        if stab_hits.size:
            p = n + int(stab_hits[0])
            others = np.nonzero(self.xs[:, qubit])[0]
            self._rowsum_all(others[others != p], p)
            self.xs[p - n] = self.xs[p]
            self.zs[p - n] = self.zs[p]
            self.phases.words[p - n] = self.phases.words[p]
            self.xs[p] = 0
            self.zs[p] = 0
            self.zs[p, qubit] = 1
            self.phases.words[p] = 0
            symbol = self.symbols.allocate_measurement(
                len(self.measurements), qubit
            )
            self.phases.xor_symbol(np.array([p]), symbol)
            vector = np.zeros(bitops.words_for(self.symbols.width), dtype=np.uint64)
            bitops.set_bit(vector, symbol, 1)
            return vector
        hits = np.nonzero(self.xs[:n, qubit])[0] + n
        x = np.zeros(n, dtype=np.uint8)
        z = np.zeros(n, dtype=np.uint8)
        vector = np.zeros(self.phases.words.shape[1], dtype=np.uint64)
        constant = 0
        for row in hits:
            g_sum = int(g_exponents(x, z, self.xs[row], self.zs[row]).sum())
            assert g_sum % 2 == 0
            constant ^= (g_sum % 4) >> 1
            vector ^= self.phases.words[row]
            x ^= self.xs[row]
            z ^= self.zs[row]
        if constant:
            vector[0] ^= np.uint64(1)
        return vector[: bitops.words_for(self.symbols.width)].copy()

    def _measure(self, qubit, basis):
        conj = BASIS_CONJUGATION.get(basis)
        if conj:
            self._apply_gate(conj, (qubit,))
        vector = self._measure_z(qubit)
        if conj:
            self._apply_gate(conj, (qubit,))
        return vector

    def _reset(self, qubit, basis, record):
        conj = BASIS_CONJUGATION.get(basis)
        if conj:
            self._apply_gate(conj, (qubit,))
        vector = self._measure_z(qubit)
        if record:
            self.measurements.append(vector)
        rows = np.nonzero(self._all_rows_mask("X", qubit))[0]
        if rows.size:
            self.phases.xor_vector(rows, vector)
        if conj:
            self._apply_gate(conj, (qubit,))


def append_annotations(circuit: Circuit, rng: np.random.Generator) -> None:
    """Random detectors, and observables with sparse indices included in
    random order (so the index-ordered observable list is exercised)."""
    n_m = circuit.num_measurements
    for _ in range(int(rng.integers(1, 5))):
        lookbacks = rng.choice(n_m, size=int(rng.integers(1, min(n_m, 3) + 1)),
                               replace=False)
        if rng.random() < 0.5:
            circuit.detector(*(-int(k) - 1 for k in lookbacks))
        else:
            circuit.observable_include(
                int(rng.choice((0, 2, 5))), *(-int(k) - 1 for k in lookbacks)
            )


def assert_matches_reference(circuit: Circuit) -> None:
    """The stabilizer-only pass equals the 2n-row reference bit for bit."""
    ours = SymPhaseSimulator.from_circuit(circuit)
    reference = TwoHalfReference.from_circuit(circuit)
    assert len(ours.measurements) == len(reference.measurements)
    for mine, theirs in zip(ours.measurements, reference.measurements):
        assert np.array_equal(mine, theirs)
    ours_sampler, reference_sampler = CompiledSampler(ours), CompiledSampler(reference)
    for name in ("measurement_matrix", "detector_matrix", "observable_matrix"):
        assert np.array_equal(
            getattr(ours_sampler, name), getattr(reference_sampler, name)
        )
    assert [r[:5] for r in ours.symbols.records] == [
        r[:5] for r in reference.symbols.records
    ]
    assert [ours.symbols.label(i) for i in range(ours.symbols.width)] == [
        reference.symbols.label(i) for i in range(reference.symbols.width)
    ]
    n = ours.n
    assert ours.phases.width == reference.phases.width
    for row in range(n, 2 * n):
        assert np.array_equal(
            ours.phases.row_vector(row), reference.phases.row_vector(row)
        )


class TestStabilizerOnlyPass:
    """Destabilizer phases never reach an outcome: dropping them leaves
    every output of the pass unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31), n_qubits=st.integers(2, 7))
    def test_equals_two_half_reference(self, seed, n_qubits):
        rng = np.random.default_rng(seed)
        circuit = mixed_circuit(rng, n_qubits, depth=int(rng.integers(10, 60)))
        append_annotations(circuit, rng)
        assert_matches_reference(circuit)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31), n_qubits=st.integers(3, 10))
    def test_layered_circuits_equal_reference(self, seed, n_qubits):
        assert_matches_reference(fig3c_circuit(n_qubits, seed=seed))

    @pytest.mark.parametrize("n_qubits, seed", [(4, 0), (6, 17), (8, 0)])
    def test_determinate_g_phase_equals_reference(self, n_qubits, seed):
        """Layered circuits whose final determinate outcomes multiply
        several stabilizer rows with a g-phase of 2 mod 4, which random
        mixed circuits seldom reach."""
        assert_matches_reference(fig3c_circuit(n_qubits, seed=seed))

    @pytest.mark.parametrize("name", ["surface_d3", "surface_d5", "fig3c_n64"])
    def test_grid_circuits_equal_reference(self, name):
        assert_matches_reference(grid()[name])

    @settings(max_examples=9, deadline=None)
    @given(seed=st.integers(0, 2**31), n_qubits=st.sampled_from((63, 64, 65)))
    def test_packed_word_edges_equal_reference(self, seed, n_qubits):
        """Qubits 63 and 64 sit on either side of a segment-table word
        boundary; 65 qubits leave 63 padding bits in the last word."""
        rng = np.random.default_rng(seed)
        circuit = mixed_circuit(rng, n_qubits, depth=40)
        append_annotations(circuit, rng)
        assert_matches_reference(circuit)
        assert_matches_reference(fig3c_circuit(n_qubits, seed=seed % 1000))

    @pytest.mark.parametrize(
        "text",
        ["H 0 1\nM 0 0 1", "H 0 1\nMX 0 1 0", "H 0 1\nMR 2 2",
         "H 0 1\nM 0 0 1\nMX 0 1 0\nMR 2 2"],
    )
    def test_random_and_determinate_targets_in_one_instruction(self, text):
        prefix = "X_ERROR(0.1) 0 1 2\nZ_ERROR(0.1) 0 1\n"
        circuit = Circuit.from_text(prefix + text + "\nM 0 1 2")
        assert_matches_reference(circuit)
        assert_linear(circuit, np.random.default_rng(3), assignments=8)

    def test_repeated_target_rereads_the_collapsed_outcome(self):
        sim = SymPhaseSimulator.from_circuit(Circuit.from_text("H 0 1\nM 0 0 1"))
        first, again, other = (sim.measurement_expression(k) for k in range(3))
        assert first == again != other

    def test_destabilizer_row_has_no_phase(self):
        sim = SymPhaseSimulator.from_circuit(Circuit.from_text("H 0\nCX 0 1"))
        assert sim.phases.row_support(3).tolist() == []
        for row in (0, 1, 4, -1):
            with pytest.raises(ValueError, match=f"row {row} "):
                sim.phases.row_support(row)
            with pytest.raises(ValueError, match=f"row {row} "):
                sim.phases.row_vector(row)

    def test_fig3c_phase_traffic(self, monkeypatch):
        """Rowsum phase XORs land on stabilizer rows only and cover the
        live words only: Fig. 3c n=128 moves 9.9M words (35.1M with the
        2n-row matrix and whole-capacity rows)."""
        words = []
        xor_rows = PhaseMatrix.xor_rows

        def counting(matrix, dst_rows, src_row, flips):
            words.append(len(dst_rows) * matrix.live_words)
            return xor_rows(matrix, dst_rows, src_row, flips)

        monkeypatch.setattr(PhaseMatrix, "xor_rows", counting)
        SymPhaseSimulator.from_circuit(grid()["fig3c_n128"])
        assert sum(words) <= 10_000_000


def random_paulis(rng, n_qubits, count):
    """``count`` random qubit-major Pauli columns on ``n_qubits`` qubits."""
    return (
        rng.integers(0, 2, (n_qubits, count), dtype=np.uint8),
        rng.integers(0, 2, (n_qubits, count), dtype=np.uint8),
    )


def y_bit1(xs, zs):
    """Bit 1 of ``|x∧z| mod 4`` per column."""
    return (np.count_nonzero(xs & zs, axis=0) >> 1) & 1


class TestSegmentSignConvention:
    """Inside a segment a row is ``i^φ X^x Z^z`` with
    ``φ = 2c + |x∧z|``; its sign bit is ``c' = c ⊕ bit1(|x∧z| mod 4)``."""

    @pytest.mark.parametrize("n_qubits", [1, 2, 5, 63, 64, 65, 129, 130])
    def test_flip_rule_equals_g_exponents(self, n_qubits):
        """For commuting rows r, p the segment's flip of ``c'`` under
        r := r·p is A-G's flip of ``c`` after converting both rows and the
        product: ``f' = f ⊕ b(r) ⊕ b(p) ⊕ b(r·p)``, ``b = bit1(|x∧z|)``."""
        rng = np.random.default_rng(n_qubits)
        xs, zs = random_paulis(rng, n_qubits, 2000)
        xr, zr, xp, zp = xs[:, 0::2], zs[:, 0::2], xs[:, 1::2], zs[:, 1::2]
        commuting = (np.count_nonzero(xr & zp, axis=0)
                     + np.count_nonzero(zr & xp, axis=0)) % 2 == 0
        xr, zr, xp, zp = (a[:, commuting] for a in (xr, zr, xp, zp))
        assert xr.shape[1] > 400
        g_sum = g_exponents(xr.T, zr.T, xp.T, zp.T).sum(axis=1, dtype=np.int64)
        assert not np.any(g_sum & 1)
        ag_flip = (g_sum % 4) >> 1
        expected = ag_flip ^ y_bit1(xr, zr) ^ y_bit1(xp, zp) ^ y_bit1(xr ^ xp, zr ^ zp)
        rows = pack_generators(xr, zr)
        sources = pack_generators(xp, zp)
        flips = [
            int(rowsum_sign_flips(rows[k: k + 1], sources[k])[0])
            for k in range(rows.shape[0])
        ]
        assert flips == expected.tolist()

    def test_q_word_is_y_parity(self):
        xs, zs = random_paulis(np.random.default_rng(1), 70, 140)
        table = pack_generators(xs, zs)
        w = bitops.words_for(70)
        assert table.shape == (140, 2 * w + 1)
        assert table[:, 2 * w].tolist() == (
            np.count_nonzero(xs & zs, axis=0) & 1
        ).tolist()
        assert np.array_equal(y_counts(table), np.count_nonzero(xs & zs, axis=0))

    @pytest.mark.parametrize("n_qubits", [6, 64, 65])
    def test_entry_then_exit_leaves_phases_and_bits(self, n_qubits):
        rng = np.random.default_rng(n_qubits)
        sim = SymPhaseSimulator.from_circuit(mixed_circuit(rng, n_qubits, 40))
        # Mixed circuits end in a full Z measurement; this layer turns
        # every generator with Z on qubit 0 into one with two or more Y's.
        qubits = " ".join(map(str, range(n_qubits)))
        sim.run(Circuit.from_text(f"H {qubits}\nCX 0 1\nS {qubits}"))
        words, xs, zs = sim.phases.words.copy(), sim.xs.copy(), sim.zs.copy()
        table = sim._enter_segment()
        converted = sim.phases.words.copy()
        sim._leave_segment(table)
        assert np.array_equal(sim.phases.words, words)
        assert np.array_equal(sim.xs, xs) and np.array_equal(sim.zs, zs)
        # Entry really converts: the constants of rows with |x∧z| = 2, 3
        # (mod 4) flip and nothing else moves.
        flipped = y_bit1(xs[:, n_qubits:], zs[:, n_qubits:]).astype(np.uint64)
        assert np.any(flipped)
        assert np.array_equal(converted[:, 0] ^ words[:, 0], flipped)
        assert np.array_equal(converted[:, 1:], words[:, 1:])

    def test_corrupted_q_bit_fails_the_exit_check(self, monkeypatch):
        """The mutation check for the per-rowsum odd-exponent assertion it
        replaces: a q bit that no longer matches its row's bits (as an
        anticommuting product would leave it) is caught at segment exit."""
        collapse = SymPhaseSimulator._collapse

        def corrupting(sim, table, *args):
            vector = collapse(sim, table, *args)
            table[sim.n, -1] ^= np.uint64(1)
            return vector

        circuit = Circuit.from_text("H 0\nCX 0 1\nX_ERROR(0.1) 1\nM 1 0")
        SymPhaseSimulator.from_circuit(circuit)
        monkeypatch.setattr(SymPhaseSimulator, "_collapse", corrupting)
        with pytest.raises(AssertionError, match="odd i-exponent"):
            SymPhaseSimulator.from_circuit(circuit)
