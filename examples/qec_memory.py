"""QEC memory experiments: the workload the paper's introduction motivates.

Samples repetition-code and surface-code memory circuits at several noise
strengths, showing (a) mid-circuit detector rates, (b) decoded logical
error rates for the repetition code (majority vote), and (c) that one
compiled sampler serves every batch without re-traversing the circuit.

Run:  python examples/qec_memory.py
"""

import numpy as np

from repro.qec import repetition_code_memory, surface_code_memory

SHOTS = 20_000
rng = np.random.default_rng(0)

# ------------------------------------------------ repetition code sweep --
# Any registered backend serves this loop unchanged — swap "frame" for
# "symbolic" (or "tableau" at tiny sizes) to trade compile/sampling cost.
print("repetition code memory: majority-vote logical error rate")
print(f"{'p':>8} {'d=3':>10} {'d=5':>10} {'d=7':>10}")
for p in (0.01, 0.03, 0.05, 0.10):
    row = []
    for d in (3, 5, 7):
        circuit = repetition_code_memory(
            d, rounds=3, data_flip_probability=p
        )
        records = circuit.compile(sampler="frame").sample(SHOTS, rng)
        data = records[:, -d:]  # final transversal data readout
        logical = (data.sum(axis=1) > d // 2).astype(np.uint8)
        row.append(logical.mean())
    print(f"{p:>8} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>10.4f}")
print("(higher distance suppresses the logical error rate below threshold)")

# ------------------------------------------------- surface code detectors --
print("\nsurface code memory: detector fire rate and sampler stats")
print(f"{'d':>4} {'rounds':>7} {'symbols':>8} {'avg|m|':>7} "
      f"{'strategy':>9} {'det rate':>9}")
for d in (3, 5):
    circuit = surface_code_memory(
        d, rounds=d,
        after_clifford_depolarization=0.005,
        before_measure_flip_probability=0.005,
    )
    compiled = circuit.compile()  # symbolic backend by default
    sampler = compiled.sampler
    detectors, observables = compiled.detect(SHOTS, rng)
    print(f"{d:>4} {d:>7} {sampler.symbols.n_symbols:>8} "
          f"{sampler.average_support():>7.1f} "
          f"{sampler.detector_strategy(SHOTS):>9} {detectors.mean():>9.4f}")

print("\nNote the small average measurement support |m|: QEC circuits are")
print("the sparse regime where Table 1's O(n_smp * n_m) sampling applies.")
