"""Walkthrough of the paper's Fig. 1 and §3.1 examples.

Shows phase symbolization at work: Pauli faults accumulate as symbolic
expressions in the stabilizer phases, and measurement outcomes become
GF(2) expressions over the fault symbols.

Run:  python examples/fig1_walkthrough.py
"""

import numpy as np

from repro import Circuit, SymPhaseSimulator


def show_tableau(sim: SymPhaseSimulator, title: str) -> None:
    print(f"\n{title}")
    n = sim.n
    for i in range(n):
        row = n + i  # stabilizer half
        pauli = "".join(
            "IXZY"[int(x) + 2 * int(z)]
            for x, z in zip(sim.xs[:, row], sim.zs[:, row])
        )
        support = sim.phases.row_support(row)
        phase = " ^ ".join(sim.symbols.label(int(s)) for s in support) or "0"
        print(f"  (-1)^({phase})  {pauli}")


# --- Fig. 1: GHZ preparation with one Z fault and three X faults ---------
print("=" * 64)
print("Fig. 1: faults accumulate in stabilizer phases")
print("=" * 64)

prep = Circuit.from_text("""
    H 0
    CNOT 0 1
    CNOT 1 2
    CNOT 2 3
""")
sim = SymPhaseSimulator.from_circuit(prep)
show_tableau(sim, "|psi1> after GHZ preparation (no faults yet):")

faults = Circuit.from_text("""
    Z_ERROR(0.5) 0
    X_ERROR(0.5) 1
    X_ERROR(0.5) 2
    X_ERROR(0.5) 3
""")
sim.run(faults)
show_tableau(sim, "|psi2> after Z^s1 X^s2 X^s3 X^s4 (paper's phase table):")

# --- §3.1: the 2-qubit worked example ------------------------------------
print()
print("=" * 64)
print("§3.1: measurement outcomes as symbolic expressions")
print("=" * 64)

circuit = Circuit.from_text("""
    H 0
    CNOT 0 1
    X_ERROR(0.5) 0
    X_ERROR(0.5) 1
    M 0 1
""")
sim = SymPhaseSimulator.from_circuit(circuit)
print("\ncircuit:")
print("  |0> -H-.--X^s1--M   ")
print("  |0> ---X--X^s2--M   ")
print("\nsymbolic outcomes (s3 is the collapse coin of the first M):")
for k in range(sim.num_measurements):
    print(f"  m{k + 1} = {sim.measurement_expression(k)}")

print("\nsubstituting concrete fault values reproduces concrete runs:")
from repro.core import concrete_replay, substituted_record

for s1 in (0, 1):
    for s2 in (0, 1):
        assignment = np.array([1, s1, s2, 0], dtype=np.uint8)  # coin = 0
        symbolic = substituted_record(sim, assignment)
        concrete = concrete_replay(circuit, sim, assignment)
        status = "ok" if np.array_equal(symbolic, concrete) else "MISMATCH"
        print(f"  s1={s1} s2={s2} coin=0 ->  m = {symbolic}   [{status}]")
