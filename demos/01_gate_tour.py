"""Tour of the ideal gate set and the controlled-NOT construction.

The controlled-NOT is built from pi/2 rotations of spin 2 sandwiched
around an Ising phase evolution: Y2b I Y2.  On idealized hardware the
construction is exact, five CNOTs reduce to one, and the singlet-input
test returns a definite answer.
"""
import numpy as np

from nmrqc import (build_cnot, build_qa, compose, ideal_gate, input_amplitudes,
                   program_unitary, readout, run_program)

np.set_printoptions(precision=3, suppress=True, linewidth=100)

print("pi/2 rotation of spin 1 about x (4x4, block diagonal in spin 2):")
print(ideal_gate("X1"))

print("\nY2b I Y2 composes to the controlled-NOT (times a global phase):")
print(compose(["Y2b", "I", "Y2"]))

print("\ntruth table of the composed gate:")
inputs = ("00", "10", "01", "11")
outputs = input_amplitudes(inputs) @ ideal_gate("CNOT").T  # one row per input
for bits, (a, b) in zip(inputs, readout(outputs)):
    print(f"  |{bits}> -> |{int(a > 0.5)}{int(b > 0.5)}>")

print("\nthe three hardware decompositions agree on idealized hardware:")
for variant in (1, 2, 3):
    u = program_unitary(build_cnot(variant, "ideal"))
    dev = np.max(np.abs(np.abs(u) - np.abs(ideal_gate("CNOT"))))
    print(f"  CNOT{variant}: max |element| deviation from exact gate {dev:.2e}")

print("\nfive CNOTs on the singlet, then a pi/2 readout rotation of spin 1:")
out = run_program(build_qa("QA2", "singlet", style="ideal"))
[(a, b)] = readout(out[None])
print(f"  qubit expectations (a, b) = ({a:.4f}, {b:.4f})  [ideal answer (1, 1)]")
