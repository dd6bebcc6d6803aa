"""Database search on pulse hardware, and duration sensitivity.

First: the four-item search sequences, run with rotating-field pulses.
Entanglement is created mid-sequence, so accumulated phase errors hit
hard below s=32.

Second: the long conditional-phase evolution must be timed to about
eight digits.  Detuning its duration by one part in 10^7 (0.1 of a
period out of 1.16 million) visibly corrupts the answers; half of the
detunings only show up on the entangled input.
"""
from nmrqc import (build_grover, canned_spec, emit_table, readout, round2,
                   run_experiment, run_program)

print("four-item search, rotating-field pulses (ideal answer in brackets):")
for s, k in ((8, 1), (32, 4), (256, 32)):
    cells = []
    for item in range(4):
        p = build_grover(item, "rotating_sf", k=k)
        [(a, b)] = readout(run_program(p)[None])
        ia, ib = p.ideal_expectations
        cells.append(f"item{item} ({round2(a):.2f},{round2(b):.2f})"
                     f"[{ia:.0f},{ib:.0f}]")
    print(f"  s={s:3d}: " + "  ".join(cells))

print("\nduration sensitivity of the conditional-phase evolution (s=256):")
table = run_experiment(canned_spec("table10"))
print(emit_table(table, "markdown"))
print("\ncolumns are duration offsets in periods; +-0.1 flips the singlet")
print("answer while leaving every basis row's control qubit untouched.")
