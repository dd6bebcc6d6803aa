"""Integrator validation: exact unitarity and second-order convergence.

The product-formula stepper is exactly unitary at any step size and its
deviation from the dense-exponential reference falls by 4x per step
halving (100x per tenfold refinement).  At the working step of 0.01
periods the answers are already converged to well past two digits.
A step size is a field of the EO (``eo.replace(delta=d)``); the
reference is ``oracle_propagator``, which is never stored.
"""
import numpy as np

from nmrqc import (build_qa, convergence_report, design_pulse, eo_propagator,
                   oracle_propagator)
from nmrqc.gates import gate_rotation
from nmrqc.operators import TWO_PI, max_unitarity_defect

spin, axis, d, turns = gate_rotation("Y1")
eo = design_pulse(spin, TWO_PI * turns, axis, k=1, direction=d, label="Y1")

# A defect below the bound is rounding noise, so only the bound is printed.
UNITARITY_BOUND = 1e-14

print("product formula vs dense midpoint reference (Y1 pulse, t/2pi = 8):")
ref = oracle_propagator(eo.replace(delta=0.0005))
prev = None
for delta in (0.08, 0.04, 0.02, 0.01):
    u = eo_propagator(eo.replace(delta=delta))
    dev = np.max(np.abs(u - ref))
    defect = max_unitarity_defect(u)
    unitary = (f"< {UNITARITY_BOUND:g}" if defect < UNITARITY_BOUND
               else f"{defect:.1e}, over {UNITARITY_BOUND:g}")
    ratio = f"  ({prev / dev:.2f}x down)" if prev else ""
    print(f"  delta = {delta:5g}: deviation {dev:.3e}, "
          f"unitarity defect {unitary}{ratio}")
    prev = dev

print("\nstep-size independence of a full program (five CNOTs + readout")
print("on the singlet, shortest pulses):")
qa2 = build_qa("singlet", style="rotating_sf", k=1)
report = convergence_report(qa2.steps, "singlet", deltas=[0.1, 0.01, 0.001])
print(report)
