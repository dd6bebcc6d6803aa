"""Designing resonant field pulses for single-spin rotations.

A pulse must rotate its target by the requested angle while returning
the spectator spin to where it started and freezing all bare precession
phases.  With the field ratio gamma = N/M those conditions pin the
duration to 2kMN^2 (spin 1) or 2kM^3 (spin 2) field periods; accuracy
is bought with longer pulses (larger k).
"""
from fractions import Fraction

import numpy as np

from nmrqc import (RationalGamma, commensurability_check_n,
                   commensurability_margin, design_pulse,
                   hypothetical_durations, spectator_residual)
from nmrqc.gates import gate_rotation
from nmrqc.operators import TWO_PI


def verdict(margin):
    """This demo's label for how far a margin is from "much greater than
    one": poor below 50, marginal below 500, good from 500 on."""
    return "poor" if margin < 50 else "marginal" if margin < 500 else "good"


print("parameter sheet for every gate pulse at k=1 (rotating fields):")
print("gate  | t/2pi | omega | sf1x        sf2x        phi_x  | sf1y        sf2y        phi_y")
for name in ("X1", "X2", "Y1", "Y2", "X1p", "X2p", "Y1p", "X1pp", "X2pp"):
    spin, axis, direction, turns = gate_rotation(name)
    eo = design_pulse(spin, TWO_PI * turns, axis, k=1, direction=direction)
    print(f"{name:5s} | {eo.tau:5g} | {eo.omega:5.2f} | "
          f"{eo.sf1x:+.7f}  {eo.sf2x:+.7f}  {eo.phi_x / np.pi:+.2f}pi | "
          f"{eo.sf1y:+.7f}  {eo.sf2y:+.7f}  {eo.phi_y / np.pi:+.2f}pi")

print("\nsingle-axis variant carries double amplitude on one channel:")
for name in ("X1", "Y2"):
    spin, axis, direction, turns = gate_rotation(name)
    eo = design_pulse(spin, TWO_PI * turns, axis, k=1, mode="static_axis",
                      direction=direction)
    print(f"  {name}: sf1x={eo.sf1x:+.7f} sf1y={eo.sf1y:+.7f} "
          f"sf2x={eo.sf2x:+.7f} sf2y={eo.sf2y:+.7f}")

print("\naccuracy margin 2kNM(M-N) and spectator residual vs k (gamma=1/4):")
for k in (1, 2, 4, 8, 16, 32):
    margin = commensurability_margin(RationalGamma(1, 4), k)
    eo = design_pulse(1, np.pi / 2, "y", k=k)
    print(f"  k={k:2d}: margin {margin:5d} ({verdict(margin):8s}) "
          f"spectator residual {spectator_residual(eo):.2e}")

print("\na finer rational gamma costs much longer pulses:")
g = RationalGamma(11, 40)
margin = commensurability_margin(g, 1)
t1, t2 = hypothetical_durations(g, 1)
print(f"  gamma = 11/40: margin {margin} ({verdict(margin)}), "
      f"durations t1/2pi = {t1}, t2/2pi = {t2}")

print("\nprecession frequencies must be commensurate; the smallest common")
print("schedule multiplier for frequencies (1, 1/4, 1/3):")
frequencies = [1, Fraction(1, 4), Fraction(1, 3)]
for spin, f in enumerate(frequencies[1:], start=2):
    ratio = f / frequencies[0]
    print(f"  spin {spin}: ratio {ratio}, k1 must be a multiple of {ratio.denominator}")
print(f"  => k1 = {commensurability_check_n(frequencies)}")
