"""Published benchmark values the emulator is expected to reproduce.

Result cells are two-decimal (a, b) qubit expectations; the comparison
tolerance is +-0.01 (the precision of the published numbers) except for
the duration-perturbation study, where phase-sensitive cells get +-0.02.

A handful of published cells are internally inconsistent (they violate
either the hardware's field-ratio constraint, the tables' own symmetry,
or agreement with the unperturbed reference column).  Those cells are
recorded verbatim but marked SUSPECT_* with the value the constraint
forces; comparisons exclude them and report the substitution.
"""
from __future__ import annotations

S_VALUES = (8, 16, 32, 64, 256)

# ----------------------------------------------------------------------
# Controlled-NOT truth table: input -> (output bits, a, b)
CNOT_TRUTH = {
    "00": ("00", 0.0, 0.0),
    "10": ("11", 1.0, 1.0),
    "01": ("01", 0.0, 1.0),
    "11": ("10", 1.0, 0.0),
}

# ----------------------------------------------------------------------
# Idealized-hardware EO parameters, as printed (4 decimals).  Stored as
# {gate: (tau_over_2pi, field_name, value)}; the phase evolutions are
# checked separately.  The Y1p entry is recorded with the sign that
# makes the third CNOT construction work; the published sheet lists the
# opposite sign, which breaks it (see notes in the test suite).
IDEAL_EO_FIELDS = {
    "X1": (0.25, "h1x", 1.0),
    "X2": (0.25, "h2x", 1.0),
    "Y1": (0.25, "h1y", 1.0),
    "Y2": (0.25, "h2y", 1.0),
    "X1p": (1.0, "h1x", -0.4477),
    "X2p": (1.0, "h2x", -1.4244),
    "Y1p": (1.0, "h1y", -0.4477),
    "X1pp": (1.0, "h1x", -0.6977),
    "X2pp": (1.0, "h2x", -1.6744),
}

IP_DURATION = 1162790.6977  # tau/2pi making tau*J = -pi, 4-decimal print

# ----------------------------------------------------------------------
# Pulse parameter sheets for k=1 (s=8): {gate: row}.
# Rotating rows: (t_over_2pi, omega, sf1x, sf2x, phi_x_turns, sf1y, sf2y,
# phi_y_turns) with phases as multiples of pi.
# Static rows:   (t_over_2pi, omega, sf1x, sf2x, sf1y, sf2y).
#
# SUSPECT cells: four published spin-2 amplitudes violate the hardware
# constraint sf2 = gamma*sf1 that every other row satisfies (and that
# the static sheet satisfies everywhere); the constraint-consistent
# values are stored alongside.
ROTATING_PULSES_K1 = {
    "X1":   (8, 1.00, -0.0312500, -0.0078125, -0.5, -0.0312500, -0.0078125, 0.0),
    "X2":   (128, 0.25, -0.0078125, -0.0039063, -0.5, -0.0078125, -0.0039063, 0.0),
    "Y1":   (8, 1.00, 0.0312500, 0.0156250, 0.0, 0.0312500, 0.0156250, 0.5),
    "Y2":   (128, 0.25, 0.0078125, 0.0039063, 0.0, 0.0078125, 0.0039063, 0.5),
    "X1p":  (8, 1.00, 0.0559593, 0.0139898, -0.5, 0.0559593, 0.0139898, 0.0),
    "X2p":  (128, 0.25, 0.0445131, 0.0111283, -0.5, 0.0445131, 0.0111283, 0.0),
    "Y1p":  (8, 1.00, -0.0559593, -0.0139898, 0.0, -0.0559593, -0.0139898, 0.5),
    "X1pp": (8, 1.00, 0.0872093, 0.0218023, -0.5, 0.0872093, 0.0218023, 0.0),
    "X2pp": (128, 0.25, 0.0523256, 0.0130914, -0.5, 0.0523256, 0.0130914, 0.0),
}

# gate -> constraint-consistent spin-2 amplitude replacing the printed one
SUSPECT_ROTATING_SPIN2 = {
    "Y1": 0.0078125,     # printed 0.0156250 (= 2 gamma * sf1)
    "X2": -0.0019531,    # printed -0.0039063 (static-sheet value, unhalved)
    "Y2": 0.0019531,     # printed 0.0039063
    "X2pp": 0.0130814,   # printed 0.0130914 (digit slip; static sheet has 2x this)
}

STATIC_PULSES_K1 = {
    "X1":   (8, 1.00, 0.0, 0.0, -0.0625000, -0.0156250),
    "X2":   (128, 0.25, 0.0, 0.0, -0.0156250, -0.0039063),
    "Y1":   (8, 1.00, 0.0625000, 0.0156250, 0.0, 0.0),
    "Y2":   (128, 0.25, 0.0156250, 0.0039063, 0.0, 0.0),
    "X1p":  (8, 1.00, 0.0, 0.0, 0.1119186, 0.0279796),
    "X2p":  (128, 0.25, 0.0, 0.0, 0.0890262, 0.0222565),
    "Y1p":  (8, 1.00, -0.1119186, -0.0279796, 0.0, 0.0),
    "X1pp": (8, 1.00, 0.0, 0.0, 0.1744186, 0.0436046),
    "X2pp": (128, 0.25, 0.0, 0.0, 0.1046512, 0.0261628),
}

# ----------------------------------------------------------------------
# Five-fold CNOT suites: {input: (ideal, [cells for s in S_VALUES])}.
QA_ROTATING_CNOT1 = {
    "00": ((0.00, 0.00), [(0.00, 0.00)] * 5),
    "10": ((1.00, 1.00), [(1.00, 1.00)] * 5),
    "01": ((0.00, 1.00), [(0.00, 1.00)] * 5),
    "11": ((1.00, 0.00), [(1.00, 0.00)] * 5),
    "singlet": ((1.00, 1.00), [(0.90, 1.00), (0.03, 1.00), (0.58, 1.00),
                               (0.88, 1.00), (0.99, 1.00)]),
}

QA_ROTATING_CNOT2 = {
    "00": ((0.00, 0.00), [(0.24, 0.76), (0.50, 0.26), (0.20, 0.07),
                          (0.06, 0.02), (0.00, 0.00)]),
    "10": ((1.00, 1.00), [(0.76, 0.24), (0.50, 0.74), (0.80, 0.93),
                          (0.95, 0.98), (1.00, 1.00)]),
    "01": ((0.00, 1.00), [(0.24, 0.24), (0.51, 0.74), (0.20, 0.93),
                          (0.06, 0.98), (0.00, 1.00)]),
    "11": ((1.00, 0.00), [(0.76, 0.76), (0.50, 0.26), (0.80, 0.07),
                          (0.95, 0.02), (1.00, 0.00)]),
    "singlet": ((1.00, 1.00), [(0.98, 0.24), (0.95, 0.74), (0.98, 0.93),
                               (0.99, 0.98), (1.00, 1.00)]),
}

QA_ROTATING_CNOT3 = {
    "00": ((0.00, 0.00), [(0.23, 0.76), (0.50, 0.26), (0.20, 0.07),
                          (0.06, 0.02), (0.00, 0.00)]),
    "10": ((1.00, 1.00), [(0.77, 0.24), (0.50, 0.74), (0.80, 0.93),
                          (0.95, 0.98), (1.00, 1.00)]),
    "01": ((0.00, 1.00), [(0.23, 0.24), (0.51, 0.74), (0.20, 0.93),
                          (0.06, 0.98), (0.00, 1.00)]),
    "11": ((1.00, 0.00), [(0.77, 0.76), (0.50, 0.26), (0.80, 0.07),
                          (0.95, 0.02), (1.00, 0.00)]),
    "singlet": ((1.00, 1.00), [(0.79, 0.24), (0.55, 0.74), (0.82, 0.93),
                               (0.95, 0.98), (1.00, 1.00)]),
}

QA_STATIC_CNOT1 = {
    "00": ((0.00, 0.00), [(0.00, 0.03), (0.00, 0.01), (0.00, 0.00),
                          (0.00, 0.00), (0.00, 0.00)]),
    "10": ((1.00, 1.00), [(1.00, 1.00)] * 5),
    "01": ((0.00, 1.00), [(0.00, 0.97), (0.00, 0.99), (0.00, 1.00),
                          (0.00, 1.00), (0.00, 1.00)]),
    "11": ((1.00, 0.00), [(1.00, 0.00)] * 5),
    "singlet": ((1.00, 1.00), [(0.02, 0.98), (0.45, 1.00), (0.17, 1.00),
                               (0.70, 1.00), (0.98, 1.00)]),
}

# ----------------------------------------------------------------------
# Search suites: {item: (ideal, [cells for s in S_VALUES])}.
# The s=256 cells of items 1 and 3 are printed as each other's ideal
# rows ((1.00,1.00)/(1.00,0.00) instead of (1.00,0.00)/(1.00,1.00)); the
# s<=64 trend and the static sheet converge to the ideal answers, so the
# two cells are marked suspect (entry transposition) and excluded.
GROVER_ROTATING = {
    0: ((0.00, 0.00), [(0.48, 0.53), (0.15, 0.16), (0.04, 0.04),
                       (0.01, 0.01), (0.00, 0.00)]),
    1: ((1.00, 0.00), [(0.52, 0.50), (0.85, 0.15), (0.96, 0.04),
                       (0.99, 0.01), (1.00, 1.00)]),
    2: ((0.00, 1.00), [(0.55, 0.48), (0.15, 0.84), (0.04, 0.96),
                       (0.01, 0.99), (0.00, 1.00)]),
    3: ((1.00, 1.00), [(0.45, 0.50), (0.85, 0.85), (0.96, 0.96),
                       (0.99, 0.99), (1.00, 0.00)]),
}
SUSPECT_GROVER_ROTATING = {(1, 256), (3, 256)}

GROVER_STATIC = {
    0: ((0.00, 0.00), [(0.92, 0.91), (0.39, 0.35), (0.11, 0.10),
                       (0.03, 0.03), (0.00, 0.00)]),
    1: ((1.00, 0.00), [(0.09, 0.91), (0.61, 0.36), (0.89, 0.10),
                       (0.97, 0.03), (1.00, 1.00)]),
    2: ((0.00, 1.00), [(0.95, 0.10), (0.36, 0.65), (0.10, 0.90),
                       (0.03, 0.98), (0.00, 1.00)]),
    3: ((1.00, 1.00), [(0.05, 0.09), (0.64, 0.64), (0.90, 0.90),
                       (0.97, 0.97), (1.00, 0.00)]),
}
SUSPECT_GROVER_STATIC = {(1, 256), (3, 256)}

# ----------------------------------------------------------------------
# Duration sensitivity of the phase evolution (rotating pulses, s=256):
# {input: (ideal, [cells for each offset])} with offsets applied to the
# long diagonal evolution inside every CNOT.
PERTURBATION_OFFSETS = (-0.2, -0.1, 0.0, 0.1, 0.2)

DURATION_PERTURBATION = {
    "00": ((0.00, 0.00), [(0.00, 0.52), (0.00, 0.16), (0.00, 0.00),
                          (0.00, 0.13), (0.00, 0.48)]),
    "10": ((1.00, 1.00), [(1.00, 0.48), (1.00, 0.87), (1.00, 1.00),
                          (1.00, 0.84), (1.00, 0.48)]),
    "01": ((0.00, 1.00), [(0.00, 0.48), (0.00, 0.84), (0.00, 0.00),
                          (0.00, 0.87), (0.00, 0.52)]),
    "11": ((1.00, 0.00), [(1.00, 0.52), (1.00, 0.13), (1.00, 1.00),
                          (1.00, 0.16), (1.00, 0.52)]),
    "singlet": ((1.00, 1.00), [(0.99, 0.50), (0.09, 0.85), (0.99, 1.00),
                               (0.01, 0.85), (0.99, 0.50)]),
}

# Suspect perturbation cells, keyed (input, offset) -> (which component,
# forced value, reason).  Three independent internal checks flag them:
# the zero-offset column must equal the unperturbed suite (rows 01/11
# have their b entries transposed); the +-offset columns must mirror
# under 00<->01, 10<->11, which the +-0.1 columns obey and the -0.2
# column breaks for rows 10/11 (again a b transposition); and the
# singlet a-value must be symmetric in the offset sign because a +-0.1
# offset shifts the deciding relative phase by exactly pi (mod 2*pi)
# while sin^2 has period pi, forcing a(-0.1) = a(+0.1) = 0.01, not 0.09.
SUSPECT_PERTURBATION = {
    ("01", 0.0): ("b", 1.00, "zero-offset column must match the unperturbed suite"),
    ("11", 0.0): ("b", 0.00, "zero-offset column must match the unperturbed suite"),
    ("10", -0.2): ("b", 0.52, "offset-sign mirror symmetry (rows 10/11 transposed)"),
    ("11", -0.2): ("b", 0.48, "offset-sign mirror symmetry (rows 10/11 transposed)"),
    ("singlet", -0.1): ("a", 0.01, "pi-periodic phase shift forces a(-0.1)=a(+0.1)"),
}

# ----------------------------------------------------------------------
# Commensurability spot values.
MARGIN_CASES = {(1, 4, 1): 24, (11, 40, 1): 25520, (1, 4, 32): 768}
DURATION_CASES = {(11, 40, 1): (9680, 128000), (1, 4, 1): (8, 128),
                  (1, 4, 32): (256, 4096)}

RESULT_TOL = 0.01
PERTURBATION_TOL = 0.02
