"""Exact matrices for the elementary gate set, and their EO realizations.

Naming: X1/X2/Y1/Y2 are pi/2 rotations of the given spin about x or y;
a trailing "b" marks the inverse (X1b is the conjugate transpose of X1).
The primed rotations X1p/X2p/Y1p and double-primed X1pp/X2pp absorb the
z-precession phases left over by the conditional-phase evolutions; their
angles follow from the machine's fields (see derive_primed_angles).  "I"
is the equal-field Ising phase evolution, "Ip" the same evolution with
the machine's actual z-fields, and G the conditional phase shift
diag(e^-i pi/4, e^i pi/4, e^i pi/4, e^-i pi/4) at the heart of the
search iterate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import DEFAULT_MACHINE, EOParams, MachineConfig, diagonal_energies
from .operators import TWO_PI, embed, frozen_unitary, rotation

_BASE_ROTATIONS = {
    # name -> (spin, axis, direction, turns); angle = 2*pi*turns, and
    # direction -1 means the inverse rotation exp(-i angle S).
    "X1": (1, "x", +1, 0.25), "X2": (2, "x", +1, 0.25),
    "Y1": (1, "y", +1, 0.25), "Y2": (2, "y", +1, 0.25),
    "X1b": (1, "x", -1, 0.25), "X2b": (2, "x", -1, 0.25),
    "Y1b": (1, "y", -1, 0.25), "Y2b": (2, "y", -1, 0.25),
}

_PRIMED_AXES = {
    "X1p": (1, "x"), "X2p": (2, "x"), "Y1p": (1, "y"),
    "X1pp": (1, "x"), "X2pp": (2, "x"),
}

_ALIASES = {
    "X1'": "X1p", "X2'": "X2p", "Y1'": "Y1p",
    "X1''": "X1pp", "X2''": "X2pp", "I'": "Ip",
    "X1bar": "X1b", "X2bar": "X2b", "Y1bar": "Y1b", "Y2bar": "Y2b",
}

GATE_NAMES = tuple(_BASE_ROTATIONS) + tuple(_PRIMED_AXES) + ("I", "Ip", "G", "CNOT")


def canonical_name(name: str) -> str:
    name = name.strip()
    return _ALIASES.get(name, name)


def coupling_pi_duration(machine: MachineConfig = DEFAULT_MACHINE) -> float:
    """Duration (over 2*pi) for which tau * J = -pi."""
    if machine.coupling == 0:
        raise ConfigurationError(
            "machine coupling must be non-zero: without it no duration "
            "makes the conditional phase evolution")
    return -1.0 / (2.0 * machine.coupling)


@dataclass(frozen=True)
class PrimedAngles:
    """Rotation sizes, in turns, of the primed and double-primed gates.

    x1p drives X1p and Y1p (same angle, different axis); all five gates
    are inverse rotations by 2*pi*turns.  Values are reduced modulo 2
    turns, not 1: a spin-1/2 picks up a sign per full turn, and that sign
    is state-dependent phase the computations must get right.
    """

    x1p: float
    x2p: float
    x1pp: float
    x2pp: float

    def turns(self, name: str) -> float:
        return {"X1p": self.x1p, "Y1p": self.x1p, "X2p": self.x2p,
                "X1pp": self.x1pp, "X2pp": self.x2pp}[name]

    def field_amplitudes(self) -> dict[str, float]:
        """Equivalent transverse field amplitudes at unit duration.

        An EO of duration tau/2pi = 1 with this single static field
        realizes the gate (up to the negligible coupling term).
        """
        return {"X1p": -self.x1p, "X2p": -self.x2p, "Y1p": -self.x1p,
                "X1pp": -self.x1pp, "X2pp": -self.x2pp}


def derive_primed_angles(machine: MachineConfig = DEFAULT_MACHINE) -> PrimedAngles:
    """Angles that cancel the residual z-precession of the phase evolutions.

    With tau such that tau*J = -pi and compensating field h = -J/2, the
    leftover single-spin phases are exp(-i tau (h_jz - h) S_jz) for the
    equal-field construction and exp(-i tau h_jz S_jz) for the
    conditional-phase gate.  tau*h = pi/2 exactly, so in turns the
    required angles are (F*h_jz - 1/4) mod 2 and (F*h_jz) mod 2 where
    F = tau/2pi.  Full precision is kept: rounding these angles to four
    digits measurably corrupts the long runs.
    """
    if machine.coupling >= 0 or machine.h1z <= 0:
        raise ConfigurationError("machine must have negative coupling and positive h1z")
    f = coupling_pi_duration(machine)
    return PrimedAngles(
        x1p=(f * machine.h1z - 0.25) % 2.0,
        x2p=(f * machine.h2z - 0.25) % 2.0,
        x1pp=(f * machine.h1z) % 2.0,
        x2pp=(f * machine.h2z) % 2.0,
    )


def gate_rotation(name: str, machine: MachineConfig = DEFAULT_MACHINE):
    """(spin, axis, direction, turns) for any single-spin gate name."""
    name = canonical_name(name)
    if name in _BASE_ROTATIONS:
        return _BASE_ROTATIONS[name]
    if name in _PRIMED_AXES:
        spin, axis = _PRIMED_AXES[name]
        return spin, axis, -1, derive_primed_angles(machine).turns(name)
    raise ConfigurationError(f"{name!r} is not a single-spin rotation gate")


def phase_gate(phi0: float, phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """diag(e^i phi0, e^i phi1, e^i phi2, e^i phi3)."""
    return np.diag(np.exp(1j * np.array([phi0, phi1, phi2, phi3])))


def _diagonal_gate(machine: MachineConfig, h1z: float, h2z: float) -> np.ndarray:
    tau = TWO_PI * coupling_pi_duration(machine)
    return np.diag(np.exp(-1j * tau * diagonal_energies(machine.coupling, h1z, h2z)))


@dataclass(frozen=True)
class IdealGate:
    name: str
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen_unitary(self.matrix))


def ideal_gate(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> IdealGate:
    """The exact unitary for a named gate (memoized; aliases share one entry)."""
    return _ideal_gate(canonical_name(name), machine)


@lru_cache(maxsize=1024)
def _ideal_gate(cname: str, machine: MachineConfig) -> IdealGate:
    if cname in _BASE_ROTATIONS or cname in _PRIMED_AXES:
        spin, axis, direction, turns = gate_rotation(cname, machine)
        m = embed(spin, rotation(axis, direction * TWO_PI * turns))
    elif cname == "I":
        h = -machine.coupling / 2.0
        m = _diagonal_gate(machine, h, h)
    elif cname == "Ip":
        m = _diagonal_gate(machine, machine.h1z, machine.h2z)
    elif cname == "G":
        m = phase_gate(-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4)
    elif cname == "CNOT":
        perm = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        m = np.exp(1j * np.pi / 4) * perm
    else:
        raise ConfigurationError(f"unknown gate name {cname!r}")
    return IdealGate(cname, m)


def compose(sequence, machine: MachineConfig = DEFAULT_MACHINE) -> np.ndarray:
    """Matrix product of gates written left to right; the rightmost acts first.

    Items may be gate names or explicit 4x4 matrices.
    """
    items = list(sequence)
    if not items:
        raise ConfigurationError("empty gate sequence")
    out = np.eye(4, dtype=complex)
    for item in items:
        m = item if isinstance(item, np.ndarray) else ideal_gate(item, machine).matrix
        out = out @ m
    return out


def ideal_eo_params(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> EOParams:
    """The idealized-hardware EO realizing a gate.

    pi/2 rotations use a unit field for a quarter period; primed gates a
    reduced field for one full period; the phase evolutions run for
    tau/2pi = -1/(2J) with the appropriate z-fields.  The coupling stays
    on throughout (its effect during the short rotations is ~1e-7).
    The step hint is one period per substep.
    """
    cname = canonical_name(name)
    j = machine.coupling
    if cname in _BASE_ROTATIONS:
        spin, axis, direction, turns = _BASE_ROTATIONS[cname]
        field = {f"h{spin}{axis}": float(direction)}
        return EOParams(label=cname, tau=0.25, j=j, delta=1.0, **field)
    if cname in _PRIMED_AXES:
        spin, axis, direction, turns = gate_rotation(cname, machine)
        field = {f"h{spin}{axis}": direction * turns}
        return EOParams(label=cname, tau=1.0, j=j, delta=1.0, **field)
    if cname == "I":
        h = -j / 2.0
        return EOParams(label="I", tau=coupling_pi_duration(machine), j=j,
                        h1z=h, h2z=h, delta=1.0)
    if cname in ("Ip", "G"):
        # The printed parameter set for G is its diagonal core, identical
        # to Ip; the full conditional phase gate additionally needs the
        # double-primed rotations (see the program builders).
        return EOParams(label=cname, tau=coupling_pi_duration(machine), j=j,
                        h1z=machine.h1z, h2z=machine.h2z, delta=1.0)
    raise ConfigurationError(f"no EO realization for gate {name!r}")
