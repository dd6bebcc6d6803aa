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

Two tables decide every gate but CNOT.  gate_rotation gives (spin,
axis, direction, turns) for every rotation, base or primed, and
_z_fields gives (h1z, h2z) for every phase evolution: I at -J/2 on both
spins, Ip at the machine's own fields, G at none.  The exact matrices
(ideal_gate), the idealized-hardware EOs (ideal_eo_params) and the
designed pulses (programs) all read these two tables; only G's matrix
is written out, as the exact phase gate its z-fields give to rounding.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import DEFAULT_MACHINE, EOParams, MachineConfig, diagonal_energies
from .operators import TWO_PI, embed, frozen_unitary, rotation

_ROTATIONS = {
    # name -> (spin, axis, direction, turns); angle = 2*pi*turns, and
    # direction -1 means the inverse rotation exp(-i angle S).  A primed
    # gate's turns (None here) follow from the machine's fields.
    "X1": (1, "x", +1, 0.25), "X2": (2, "x", +1, 0.25),
    "Y1": (1, "y", +1, 0.25), "Y2": (2, "y", +1, 0.25),
    "X1b": (1, "x", -1, 0.25), "X2b": (2, "x", -1, 0.25),
    "Y1b": (1, "y", -1, 0.25), "Y2b": (2, "y", -1, 0.25),
    "X1p": (1, "x", -1, None), "X2p": (2, "x", -1, None),
    "Y1p": (1, "y", -1, None), "X1pp": (1, "x", -1, None),
    "X2pp": (2, "x", -1, None),
}

_ALIASES = {
    "X1'": "X1p", "X2'": "X2p", "Y1'": "Y1p",
    "X1''": "X1pp", "X2''": "X2pp", "I'": "Ip",
    "X1bar": "X1b", "X2bar": "X2b", "Y1bar": "Y1b", "Y2bar": "Y2b",
}

GATE_NAMES = tuple(_ROTATIONS) + ("I", "Ip", "G", "CNOT")


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


def _z_fields(machine: MachineConfig) -> dict[str, tuple[float, float]]:
    """(h1z, h2z) of each phase evolution, each tau/2pi = -1/(2J) long."""
    h = -machine.coupling / 2.0
    return {"I": (h, h), "Ip": (machine.h1z, machine.h2z), "G": (0.0, 0.0)}


def derive_primed_angles(machine: MachineConfig = DEFAULT_MACHINE) -> dict[str, float]:
    """Turns of each primed and double-primed gate, by name.

    They cancel the residual z-precession of the phase evolutions.  With
    tau such that tau*J = -pi and compensating field h = -J/2, the
    leftover single-spin phases are exp(-i tau (h_jz - h) S_jz) for the
    equal-field construction and exp(-i tau h_jz S_jz) for the
    conditional-phase gate.  tau*h = pi/2 exactly, so in turns the
    required angles are (F*h_jz - 1/4) mod 2 and (F*h_jz) mod 2 where
    F = tau/2pi; X1p and Y1p share one angle about different axes, and
    all five gates are inverse rotations.  The angles are reduced modulo
    2 turns, not 1: a spin-1/2 picks up a sign per full turn, and that
    sign is state-dependent phase the computations must get right.  Full
    precision is kept: rounding these angles to four digits measurably
    corrupts the long runs.
    """
    if machine.coupling >= 0 or machine.h1z <= 0:
        raise ConfigurationError("machine must have negative coupling and positive h1z")
    f = coupling_pi_duration(machine)
    x1p = (f * machine.h1z - 0.25) % 2.0
    return {"X1p": x1p, "Y1p": x1p, "X2p": (f * machine.h2z - 0.25) % 2.0,
            "X1pp": (f * machine.h1z) % 2.0, "X2pp": (f * machine.h2z) % 2.0}


def gate_rotation(name: str, machine: MachineConfig = DEFAULT_MACHINE):
    """(spin, axis, direction, turns) for any single-spin gate name."""
    name = canonical_name(name)
    if name not in _ROTATIONS:
        raise ConfigurationError(f"{name!r} is not a single-spin rotation gate")
    spin, axis, direction, turns = _ROTATIONS[name]
    if turns is None:
        turns = derive_primed_angles(machine)[name]
    return spin, axis, direction, turns


def phase_gate(phi0: float, phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """diag(e^i phi0, e^i phi1, e^i phi2, e^i phi3)."""
    return np.diag(np.exp(1j * np.array([phi0, phi1, phi2, phi3])))


def ideal_gate(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> np.ndarray:
    """The exact unitary for a named gate, read-only (memoized; aliases
    share one entry and so return the same array)."""
    return _ideal_gate(canonical_name(name), machine)


@lru_cache(maxsize=1024)
def _ideal_gate(cname: str, machine: MachineConfig) -> np.ndarray:
    z_fields = _z_fields(machine)
    if cname in _ROTATIONS:
        spin, axis, direction, turns = gate_rotation(cname, machine)
        m = embed(spin, rotation(axis, direction * TWO_PI * turns))
    elif cname == "G":
        m = phase_gate(-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4)
    elif cname in z_fields:
        tau = TWO_PI * coupling_pi_duration(machine)
        energies = diagonal_energies(machine.coupling, *z_fields[cname])
        m = np.diag(np.exp(-1j * tau * energies))
    elif cname == "CNOT":
        perm = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        m = np.exp(1j * np.pi / 4) * perm
    else:
        raise ConfigurationError(f"unknown gate name {cname!r}")
    return frozen_unitary(m)


def compose(sequence, machine: MachineConfig = DEFAULT_MACHINE) -> np.ndarray:
    """Matrix product of gates written left to right; the rightmost acts first.

    Items may be gate names or explicit 4x4 matrices.
    """
    items = list(sequence)
    if not items:
        raise ConfigurationError("empty gate sequence")
    out = np.eye(4, dtype=complex)
    for item in items:
        m = item if isinstance(item, np.ndarray) else ideal_gate(item, machine)
        out = out @ m
    return out


def ideal_eo_params(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> EOParams:
    """The idealized-hardware EO realizing a gate.

    A rotation is one transverse field, direction*turns/tau, for tau = 1/4
    (a base gate: a unit field) or 1 (a primed gate, whose name ends in
    "p": a reduced field for one full period).  A phase evolution runs for
    tau/2pi = -1/(2J) at its z-fields (_z_fields), G at none, so that its
    diagonal propagator is G to rounding.  The coupling stays on throughout
    (its effect during the short rotations is ~1e-7).  The step hint is
    one period per substep.
    """
    cname = canonical_name(name)
    if cname in _ROTATIONS:
        spin, axis, direction, turns = gate_rotation(cname, machine)
        tau = 1.0 if cname.endswith("p") else 0.25
        return EOParams(label=cname, tau=tau, j=machine.coupling, delta=1.0,
                        **{f"h{spin}{axis}": direction * turns / tau})
    fields = _z_fields(machine).get(cname)
    if fields is None:
        raise ConfigurationError(f"no EO realization for gate {name!r}")
    return EOParams(label=cname, tau=coupling_pi_duration(machine), j=machine.coupling,
                    h1z=fields[0], h2z=fields[1], delta=1.0)
