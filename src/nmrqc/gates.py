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

A gate has one name, spelled as in GATE_NAMES (check_gate); any other
value, a padded or otherwise respelled name included, is refused before
any table or memo is read.  Each public function is a thin check of its
gate name and machine (``hamiltonian.check_machine``) in front of a
private one that reads checked values: _pi_duration, _primed_turns,
_rotation, _ideal_gate (a memo) and _ideal_eo.  A program builder's
gate steps call the private ones on the values the builder checked.
"""
from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, check_choice, shown
from .hamiltonian import (DEFAULT_MACHINE, EOParams, MachineConfig, check_machine,
                          diagonal_energies, new_eo)
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

GATE_NAMES = tuple(_ROTATIONS) + ("I", "Ip", "G", "CNOT")

# The name of a gate, which must be one of GATE_NAMES as spelled there;
# check_choice scans the tuple, so an unhashable value is refused too.
check_gate = partial(check_choice, name="gate", domain=GATE_NAMES)


def coupling_pi_duration(machine: MachineConfig = DEFAULT_MACHINE) -> float:
    """Duration (over 2*pi) for which tau * J = -pi."""
    return _pi_duration(check_machine(machine))


def _pi_duration(machine: MachineConfig) -> float:
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
    return _primed_turns(check_machine(machine))


def _primed_turns(machine: MachineConfig) -> dict[str, float]:
    if machine.coupling >= 0 or machine.h1z <= 0:
        raise ConfigurationError("machine must have negative coupling and positive h1z")
    f = _pi_duration(machine)
    x1p = (f * machine.h1z - 0.25) % 2.0
    return {"X1p": x1p, "Y1p": x1p, "X2p": (f * machine.h2z - 0.25) % 2.0,
            "X1pp": (f * machine.h1z) % 2.0, "X2pp": (f * machine.h2z) % 2.0}


def gate_rotation(name: str, machine: MachineConfig = DEFAULT_MACHINE):
    """(spin, axis, direction, turns) of a single-spin rotation gate."""
    if check_gate(name) not in _ROTATIONS:
        raise ConfigurationError(f"{name!r} is not a single-spin rotation gate")
    return _rotation(name, check_machine(machine))


def _rotation(name: str, machine: MachineConfig):
    spin, axis, direction, turns = _ROTATIONS[name]
    return spin, axis, direction, _primed_turns(machine)[name] if turns is None else turns


def phase_gate(phi0: float, phi1: float, phi2: float, phi3: float) -> np.ndarray:
    """diag(e^i phi0, e^i phi1, e^i phi2, e^i phi3)."""
    return np.diag(np.exp(1j * np.array([phi0, phi1, phi2, phi3])))


def ideal_gate(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> np.ndarray:
    """The exact unitary for a named gate, read-only (memoized)."""
    return _ideal_gate(check_gate(name), check_machine(machine))


@lru_cache(maxsize=1024)
def _ideal_gate(name: str, machine: MachineConfig) -> np.ndarray:
    if name in _ROTATIONS:
        spin, axis, direction, turns = _rotation(name, machine)
        m = embed(spin, rotation(axis, direction * TWO_PI * turns))
    elif name == "G":
        m = phase_gate(-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4)
    elif name == "CNOT":
        perm = np.array([[1, 0, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)
        m = np.exp(1j * np.pi / 4) * perm
    else:   # I or Ip
        tau = TWO_PI * _pi_duration(machine)
        energies = diagonal_energies(machine.coupling, *_z_fields(machine)[name])
        m = np.diag(np.exp(-1j * tau * energies))
    return frozen_unitary(m)


def compose(sequence, machine: MachineConfig = DEFAULT_MACHINE) -> np.ndarray:
    """Matrix product of gates written left to right; the rightmost acts first.

    Items may be gate names or explicit 4x4 matrices; a bare string is no
    sequence of gates, as in build_program.
    """
    items = [] if isinstance(sequence, str) else list(sequence)
    if not items:
        raise ConfigurationError(f"gates must be a non-empty list, got {shown(sequence)}")
    out = np.eye(4, dtype=complex)
    for item in items:
        m = item if isinstance(item, np.ndarray) else ideal_gate(item, machine)
        out = out @ m
    return out


def ideal_eo_params(name: str, machine: MachineConfig = DEFAULT_MACHINE) -> EOParams:
    """The idealized-hardware EO realizing a gate: every gate but CNOT.

    A rotation is one transverse field, direction*turns/tau, for tau = 1/4
    (a base gate: a unit field) or 1 (a primed gate, whose name ends in
    "p": a reduced field for one full period).  A phase evolution runs for
    tau/2pi = -1/(2J) at its z-fields (_z_fields), G at none, so that its
    diagonal propagator is G to rounding.  The coupling stays on throughout
    (its effect during the short rotations is ~1e-7).  The step hint is
    one period per substep.
    """
    if check_gate(name) == "CNOT":
        raise ConfigurationError("no EO realization for gate 'CNOT'")
    return _ideal_eo(name, check_machine(machine))


def _ideal_eo(name: str, machine: MachineConfig) -> EOParams:
    if name in _ROTATIONS:
        spin, axis, direction, turns = _rotation(name, machine)
        tau = 1.0 if name.endswith("p") else 0.25
        return new_eo(label=name, tau=tau, j=machine.coupling, delta=1.0,
                      **{f"h{spin}{axis}": direction * turns / tau})
    h1z, h2z = _z_fields(machine)[name]
    return new_eo(label=name, tau=_pi_duration(machine), j=machine.coupling,
                  h1z=h1z, h2z=h2z, delta=1.0)
