"""The spin Hamiltonian and its per-operation parameterization.

The register evolves under

    H(t) = -J S1z S2z - sum_j,a  h_j^a S_j^a
           - (hx1~ S1x + hx2~ S2x) sin(w t + phi_x)
           - (hy1~ S1y + hy2~ S2y) sin(w t + phi_y)

with hbar = 1 and all fields measured in units of the spin-1 static
z-field.  A program is a sequence of elementary operations (EOs); within
one EO every parameter is constant.  Durations and integrator steps are
stored divided by 2*pi so the benchmark parameter values transcribe
verbatim; time arguments of hamiltonian_at are plain (radian) time.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, shown
from .operators import S1X, S1Y, S1Z, S2X, S2Y, S2Z, SZZ


def is_finite_number(x) -> bool:
    """A finite real number; a bool is not one, nor an int past the
    largest float."""
    return ((type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool))
            and abs(x) <= sys.float_info.max)


@dataclass(frozen=True)
class MachineConfig:
    """Fixed hardware parameters: coupling and static z-fields.

    Defaults model the two nuclear spins of carbon-13 labeled chloroform,
    rescaled by the spin-1 resonance frequency.  The ratio h2z/h1z sets
    every pulse design (pulses.RationalGamma.from_machine).  Pulse
    durations (t1 and t2 of pulses.hypothetical_durations, the s = 8k of
    the tables at the default ratio) count spin-1 Larmor periods, so a
    pulse lasts tau/2pi = t1/h1z.
    """

    coupling: float = -0.43e-6
    h1z: float = 1.0
    h2z: float = 0.25

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not is_finite_number(value):
                raise ConfigurationError(
                    f"machine {f.name} must be a finite number, got {shown(value)}")
        if self.h1z == 0:
            raise ConfigurationError("machine h1z must be non-zero")

    @property
    def gamma(self) -> float:
        """Gyromagnetic ratio of spin 2 relative to spin 1."""
        return self.h2z / self.h1z


DEFAULT_MACHINE = MachineConfig()


def check_machine(machine) -> MachineConfig:
    """The machine, which must be a MachineConfig; the spec, every
    program builder and design_pulse take it by this one check."""
    if not isinstance(machine, MachineConfig):
        raise ConfigurationError(
            f"machine must be a MachineConfig, got {type(machine).__name__}")
    return machine


@dataclass(frozen=True)
class EOParams:
    """All Hamiltonian parameters of one elementary operation.

    tau and delta are durations over 2*pi.  sf* are the sinusoidal-field
    amplitudes; omega and phi_x/phi_y their frequency and phases.  The
    instance is frozen (hashable), which lets propagators be cached; its
    hash is computed once, and ``replace`` copies the field dict rather
    than going through the frozen __init__, since the integrator's class
    rule and every duration shift or step-size change make new EOs.
    """

    label: str = "eo"
    tau: float = 0.0
    j: float = 0.0
    h1x: float = 0.0
    h1y: float = 0.0
    h1z: float = 0.0
    h2x: float = 0.0
    h2y: float = 0.0
    h2z: float = 0.0
    sf1x: float = 0.0
    sf1y: float = 0.0
    sf2x: float = 0.0
    sf2y: float = 0.0
    omega: float = 0.0
    phi_x: float = 0.0
    phi_y: float = 0.0
    delta: float = 0.01

    @property
    def is_diagonal(self) -> bool:
        """True when only S^z terms are present (exactly solvable)."""
        return not any((self.h1x, self.h1y, self.h2x, self.h2y,
                        self.sf1x, self.sf1y, self.sf2x, self.sf2y))

    @property
    def is_rotating(self) -> bool:
        """True when the drive turns rigidly about z at omega.

        That needs no static transverse field, equal x and y amplitudes
        on each spin and phi_y - phi_x = pi/2 exactly; then
        H(t + theta) = Z H(t) Z^dagger with Z = exp(+i omega theta S^z_tot).
        """
        return (self.omega != 0.0
                and not any((self.h1x, self.h1y, self.h2x, self.h2y))
                and self.sf1x == self.sf1y and self.sf2x == self.sf2y
                and self.phi_y - self.phi_x == math.pi / 2.0)

    def __post_init__(self):
        # Lookups hash EOs often; the fields, here all of vars(self), are fixed.
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt: a str hashes differently in another process
        return EOParams, dataclasses.astuple(self)

    def replace(self, **kw) -> "EOParams":
        """The EO with the given fields changed, as dataclasses.replace
        gives it: a copy of the field dict, updated, then __post_init__,
        which is less than half the cost of the frozen __init__ setting
        each field through object.__setattr__."""
        if not _EO_FIELDS.issuperset(kw):
            raise TypeError(f"EOParams has no field {min(kw.keys() - _EO_FIELDS)!r}")
        new = object.__new__(type(self))
        fields = new.__dict__
        fields.update(vars(self))
        del fields["_hash"]
        fields.update(kw)
        new.__post_init__()
        return new


_EO_FIELDS = frozenset(f.name for f in dataclasses.fields(EOParams))
_BLANK_EO = EOParams()


def new_eo(**fields) -> EOParams:
    """EOParams(**fields), equal and hashing alike, built as
    ``EOParams.replace`` builds an EO (from the all-default EO), at less
    than the frozen __init__ costs: the pulse designs and ideal EOs of a
    first compile are built this way."""
    return _BLANK_EO.replace(**fields)


# S1z and S2z eigenvalues of |00>, |10>, |01>, |11>.
_S1Z_EIG = np.array([0.5, -0.5, 0.5, -0.5])
_S2Z_EIG = np.array([0.5, 0.5, -0.5, -0.5])


def diagonal_energies(j, h1z, h2z) -> np.ndarray:
    """Eigenvalues of the diagonal part, ordered |00>, |10>, |01>, |11>.

    E(b1, b2) = -j s1 s2 - h1z s1 - h2z s2 with s = +1/2 for bit 0.
    Arguments may be arrays that broadcast against the four states, e.g.
    columns of one entry per EO.
    """
    return -j * _S1Z_EIG * _S2Z_EIG - h1z * _S1Z_EIG - h2z * _S2Z_EIG


def hamiltonian_at(eo: EOParams, t: float) -> np.ndarray:
    """The 4x4 Hamiltonian matrix of an EO at (radian) time t."""
    sx = np.sin(eo.omega * t + eo.phi_x)
    sy = np.sin(eo.omega * t + eo.phi_y)
    h = (-eo.j * SZZ
         - eo.h1z * S1Z - eo.h2z * S2Z
         - (eo.h1x + eo.sf1x * sx) * S1X - (eo.h1y + eo.sf1y * sy) * S1Y
         - (eo.h2x + eo.sf2x * sx) * S2X - (eo.h2y + eo.sf2y * sy) * S2Y)
    return h
