"""Sinusoidal-field pulse design for single-spin rotations.

A pulse must (a) be resonant with its target spin, (b) deliver power
duration*amplitude equal to the rotation angle, (c) return the spectator
spin to its initial state, and (d) leave no state-dependent phase from
the bare z-precession.  The machine fixes the field ratio gamma =
h2z/h1z, which must be a fraction N/M in lowest terms with M <= 64
(RationalGamma.from_machine).  Then all four are satisfied to good
approximation by durations

    t1/2pi = 2 k M N^2   (spin-1 pulses)
    t2/2pi = 2 k M^3     (spin-2 pulses)

counted in spin-1 Larmor periods (an EO lasts tau/2pi = t/h1z), with
the target amplitude fixed by the angle and the spectator channel
scaled by gamma.  The approximation quality grows with the margin
2 k N M (M - N); exactness is unreachable at finite duration, which is
the root of every deviation the result tables quantify.
commensurability_margin returns that margin and commensurability_check_n
the smallest schedule multiplier k1 of several precession frequencies,
each as a plain int.

A designed pulse is its elementary operation: design_pulse returns the
EOParams (duration, drive frequency, channel amplitudes and phases)
and nothing beside it, and the spectator measures
(spectator_excess_angle, spectator_residual) read that EO.  Its axis is
'x' or 'y', and '-x' or '-y' for the opposite direction.

Two field geometries are supported.  ``rotating`` drives both transverse
channels a quarter period apart, producing a circularly rotating field
that turns the target exactly.  ``static_axis`` drives a single channel;
only the co-rotating half of the field does work, so amplitudes double
and the counter-rotating half adds a small uncorrected wobble.
"""
from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import inf, isfinite, lcm

import numpy as np

from .errors import ConfigurationError, check_choice, is_integer, shown
from .hamiltonian import (DEFAULT_MACHINE, EOParams, MachineConfig, check_machine,
                          is_finite_number, new_eo)
from .integrator import check_delta
from .operators import TWO_PI

ROTATING = "rotating"
STATIC_AXIS = "static_axis"
MODES = (ROTATING, STATIC_AXIS)

PULSE_DELTA = 0.01  # default integrator step (over 2*pi) for pulse EOs

# Largest denominator M of a machine's field ratio.  A spin-2 pulse lasts
# 2kM^3 spin-1 periods (524288k at M = 64), and a static one whose drive
# period is no whole number of steps is integrated substep by substep.
MAX_M = 64


@dataclass(frozen=True)
class RationalGamma:
    """Rational approximation N/M of the field ratio gamma."""

    n: int
    m: int

    def __post_init__(self):
        """N and M are integers (``is_integer``: a numpy integer is one, a
        bool none), stored as int."""
        if not (is_integer(self.n) and is_integer(self.m)):
            raise ConfigurationError(
                f"N and M must be integers, got N={shown(self.n)}, M={shown(self.m)}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        if not 0 < self.n < self.m:
            raise ConfigurationError(f"need 0 < N < M, got N={self.n}, M={self.m}")

    @property
    def gamma(self) -> float:
        return self.n / self.m

    @classmethod
    @lru_cache(maxsize=64)   # once per machine, not once per table
    def from_machine(cls, machine: MachineConfig) -> "RationalGamma":
        """The machine's field ratio h2z/h1z as N/M with M <= MAX_M;
        ConfigurationError if it lies outside (0, 1) or no such N/M
        matches it within 1e-12 relative."""
        gamma = machine.gamma
        if not 0.0 < gamma < 1.0:
            raise ConfigurationError(
                f"machine field ratio {gamma!r} outside (0, 1); no valid design")
        frac = Fraction(gamma).limit_denominator(MAX_M)
        if abs(frac.numerator / frac.denominator - gamma) > 1e-12 * gamma:
            raise ConfigurationError(
                f"machine field ratio h2z/h1z = {gamma!r} is not N/M with "
                f"M <= {MAX_M}; no pulse can be designed for it")
        return cls(frac.numerator, frac.denominator)


DEFAULT_GAMMA = RationalGamma.from_machine(DEFAULT_MACHINE)


# Each axis design_pulse takes, spelled as here, and its (axis, direction).
_AXES = {"x": ("x", 1), "y": ("y", 1), "-x": ("x", -1), "-y": ("y", -1)}


def parse_axis(axis: str) -> tuple[str, int]:
    """The axis and its direction (+1 or -1) of 'x', 'y', '-x' or '-y'."""
    return _AXES[check_choice(axis, "axis", tuple(_AXES))]


def check_k(k) -> int:
    """The pulse length multiplier k as an int; it must be an integer
    >= 1, and a bool or a float is none.  design_pulse and every program
    builder take k by this one rule."""
    if is_integer(k) and k >= 1:
        return int(k)
    raise ConfigurationError(f"k must be a positive integer, got {shown(k)}")


def _check_gamma(gamma) -> RationalGamma:
    """The field ratio, which must be a RationalGamma."""
    if not isinstance(gamma, RationalGamma):
        raise ConfigurationError(f"gamma must be a RationalGamma, got {shown(gamma)}")
    return gamma


def commensurability_margin(gamma: RationalGamma, k: int) -> int:
    """The figure of merit 2 k N M (M - N), an int, for a RationalGamma
    and k by check_k; the design conditions hold only in the limit
    margin >> 1."""
    gamma = _check_gamma(gamma)
    return 2 * check_k(k) * gamma.n * gamma.m * (gamma.m - gamma.n)


def hypothetical_durations(gamma: RationalGamma, k: int) -> tuple[int, int]:
    """Pulse durations (t1, t2) over 2*pi for spin-1 and spin-2 rotations,
    for a RationalGamma and k by check_k."""
    return _periods(_check_gamma(gamma), check_k(k))


def _periods(gamma: RationalGamma, k: int) -> tuple[int, int]:
    return 2 * k * gamma.m * gamma.n ** 2, 2 * k * gamma.m ** 3


def design_pulse(target_spin: int, angle: float, axis: str, k: int = 1,
                 mode: str = ROTATING, direction: int | None = None,
                 machine: MachineConfig = DEFAULT_MACHINE,
                 label: str | None = None,
                 delta: float = PULSE_DELTA) -> EOParams:
    """The EO of the pulse rotating `target_spin` by `angle` about `axis`
    on `machine`, for its own field ratio N/M (RationalGamma.from_machine).

    The angle is a real number (not a bool) in [0, 4*pi], in radians,
    and delta a step size that resolves the machine's drive
    (``integrator.check_delta``).
    Angles up to 4*pi are legal: a spin-1/2 returns to itself only after
    two full turns, and designs reduced modulo 2 turns (rather than 1)
    preserve the state-dependent sign.  The spectator-spin channel always
    carries gamma times the target amplitude, as the hardware dictates.

    The EO is the whole design: tau is the duration over 2*pi, omega
    the drive frequency (the target's z-field), sf* and phi_* the
    channel amplitudes and phases; the machine's z-fields and coupling
    stay on during the pulse.
    """
    axis, axis_dir = parse_axis(axis)
    direction = axis_dir * (1 if direction is None
                            else check_choice(direction, "direction", (-1, 1)))
    if not is_finite_number(angle):
        raise ConfigurationError(f"angle must be a finite number, got {shown(angle)}")
    if not 0.0 <= angle <= 2.0 * TWO_PI + 1e-12:
        raise ConfigurationError(
            f"angle must lie in [0, 4*pi], got {angle!r}")
    check_choice(target_spin, "target_spin", (1, 2))
    k = check_k(k)
    check_choice(mode, "mode", MODES)
    check_delta(delta, check_machine(machine))
    return _pulse_eo(target_spin, angle, axis, direction, k, mode, machine, label, delta)


def _pulse_eo(target_spin: int, angle: float, axis: str, direction: int, k: int,
              mode: str, machine: MachineConfig, label: str | None,
              delta: float) -> EOParams:
    """design_pulse's EO from arguments it has checked: axis 'x' or 'y'
    and its direction +1 or -1 apart.  A program builder's gate steps
    call it on the values the builder checked, with a rotation from
    ``gates._rotation``; the machine's field ratio is checked here
    (RationalGamma.from_machine), and so is the duration, which must be
    a finite float (a huge k makes it none)."""
    gamma = RationalGamma.from_machine(machine)
    periods = _periods(gamma, k)[target_spin - 1]
    t = periods / machine.h1z if is_finite_number(periods) else inf
    if not isfinite(t):
        raise ConfigurationError(f"pulse duration {Decimal(periods) / Decimal(machine.h1z):.3g}"
                                 " is too long: it is not a finite float")
    turns = angle / TWO_PI
    amp_target = turns / t
    if target_spin == 1:
        amp1, amp2 = amp_target, amp_target * machine.gamma
        omega = machine.h1z
    else:
        amp1, amp2 = amp_target / machine.gamma, amp_target
        omega = machine.h2z

    # Channel signs and phases, fixed so that a rotating-mode x pulse
    # realizes exp(i*direction*angle*Sx) and a y pulse exp(i*direction*
    # angle*Sy); inverses simply negate both channel amplitudes.
    if axis == "x":
        sign = -direction
        phi_x, phi_y = -np.pi / 2.0, 0.0
    else:
        sign = +direction
        phi_x, phi_y = 0.0, np.pi / 2.0

    sf = {}
    if mode == ROTATING:
        sf["sf1x"] = sf["sf1y"] = sign * amp1
        sf["sf2x"] = sf["sf2y"] = sign * amp2
    else:
        # single-axis drive: x rotations via the y channel and vice
        # versa, at double amplitude (co-rotating half carries the power)
        phi_x = phi_y = 0.0
        channel = "y" if axis == "x" else "x"
        sf[f"sf1{channel}"] = 2.0 * sign * amp1
        sf[f"sf2{channel}"] = 2.0 * sign * amp2

    return new_eo(
        label=label or f"pulse(spin{target_spin},{'-' if direction < 0 else ''}{axis},"
                       f"{turns:g}turn,{mode},k={k})",
        tau=t, j=machine.coupling, h1z=machine.h1z, h2z=machine.h2z,
        omega=omega, phi_x=phi_x, phi_y=phi_y, delta=delta, **sf)


def spectator_excess_angle(eo: EOParams) -> float:
    """t*|v| modulo 4*pi for the spin a pulse EO does not target.

    The target is the spin whose z-field the drive frequency omega
    matches; an EO resonant with neither spin is rejected.  v combines
    the spectator's detuning from the drive with its transverse
    amplitude, (|sf_x| + |sf_y|)/2 in either mode (two equal channels,
    or one at double amplitude); the spectator returns exactly when
    t*|v| is a multiple of 4*pi.
    """
    if eo.omega == eo.h1z:
        amp_x, amp_y, detuning = eo.sf2x, eo.sf2y, eo.h2z - eo.omega
    elif eo.omega == eo.h2z:
        amp_x, amp_y, detuning = eo.sf1x, eo.sf1y, eo.h1z - eo.omega
    else:
        raise ConfigurationError(
            f"drive frequency {eo.omega!r} of {eo.label!r} matches neither "
            f"spin's z-field ({eo.h1z!r}, {eo.h2z!r})")
    phase = eo.tau * TWO_PI * np.hypot((abs(amp_x) + abs(amp_y)) / 2.0, detuning)
    return float(phase % (2.0 * TWO_PI))


def spectator_residual(eo: EOParams) -> float:
    """Operator distance from identity of the spectator's net rotation.

    Defined for rotating-mode pulses, where the pulse's action on the
    spectator is exactly a rotation by the excess angle theta about
    v = (transverse share, detuning).  Returns the spectral norm
    ||U_spec - 1|| = 2 sin(theta/4) of that spin-1/2 rotation; 0 means
    the spectator is perfectly restored, 2 is the antipodal worst case.
    """
    if not eo.is_rotating:
        raise ConfigurationError("spectator_residual applies to rotating-mode pulses")
    return float(2.0 * np.sin(spectator_excess_angle(eo) / 4.0))


def _as_fraction(value) -> Fraction:
    """A frequency as a positive Fraction: an integer (not a bool), a
    Fraction, a string Fraction reads or a (numerator, denominator) pair
    of integers; ConfigurationError for anything else."""
    try:
        if type(value) is tuple and len(value) == 2 and all(map(is_integer, value)):
            frac = Fraction(*value)
        elif is_integer(value) or isinstance(value, (Fraction, str)):
            frac = Fraction(value)
        else:
            raise TypeError
    except (TypeError, ValueError, ZeroDivisionError):
        raise ConfigurationError(
            "frequencies must be exact rationals (int, Fraction, str or (num, "
            f"den) of ints); got {type(value).__name__} {value!r}") from None
    if frac <= 0:
        raise ConfigurationError(f"frequencies must be positive, got {value!r}")
    return frac


def commensurability_check_n(frequencies) -> int:
    """Smallest k1 freezing the bare precession of every spin at once, an
    int.

    Writing each ratio f_j/f_1 = N_j/M_j in lowest terms, pulse schedules
    exist only when k1 (M_j - N_j) = M_j n_j has integer solutions for
    all j, i.e. k1 must be a multiple of every M_j (an equal frequency
    has M_j = 1 and adds no constraint).  Each frequency must be a
    positive exact rational (``_as_fraction``).
    """
    if not isinstance(frequencies, (list, tuple)):
        raise ConfigurationError(
            f"frequencies must be a list, got {type(frequencies).__name__}")
    fracs = [_as_fraction(f) for f in frequencies]
    if len(fracs) < 2:
        raise ConfigurationError("need at least two frequencies")
    return lcm(*((f / fracs[0]).denominator for f in fracs[1:]))
