"""Time evolution of one elementary operation.

A propagator is a function of its EO alone: the EO's own step size
(``EOParams.delta``) and its fields pick the construction.  The store
holds two:

* product formula (an EO with transverse fields) -- symmetric (Strang)
  operator splitting (Strang, SIAM J. Numer. Anal. 5, 506 (1968)).
  Each substep freezes the fields at the substep midpoint and applies

      U_step = T(dt/2) D(dt) T(dt/2)

  where T is the exact exponential of the transverse part (a kron of two
  single-spin rotations; the two spins' transverse terms commute) and D
  the exact diagonal exponential of the Ising and z terms.  Every factor
  is exactly unitary; the global error is O(delta^2).  One function
  builds that step for any stack of substeps (``_strang_step``); every
  block but an x drive's eigenbasis block (below) is made of its steps.

* exact diagonal (an EO with no transverse fields) -- closed-form
  phases.  Used for the long conditional-phase evolutions, which would
  otherwise cost ~10^8 substeps for identical physics.

The reference, ``oracle_propagator``, is never stored: the dense 4x4
exponential of H(t_mid) per substep via eigendecomposition.  Slower,
split-free; it validates the product formula.  A different step size
is a different EO, ``eo.replace(delta=d)``.

The product formula and the reference share one loop, which folds the
substep product by a symmetry of the drive wherever one holds exactly.
The EO's plan (``_plan``) names the fold:

* "rotating": a rotating drive (``EOParams.is_rotating``: no static
  transverse field, equal x/y amplitudes, phi_y - phi_x = pi/2) turns
  rigidly about z.  The Ising and z terms commute with total S^z, so every
  substep block is a z-conjugate of the first one,
  B(t + theta) = Z(theta) B(t) Z(theta)^dagger with
  Z(theta) = exp(+i omega theta S^z_tot), and the n full substeps give
  exactly U = Z(n dt) (Z(dt)^dagger B(dt/2))^n (the rotating frame;
  Vandersypen & Chuang, Rev. Mod. Phys. 76, 1037 (2004)).  One
  single-midpoint block is built and raised to the n-th power; the
  product formula builds it as the one-substep
  ``_product_formula_block``, the Strang step at dt/2.
* "period": otherwise, when the drive period 1/omega (over 2*pi) is a
  whole number P of steps, i.e. 1/(omega*delta) is an integer to a
  relative 1e-12, and the EO spans at least 2P full substeps, the
  fields repeat exactly every P substeps (Floquet; Shirley, Phys. Rev.
  138, B979 (1965)), so one period's product U_T is raised to
  q = n_full // P; the n_full mod P leftover substeps are stepped at
  their true midpoints.
* "quarter" and "x period": an x drive (only the x channel driven,
  phi_x = phi_y = 0, no static transverse field) that folds by period
  is built in the eigenbasis of S^x (``_quarter_block``): every
  half-step is an x rotation of each spin, and W = H (x) H diagonalizes
  them all, so the product of its first m substeps is the same Strang
  product, adjacent half-steps merged and regrouped as
  W E_m (M E_{m-1}) ... (M E_0) W with M = W D W once per EO and each
  E_j diagonal.  With P not a multiple of 4 ("x period") that block is
  the period, m = P, raised to q.  With P a multiple of 4 ("quarter"),
  two more exact symmetries leave only the first P/4 substeps to build,
  as their product Q:
  - half period: the field at t + T/2 is minus the field at t, and
    Zpi = exp(i pi S^z_tot) = diag(-1, 1, 1, -1) flips both transverse
    operators while commuting with the rest, so
    U_T = (Zpi U_{T/2})^2 and U_T^q = (Zpi U_{T/2})^(2q);
  - time reversal: the field over half a period is symmetric about
    T/4, so the second quarter runs the first one's substeps in reverse
    order.  An x drive makes H real, so every substep block is
    complex-symmetric (for the Strang split T D T as for the dense
    exponential) and U_{T/2} = Q^T Q.
  The reference, like any other block, steps those m substeps one by
  one.  Any other periodic drive (phi != 0, a static transverse field,
  a y drive or both axes driven) folds by period, "period".
* None: in every other case (omega = 0, a period that is not a whole
  number of steps or is shorter than one step, a static pulse shorter
  than two periods) every substep is stepped.

Powers are taken by repeated squaring (``_powers``), by a plan the
stack holds (``_power_plan``), and the finished propagator is
polar-projected onto the unitary group once, by one Newton-Schulz step.

The loop runs on a stack of EOs: the field parameters, the blocks and
every step above carry a leading EO axis, and each EO has its own step
count.  One rule makes the stacks: an EO joins the stack of its step
size, fold and drive frequency (every rotating EO of one step size
shares one stack, whatever its frequency), and one bound splits each
stack into the groups integrated together (``_chunks``): no block holds
more than _BLOCK = 1024 substep matrices.  A run is what one EO puts
into a block: one midpoint for a rotating EO, the quarter period or
period and the tail for a folded one, every substep for an unfolded
one.  A stack is ordered by each EO's own widest run, and a group takes
EOs while that many rows of its widest run fit the bound, so one long
EO does not split the short ones of its stack.  A block call
costs more than the 25 or 100 substeps of a quarter period at
delta = 0.01, so a group pays that cost once for all its EOs; the
bound keeps a block's temporaries within 256 kB of 4x4 factors and
still keeps the ten spin-2 classes (10 x 100 substeps) of a canned
static table in one group.  An EO whose run is longer is a group of
one, and every run (a period, a tail, all the substeps) is built _BLOCK
substeps at a time.  A group is integrated in one pass:
- rotating: one single-midpoint block per EO (the one-substep
  ``_product_formula_block``), the frame factors, the powers (one
  squaring pass over the bits of the largest n, then each EO's product
  of its own set-bit squares: one take and one batched product per
  set-bit round after the first, an EO past its last set bit taking
  the identity), the remainder blocks and one stacked Newton-Schulz
  step (a rotating stack has no tail);
- quarter, x period or period: one quarter-period block (then Zpi
  placed per EO) or one period block over all the EOs, each EO's own
  power, 2q or q,
  the tails (an EO whose tail is shorter takes substeps of length 0,
  exactly the identity, at its end), the remainders and one
  Newton-Schulz step;
- unfolded: every substep of every EO, padded at its end likewise, the
  remainders and one Newton-Schulz step.
Each EO's result is bit-identical whatever else shares its stack, and a
lone EO is a stack of one; every reference is integrated alone.

Pulses that differ only in the axis or sense of their drive are
integrated once (``_z_class``).  The z terms commute with total S^z, so
shifting every drive phase by q quarter turns conjugates the propagator
exactly: U(eo) = Z_q U(eo0) Z_q^dagger, with
Z_q = exp(i q pi/2 S^z_tot) = diag(i^q, 1, 1, i^-q), whose entries are
+-1 or +-i, so the conjugation itself rounds nothing (the rotating frame
again; "virtual Z" phase tracking, McKay et al., Phys. Rev. A 96,
022330 (2017)).  A rotating EO whose phi_x is a whole number of quarter
turns maps to phi_x = 0, and a static single-axis EO at phi = 0 to an x
drive; a negative amplitude is a half turn more.  eo0 has amplitudes
>= 0 and one fixed label, so X2, X2b, Y2 and Y2b at one k share it.
Every other EO is its own class (q = 0).

``integrate`` integrates the classes of the EOs of a list not stored
yet, in the stacks above, and the diagonal classes in one closed-form
stack, and stores each EO's conjugate; a program walk calls it, then
looks each EO up.  The EO's plan (``_plan``) is the one place that
decides how an EO is integrated: its class and q, the key of its stack
(step size, fold, drive frequency) and its widest run.  Plans flow one
way: a cold walk looks each missed EO's plan up once, in its layout
(below), which keeps each class with its plan and hands those plans on;
``_chunks`` groups them by their runs and ``_Drives`` builds each
group's stack from them, and neither looks a plan up.  So a layout runs
``_plan``'s body once per missed EO and once per class the plan memo
does not hold, however many EOs it misses.  A stack (``_Drives``) is
the one record the kernels read: its fields, step size, fold, drive
period, step schedule and power plan.  No kernel takes a step size or
a fold from its caller, or looks a plan up.  One store, keyed by the
EO, keeps the last _CACHE_SIZE propagators used.

How the EOs a list misses are integrated is planned once per such list
too: its layout (``_layout``), memoized for the last _LAYOUTS lists of
missed EOs, keyed by those EOs in walk order, holds the groups of
``_chunks`` as ``_Drives`` stacks, the diagonal stack's durations and
energies (as the phases 2 pi tau E of its states), and, per missed EO,
the row of its class propagator and its q.
A cold run of a list seen before then does only the store-membership
pass, the kernels, one gather and conjugation, and the store update: a
table run cold again in one process plans nothing.  A stored EO costs
one store lookup, so a warm walk builds no layout.  Like the plans, the
layouts outlive ``clear_propagator_cache``, which only forgets numbers:
a layout holds EO parameters and their arrangement, never a propagator
or a product of a kernel, so every run after a store clear integrates
afresh, bit for bit as a run with no layout memoized.  A bad step size
or duration, a field that is not a finite number (``_check``, once per
plan, so no warm walk pays for it), or a diagonal phase that is not
finite raises while a layout is built, so it is never memoized and
raises on every run, before anything is integrated or stored; the
reference plans its EO alike, and raises likewise.

If the duration is not an integer multiple of the step, the final substep
shrinks to the remainder: silently truncating a pulse would corrupt its
rotation angle, which is exactly the sensitivity under study.  The field
clock of every EO starts at t = 0 (its drive phases phi are the phases
at its start).
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import fields
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, shown
from .hamiltonian import EOParams, MachineConfig, diagonal_energies, is_finite_number
from .operators import S1X, S1Y, S2X, S2Y, TWO_PI

_BLOCK = 1024  # substep matrices per block
_CACHE_SIZE = 1024  # propagators kept by the store
_LAYOUTS = 64  # layouts kept, one per list of missed EOs
_PERIOD_RTOL = 1e-12  # how close 1/(omega*delta) must be to a whole number
_MAX_STEPS = 2.0 ** 53  # beyond it, a float no longer counts steps one by one
_SZ_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])  # S1z + S2z, |00>,|10>,|01>,|11>
_Z_PI = np.array([-1.0, 1.0, 1.0, -1.0])  # exp(i pi S^z_tot)
_EYE = np.eye(4, dtype=complex)
# Diagonals of Z_q = exp(i q pi/2 S^z_tot) = diag(i^q, 1, 1, i^-q), q = 0..3.
_Z_QUARTER_TURNS = np.array([[1, 1, 1, 1], [1j, 1, 1, -1j], [-1, 1, 1, -1],
                             [-1j, 1, 1, 1j]])
_CLASS_LABEL = "z-class"  # the label of every class representative eo0

# The pulses drive at the spins' z-fields; delta times the fastest of
# them may not exceed this, i.e. at least two steps per drive period.
MAX_DELTA_TIMES_DRIVE = 0.5


def check_delta(delta, machine: MachineConfig | EOParams | None = None):
    """The step size (over 2*pi), which must be a positive finite number
    and, given a machine (or an EO, which carries its machine's
    z-fields), resolve its fastest drive: delta times the larger
    |z-field| at most MAX_DELTA_TIMES_DRIVE.  The spec, every program
    builder, design_pulse and convergence_report check delta by this one
    rule; stepping an EO checks only its first part."""
    if not (is_finite_number(delta) and delta > 0):
        raise ConfigurationError(f"delta must be positive and finite, got {shown(delta)}")
    if machine is not None:
        fastest = max(abs(machine.h1z), abs(machine.h2z))
        if delta * fastest > MAX_DELTA_TIMES_DRIVE:
            raise ConfigurationError(
                f"delta {delta} does not resolve the drive at frequency "
                f"{fastest:g}: need delta * {fastest:g} <= {MAX_DELTA_TIMES_DRIVE}")
    return delta


# The fields of an EO that must be finite numbers, besides delta and tau,
# whose own checks come first.
_FINITE = tuple(f.name for f in fields(EOParams) if f.name not in ("label", "tau", "delta"))


def _check(eo: EOParams) -> None:
    """Raise ConfigurationError, in one line that names the EO's label,
    unless its step size is a positive finite number, its duration a
    non-negative finite number or inf (one too long to step raises
    later; NaN and an integer past the largest float are no finite
    number) and each other field a finite number
    (``hamiltonian.is_finite_number``)."""
    def refuse(what, value):
        raise ConfigurationError(f"EO {eo.label!r}: {what}, got {shown(value)}")

    if not (is_finite_number(eo.delta) and eo.delta > 0):
        refuse("delta must be positive and finite", eo.delta)
    if not (is_finite_number(eo.tau) or eo.tau == math.inf):
        refuse("duration is not a finite number", eo.tau)
    if eo.tau < 0:
        refuse("duration must be non-negative", eo.tau)
    for name in _FINITE:
        value = getattr(eo, name)
        if not is_finite_number(value):
            refuse(f"{name} must be a finite number", value)


def _step_schedule(tau: float, delta: float) -> tuple[int, float]:
    """Number of full steps and the remainder, all in over-2*pi units."""
    steps = tau / delta + 1e-9
    if not steps < _MAX_STEPS:
        raise ConfigurationError(
            f"duration {tau!r} is too long for the step {delta!r}")
    n_full = math.floor(steps)
    rem = tau - n_full * delta
    if rem <= 1e-12 * max(1.0, abs(tau)):
        rem = 0.0
    return n_full, rem


_ROTATING = "rotating"  # the drive turns rigidly about z
_QUARTER = "quarter"    # a static x drive, folded from a quarter period
_X_PERIOD = "x period"  # a static x drive, folded from a period (P % 4 != 0)
_PERIOD = "period"      # any other periodic drive, folded from a period
_DIAGONAL = (None, None, None)  # the stack key of every diagonal EO


def _z_class(eo: EOParams) -> tuple[EOParams, int]:
    """(eo0, q) with U(eo) = Z_q U(eo0) Z_q^dagger (see the module
    docstring); (eo, 0) for an EO no quarter turn canonicalizes, and
    for a representative itself."""
    x, y = (eo.sf1x, eo.sf2x), (eo.sf1y, eo.sf2y)
    rotating = eo.is_rotating
    if rotating:
        turns = eo.phi_x / (math.pi / 2.0)
        if not turns.is_integer():
            return eo, 0
        q, amps = int(turns), x
    elif (eo.is_diagonal or (any(x) and any(y))
          or any((eo.phi_x, eo.phi_y, eo.h1x, eo.h1y, eo.h2x, eo.h2y))):
        return eo, 0
    else:   # Z_3 turns an x drive into a y drive
        q, amps = (0, x) if any(x) else (3, y)
    if min(amps) < 0.0 < max(amps):
        return eo, 0
    if min(amps) < 0.0:
        q += 2
    if q == 0 and eo.label == _CLASS_LABEL:   # already a representative
        return eo, 0
    a1, a2 = abs(amps[0]), abs(amps[1])
    eo0 = eo.replace(label=_CLASS_LABEL, sf1x=a1, sf2x=a2,
                     sf1y=a1 if rotating else 0.0, sf2y=a2 if rotating else 0.0,
                     phi_x=0.0, phi_y=math.pi / 2.0 if rotating else 0.0)
    return eo0, q % 4


def _conjugated(u: np.ndarray, qs) -> np.ndarray:
    """Z_q u[e] Z_q^dagger for each matrix u[e] of a stack and its q."""
    z = _Z_QUARTER_TURNS[qs]
    return z[:, :, None] * u * z.conj()[:, None, :]


class _Drives:
    """A stack of EOs of one step size, the one record the kernels read,
    built from the plans (``_plan``) of its EOs: the field parameters of
    each plan's class eo0, one row per EO, read-only; the step size delta
    and the fold of its first plan, which the stack's EOs share: they all
    turn rigidly about z (_ROTATING), or have one drive frequency; the
    drive period P in substeps that a quarter, x period or period fold
    folds by (0 for any other fold); the step schedule, the arrays
    (n_full, rem) of its EOs (``_step_schedule``); and, for a folded
    stack, how ``_powers`` raises its blocks to the fold's powers (n_full
    for a rotating stack, 2q for a quarter one, q for any other,
    ``_power_plan``), None for an unfolded one.  Of a plan it reads only
    eo0 and the fold of its key.
    """

    def __init__(self, plans):
        self.eos = tuple(plan.eo0 for plan in plans)
        p = np.array([(e.omega, e.phi_x, e.phi_y, e.h1x, e.h1y, e.h2x, e.h2y,
                       e.sf1x, e.sf1y, e.sf2x, e.sf2y, e.j, e.h1z, e.h2z)
                      for e in self.eos])
        p.setflags(write=False)
        self.omega = p[:, 0]
        self.phi = p[:, 1:3]                          # x, y
        self.static = p[:, 3:7].reshape(-1, 2, 2)     # [spin, axis]
        self.amp = p[:, 7:11].reshape(-1, 2, 2)       # [spin, axis]
        self.ez = diagonal_energies(p[:, 11:12], p[:, 12:13], p[:, 13:14])
        self.ez.setflags(write=False)
        self.delta, self.fold = self.eos[0].delta, plans[0].key[1]
        self.period = (_period_steps(self.eos[0].omega, self.delta)
                       if self.fold not in (None, _ROTATING) else 0)
        self.schedule = tuple(map(np.array, zip(*(_step_schedule(e.tau, e.delta)
                                                   for e in self.eos))))
        n_full = self.schedule[0]
        self.powers = None if self.fold is None else _power_plan(
            n_full if self.fold == _ROTATING
            else (2 if self.fold == _QUARTER else 1) * (n_full // self.period))


def _fields_at(d: _Drives, mids):
    """Transverse fields [EO, substep, spin, axis] at midpoints mids[EO, substep]."""
    s = np.sin(d.omega[:, None, None] * mids[..., None] + d.phi[:, None, :])
    return d.static[:, None] + d.amp[:, None] * s[:, :, None, :]


def _halfstep_rotations(fx, fy, alpha):
    """Stacked 2x2 factors exp(i (dt/2) (fx S^x + fy S^y)), alpha = dt/4,
    as the entries (a, b) of [[a, b], [-b*, a*]]; a = cos(alpha rho) is
    real.

    A spin without transverse field (rho = 0), or a substep of length 0,
    gets exactly the identity (a = 1, b = 0), whatever sin(alpha rho)/rho
    reads.
    """
    rho = np.hypot(fx, fy)
    angle = alpha * rho
    snc = np.sin(angle) / np.maximum(rho, 1e-300)
    return np.cos(angle), snc * fy + 1j * (snc * fx)


def _chain(mats: np.ndarray) -> np.ndarray:
    """Ordered product over axis 1 of mats[EO, substep]; substep 0 acts first."""
    while mats.shape[1] > 1:
        n = mats.shape[1]
        paired = mats[:, 1:n - (n % 2):2] @ mats[:, 0:n - (n % 2):2]
        if n % 2:
            paired = np.concatenate([paired, mats[:, -1:]], axis=1)
        mats = paired
    return mats[:, 0]


def _nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar projection of each matrix of a stack onto the unitary group.

    Each input is a product of exactly unitary factors (repeated squares
    of a block, or chunks of substeps), off the unitary group by float
    noise only.  One Newton-Schulz step, m + m (I - m^H m) / 2, takes it
    to its polar factor with an error of order |m^H m - I|^2, far below
    the rounding of the result (Higham, SIAM J. Sci. Stat. Comput. 7,
    1160 (1986)); the exact propagator is unitary, so this perturbs by
    no more than the noise.
    """
    defect = _EYE - np.swapaxes(m.conj(), -1, -2) @ m
    return m + (m @ defect) * 0.5


def _strang_step(f, ez, dt) -> np.ndarray:
    """The Strang step T(dt/2) D(dt) T(dt/2) of each substep of a stack:
    fields f[..., spin, axis], diagonal energies ez[..., state] and the
    step length dt, a scalar or an array [..., 1], broadcast together.
    T = R2 (x) R1 is built elementwise from the two 2x2 rotations, and
    the step is the product of T and the rows of T scaled by D."""
    a, b = _halfstep_rotations(f[..., 0], f[..., 1], dt / 4.0)      # [..., spin]
    r = np.empty(a.shape + (2, 2), dtype=complex)                   # [..., spin, row, col]
    r[..., 0, 0] = r[..., 1, 1] = a
    r[..., 0, 1], r[..., 1, 0] = b, -b.conj()
    k2 = r[..., 1, :, None, :, None]                                # [..., s2, ., t2, .]
    k1 = r[..., 0, None, :, None, :]                                # [..., ., s1, ., t1]
    phases = np.exp(-1j * (ez * dt))
    phases = phases.reshape(phases.shape[:-1] + (2, 2, 1, 1))       # D[s2, s1]
    shape = a.shape[:-1] + (4, 4)
    return (k2 * k1).reshape(shape) @ (k2 * phases * k1).reshape(shape)


def _product_formula_block(d: _Drives, mids, dt) -> np.ndarray:
    """Per EO, the propagator of equal-length substeps at mids[EO, substep]:
    the product (``_chain``) of their Strang steps (``_strang_step``).

    dt is one step length, one per EO as an (EO, 1) array, or one per
    substep as an (EO, substep) array; a substep of length 0 is exactly
    the identity.
    """
    return _chain(_strang_step(_fields_at(d, mids), d.ez[:, None],
                               np.asarray(dt)[..., None]))


_TRANSVERSE = np.array([[S1X, S1Y], [S2X, S2Y]])  # [spin, axis]


def _dense_block(d: _Drives, mids, dt) -> np.ndarray:
    """As _product_formula_block, with the dense exponential of H(mid)."""
    dt = np.atleast_2d(dt)
    hs = ((d.ez[:, :, None] * np.eye(4))[:, None]
          - np.einsum("emsa,saij->emij", _fields_at(d, mids), _TRANSVERSE))
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * dt[..., None] * w)
    return _chain(np.einsum("...ij,...j,...kj->...ik", v, phases, v.conj()))


def _period_steps(omega: float, delta: float) -> int:
    """Substeps per drive period, or 0 when that is not a whole number."""
    rate = abs(omega) * delta
    steps = 1.0 / rate if rate > 0.0 else math.inf
    if not math.isfinite(steps):
        return 0
    p = round(steps)
    return p if p >= 1 and abs(steps - p) <= _PERIOD_RTOL * steps else 0


# W = H (x) H, real and its own inverse: its column k is an eigenvector of
# S1^x and S2^x, of signs (-1)^(bit 0 of k) and (-1)^(bit 1 of k), which
# _X_SIGNS[spin, k] holds; column 3 - k has those of k negated.
_W = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, -1.0, 1.0, -1.0],
               [1.0, 1.0, -1.0, -1.0], [1.0, -1.0, -1.0, 1.0]]) / 2.0
_X_SIGNS = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])


def _quarter_block(d: _Drives) -> np.ndarray:
    """Per EO of an x drive's stack, the product of its first m substeps
    in the eigenbasis of S^x: m = P/4 for the quarter fold, m = P for
    the x period fold (the block of both).

    The Strang steps T_j D T_j of the m substeps are regrouped into
    m + 1 factors D K_j, each substep's closing half-step merged into the
    next one's opening half-step: K_j = T_j T_{j-1}, with
    T_{-1} = T_m = 1 (and D_m = 1).  An x drive at phi = 0 makes every
    half-step an x rotation of each spin, and W diagonalizes them all:
    K_j = W E_j W with E_j = diag(exp(i u_j lambda)),
    u_j = (dt/4) (s_j + s_{j-1}), s_j = sin(omega t_j) (s_{-1} = s_m = 0)
    and lambda the eigenvalues of 2 (a1 S1^x + a2 S2^x), a the x
    amplitudes: lambda = a _X_SIGNS, so the phases e of all m + 1
    factors and their EOs are one exponential.  So

        Q = W E_m (M E_{m-1}) ... (M E_1) (M E_0) W,   M = W D W,

    and a pair of factors is (M E_{2i+1} M) E_{2i}, with
    M E M = sum_k e_k M[:, k] M[k, :]: one batched product builds every
    pair from the phases e, and one broadcast product scales its columns.
    The sines are taken once for the stack, which shares omega, and
    `_chain` multiplies the pairs of at most _BLOCK substeps at a time.
    """
    n_eo, dt = len(d.eos), d.delta * TWO_PI
    m = d.period // 4 if d.fold == _QUARTER else d.period
    s = np.zeros(m + 2)                                             # s_{-1} .. s_m
    s[1:-1] = np.sin(d.omega[0] * ((np.arange(m) + 0.5) * dt))
    u = (dt / 4.0) * (s[1:] + s[:-1])                               # [j]
    e = np.exp(1j * u[:, None] * (d.amp[:, None, :, 0] @ _X_SIGNS))  # [EO, j, k]
    mixer = (_W * np.exp(-1j * (d.ez * dt))[:, None, :]) @ _W       # M
    outer = (mixer.transpose(0, 2, 1)[..., None]                    # [EO, k, 16]
             * mixer[:, :, None, :]).reshape(n_eo, 4, 16)
    q = None
    for lo in range(0, m, _BLOCK):
        hi = min(m, lo + _BLOCK)
        pairs = (e[:, lo + 1:hi:2] @ outer).reshape(n_eo, -1, 4, 4)
        pairs *= e[:, lo:hi - 1:2, None, :]
        if (hi - lo) % 2:   # the last factor M E_{hi-1} alone
            last = mixer[:, None] * e[:, hi - 1:hi, None, :]
            pairs = np.concatenate([pairs, last], axis=1)
        p = _chain(pairs)
        q = p if q is None else p @ q
    return (_W * e[:, m, None, :]) @ q @ _W


def _frame(d: _Drives, theta) -> np.ndarray:
    """Diagonals of Z(theta) = exp(+i omega theta S^z_tot); theta[..., EO]."""
    return np.exp(1j * d.omega[:, None] * theta[..., None] * _SZ_TOTAL)


class _PowerPlan(NamedTuple):
    """How ``_powers`` raises a stack to its exponents ns[e] >= 0
    (``_power_plan``): the number of squarings, the bits of the largest
    n, and per round r, for each EO, the row of the r-th set bit of its
    n, ascending, among the stacked squares [1, base, base^2, base^4,
    ...] flattened by (square, EO); an EO past its last set bit takes
    the identity (row e)."""

    bits: int
    rows: np.ndarray   # [round, EO]


def _power_plan(ns) -> _PowerPlan:
    """The plan of ``_powers`` for the exponents ns, each >= 0."""
    ns = np.asarray(ns)
    bits = int(ns.max()).bit_length()
    has = (ns[:, None] >> np.arange(max(bits, 1))) & 1 == 1       # [EO, bit]
    counts = has.sum(axis=1)
    rounds = np.arange(max(1, counts.max()))
    order = np.argsort(~has, axis=1, kind="stable")[:, rounds]    # set bits first
    square = np.where(rounds < counts[:, None], order + 1, 0)     # 0: the identity
    rows = (square * len(ns) + np.arange(len(ns))[:, None]).T
    rows.setflags(write=False)
    return _PowerPlan(bits, rows)


def _powers(base: np.ndarray, plan: _PowerPlan) -> np.ndarray:
    """base[e] ** ns[e] for a stack, by repeated squaring, as its plan
    (``_power_plan``) gives the exponents ns.

    At least one n >= 1; n = 0 gives the identity.  One pass squares
    the whole stack once per bit of the largest n, into
    squares[b + 1] = base ** 2^b, under squares[0] = 1; then each EO
    multiplies its own set-bit squares in ascending order: one take and
    one batched product per round after the first (two for the designed
    n = 25 * 2^s), an EO past its last set bit multiplying by the
    identity, which is exact.  Each EO gets the products of the binary
    method (those of np.linalg.matrix_power for n != 3), whatever else
    is in the stack.
    """
    squares = np.empty((plan.bits + 1,) + base.shape, dtype=complex)
    squares[0] = _EYE
    squares[1] = base
    for b in range(2, plan.bits + 1):
        np.matmul(squares[b - 1], squares[b - 1], out=squares[b])
    flat = squares.reshape(-1, 4, 4)
    out = flat.take(plan.rows[0], axis=0)
    for rows in plan.rows[1:]:
        out = out @ flat.take(rows, axis=0)
    return out


def _substeps(d: _Drives, start, count, block, u=None):
    """Per EO e, its substeps start[e] .. start[e] + count[e] - 1 at their
    midpoints, multiplied onto u (none: their product alone).

    At most _BLOCK substeps of each EO go into one block; past the end
    of its own count, an EO takes substeps of length 0.
    """
    start, count = np.asarray(start), np.asarray(count)
    dt = d.delta * TWO_PI
    ragged = (count != count[0]).any()
    for lo in range(0, count.max(), _BLOCK):
        steps = lo + np.arange(min(_BLOCK, count.max() - lo))
        b = block(d, (np.add.outer(start, steps) + 0.5) * dt,
                  np.where(steps < count[:, None], dt, 0.0) if ragged else dt)
        u = b if u is None else b @ u
    return u


def _folded_power(d: _Drives, n_full, block):
    """Per EO, the product of its leading substeps folded by symmetry,
    and how many substeps that covers; the rest are the EO's tail.

    A rotating stack is covered whole.  A quarter stack builds its first
    quarter period per EO, an x period or period stack its first period
    (an x drive's by ``_quarter_block`` in the product formula, any other
    block substep by substep), and each EO raises its own to its power
    (see the module docstring); an unfolded stack covers nothing.
    """
    if d.fold is None or not n_full.any():
        return np.broadcast_to(_EYE, (len(n_full), 4, 4)), np.zeros_like(n_full)
    dt = d.delta * TWO_PI
    if d.fold == _ROTATING:
        first = block(d, np.full((len(n_full), 1), dt / 2.0), dt)
        # Z(dt) and Z(n dt) of each EO
        z_step, z_all = _frame(d, dt * np.array([[1] * len(n_full), n_full]))
        return z_all[..., None] * _powers(z_step.conj()[..., None] * first,
                                          d.powers), n_full
    quarter = d.fold == _QUARTER
    if d.fold != _PERIOD and block is _product_formula_block:   # an x drive
        u = _quarter_block(d)
    else:
        u = _substeps(d, np.zeros_like(n_full),
                      np.full_like(n_full, d.period // 4 if quarter else d.period), block)
    if quarter:   # Zpi U_{T/2} = Zpi Q^T Q from Q, the first P/4 substeps
        u = _Z_PI[:, None] * (np.swapaxes(u, -1, -2) @ u)
    return _powers(u, d.powers), n_full // d.period * d.period


def _stepped_propagator(d: _Drives, block) -> np.ndarray:
    """Per EO, the product of `block` over the stack's step schedule,
    folded by the stack's fold and polar-projected: a stack of 4x4
    propagators.  Everything it steps by, it reads from the stack."""
    n_full, rem = d.schedule
    dt = d.delta * TWO_PI
    u, start = _folded_power(d, n_full, block)
    if (n_full > start).any():   # a rotating stack has no tail
        u = _substeps(d, start, n_full - start, block, u)
    if rem.any():   # an EO without a remainder keeps its u
        dt_rem = rem[:, None] * TWO_PI
        u = np.where(dt_rem[..., None] > 0.0, block(
            d, n_full[:, None] * dt + dt_rem / 2.0, dt_rem) @ u, u)
    return _nearest_unitary(u)


def _diagonal_phases(eos) -> np.ndarray:
    """Per diagonal EO of a stack, read-only, the phases 2 pi tau E of its
    four states; a duration whose phase is not finite raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.array([(e.tau, e.j, e.h1z, e.h2z) for e in eos])
        phase = TWO_PI * p[:, :1] * diagonal_energies(p[:, 1:2], p[:, 2:3], p[:, 3:4])
    finite = np.isfinite(phase).all(axis=1)
    if not finite.all():
        eo = eos[int(np.argmin(finite))]   # the first whose phase is not
        raise ConfigurationError(f"duration {eo.tau!r} is too long: its "
                                 "phase is not finite")
    phase.setflags(write=False)
    return phase


def _exact_diagonal_propagators(phases) -> np.ndarray:
    """Per diagonal EO of a stack, its closed-form propagator, from the
    phases of its states (``_diagonal_phases``)."""
    u = np.zeros((len(phases), 4, 4), dtype=complex)
    u.reshape(len(phases), 16)[:, ::5] = np.exp(-1j * phases)   # the diagonal
    return u


def _chunks(plans) -> list:
    """The plans of a stack's classes in the groups integrated together.
    Each plan's run, its class's widest run of substeps, orders the stack
    (a stable sort), and each group takes plans while its block, as many
    rows as plans by the widest run among them, stays within _BLOCK
    substep matrices.  A plan with a run longer than _BLOCK is a group of
    one, and ``_substeps`` builds the run _BLOCK substeps at a time.
    """
    groups = []
    for plan in sorted(plans, key=lambda plan: plan.run):
        if groups and (len(groups[-1]) + 1) * max(1, plan.run) <= _BLOCK:
            groups[-1].append(plan)
        else:
            groups.append([plan])
    return groups


class _Plan(NamedTuple):
    """How one EO is integrated (``_layout``, ``_chunks`` and ``_Drives``
    read it): its class (``_z_class``), U(eo) = Z_q U(eo0) Z_q^dagger;
    the key (delta, fold, omega) of the stack eo0 joins (omega None for
    a rotating one, _DIAGONAL for a diagonal one); and eo0's widest run,
    what it puts into one block: 1 (one midpoint) for a rotating EO,
    every substep (n_full) for an unfolded one, and max(P/4 or P,
    n_full mod P) for one folded by the drive period P.  A diagonal EO,
    whose exact propagator takes no steps, has run 0.  The stack gives
    the step schedule and the period (``_Drives``)."""

    eo0: EOParams
    q: int
    key: tuple
    run: int


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(eo: EOParams) -> _Plan:
    """The EO's plan, computed once per EO and class: the one place that
    decides how an EO is integrated (the fold rules are the module
    docstring's).

    A bad step size, duration or field raises, on every call (a cache stores no
    exception).  A member takes its representative's plan, so every
    member of a class gets the one eo0 object this memo holds, and
    dicts keyed by eo0 match it by identity; its key and run are the
    class's, so only a representative is ever stepped.
    """
    _check(eo)
    eo0, q = _z_class(eo)
    if eo0 is not eo:
        eo0, _, key, run = _plan(eo0)
        return _Plan(eo0, q, key, run)
    if eo.is_diagonal:
        return _Plan(eo, 0, _DIAGONAL, 0)
    n_full, _ = _step_schedule(eo.tau, eo.delta)
    period = _period_steps(eo.omega, eo.delta)
    if eo.is_rotating:
        fold, run = _ROTATING, 1
    elif not period or n_full < 2 * period:
        fold, run = None, n_full
    elif any((eo.sf1y, eo.sf2y, eo.phi_x, eo.phi_y, eo.h1x, eo.h1y, eo.h2x, eo.h2y)):
        fold, run = _PERIOD, max(period, n_full % period)
    elif period % 4:   # an x drive at phi = 0
        fold, run = _X_PERIOD, max(period, n_full % period)
    else:
        fold, run = _QUARTER, max(period // 4, n_full % period)
    return _Plan(eo, 0, (eo.delta, fold, None if fold == _ROTATING else eo.omega), run)


class _Store(OrderedDict):
    """Read-only propagators by EO, least recently used first.
    cache_info() has the hits and misses of a functools LRU cache:
    misses are the propagators integrated since the last clear, hits the
    other lookups."""

    lookups = integrated = 0

    def cache_info(self) -> SimpleNamespace:
        return SimpleNamespace(hits=self.lookups - self.integrated,
                               misses=self.integrated)


# The one propagator store, under the name bench/worker.py reads.
_cached_propagator = _Store()


class _Layout(NamedTuple):
    """How ``integrate`` takes one list of missed EOs: the diagonal
    classes as one closed-form stack, by their phases (None if there are
    none), then the stepped groups, each a stack (``_Drives``), and, per
    missed EO, the row of its class among the class propagators in that
    order and its q."""

    diagonal: np.ndarray | None
    groups: tuple[_Drives, ...]
    rows: np.ndarray
    qs: np.ndarray


@lru_cache(maxsize=_LAYOUTS)
def _layout(misses: tuple[EOParams, ...]) -> _Layout:
    """The layout of the missed EOs, in walk order, computed once per
    list, and the one place a cold walk plans: each EO's plan (``_plan``)
    is looked up once, and maps it to its class; each class, kept with
    the first plan that names it, joins the stack of its step size, fold
    and drive frequency (every rotating class of one step size shares
    one), split into the groups of ``_chunks``, and each group's stack is
    built from those plans; the diagonal classes are one stack.  A bad
    step size, duration or field, or a diagonal phase that is not finite,
    raises, on every call."""
    plans = [_plan(eo) for eo in misses]
    stacks: dict[tuple, dict] = {}
    for plan in plans:
        stacks.setdefault(plan.key, {}).setdefault(plan.eo0, plan)
    diagonal = stacks.pop(_DIAGONAL, None)
    groups = tuple(_Drives(chunk) for stack in stacks.values()
                   for chunk in _chunks(stack.values()))
    classes = [*(diagonal or ()), *(eo0 for d in groups for eo0 in d.eos)]
    row = {eo0: i for i, eo0 in enumerate(classes)}
    return _Layout(diagonal and _diagonal_phases(list(diagonal)), groups,
                   np.array([row[p.eo0] for p in plans], dtype=np.intp),
                   np.array([p.q for p in plans], dtype=np.intp))


def integrate(eos) -> None:
    """Store the propagator of each EO not stored yet; a stored EO counts
    as used.

    The missed EOs' layout (``_layout``, memoized per list of missed
    EOs) says which class propagators to integrate and how; each is
    integrated once, and one stacked product then conjugates them into
    those of the missed EOs, which are stored.  A bad step size, duration
    or field, or a diagonal EO whose phase is not finite, raises before
    any EO is integrated.
    """
    store = _cached_propagator
    misses = {}
    for eo in eos:
        try:
            store.move_to_end(eo)
        except KeyError:
            misses[eo] = None
    if not misses:
        return
    layout = _layout(tuple(misses))
    classes = [_stepped_propagator(d, _product_formula_block) for d in layout.groups]
    if layout.diagonal is not None:
        classes.insert(0, _exact_diagonal_propagators(layout.diagonal))
    mats = _conjugated(np.concatenate(classes)[layout.rows], layout.qs)
    mats.setflags(write=False)
    store.update(zip(misses, mats))
    store.integrated += len(misses)
    while len(store) > _CACHE_SIZE:
        store.popitem(last=False)


def eo_propagator(eo: EOParams) -> np.ndarray:
    """The unitary carrying a state across one EO, read-only, from the
    store; an EO not stored is integrated alone first."""
    store = _cached_propagator
    try:
        store.move_to_end(eo)
    except KeyError:
        integrate((eo,))
    store.lookups += 1   # a lookup that raised is none
    return store[eo]


def oracle_propagator(eo: EOParams) -> np.ndarray:
    """The reference unitary of one EO: the dense exponential of H at
    each substep's midpoint, at the EO's step size, folded as the product
    formula is, and conjugated from its class as the stored propagator
    is.  Integrated alone on every call, and never stored."""
    plan = _plan(eo)
    return _conjugated(_stepped_propagator(_Drives((plan,)), _dense_block),
                       [plan.q])[0]


def clear_propagator_cache() -> None:
    """Empty the propagator store and reset its statistics."""
    _cached_propagator.clear()
    _cached_propagator.lookups = _cached_propagator.integrated = 0
