"""Time evolution of one elementary operation.

A propagator is a function of its EO alone: the EO's own step size
(``EOParams.delta``) and its fields pick the construction.  The store
holds two:

* product formula (an EO with transverse fields) -- symmetric (Strang)
  operator splitting.  Each substep freezes the fields at the substep
  midpoint and applies

      U_step = T(dt/2) D(dt) T(dt/2)

  where T is the exact exponential of the transverse part (a kron of two
  single-spin rotations; the two spins' transverse terms commute) and D
  the exact diagonal exponential of the Ising and z terms.  Every factor
  is exactly unitary; the global error is O(delta^2).  Adjacent
  half-steps are multiplied once (Strang, SIAM J. Numer. Anal. 5, 506
  (1968)): m substeps are the product of m + 1 factors

      T_{m-1} D_{m-1} (T_{m-1} T_{m-2}) ... D_1 (T_1 T_0) D_0 T_0,

  each T_j T_{j-1} one 2x2 product per spin.

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
  single-midpoint block is built and raised to the n-th power.
* "period": otherwise, when the drive period 1/omega (over 2*pi) is a
  whole number P of steps, i.e. 1/(omega*delta) is an integer to a
  relative 1e-12, and the EO spans at least 2P full substeps, the
  fields repeat exactly every P substeps (Floquet; Shirley, Phys. Rev.
  138, B979 (1965)), so one period's product U_T is raised to
  q = n_full // P; the n_full mod P leftover substeps are stepped at
  their true midpoints.
* "quarter": an x drive (only the x channel driven, phi_x = phi_y = 0,
  no static transverse field) that folds by period, with P a multiple
  of 4, has two more exact symmetries, so only its first P/4 substeps
  are built, as their product Q:
  - half period: the field at t + T/2 is minus the field at t, and
    Zpi = exp(i pi S^z_tot) = diag(-1, 1, 1, -1) flips both transverse
    operators while commuting with the rest, so
    U_T = (Zpi U_{T/2})^2 and U_T^q = (Zpi U_{T/2})^(2q);
  - time reversal: the field over half a period is symmetric about
    T/4, so the second quarter runs the first one's substeps in reverse
    order.  An x drive makes H real, so every substep block is
    complex-symmetric (for the Strang split T D T as for the dense
    exponential) and U_{T/2} = Q^T Q.
  Any other periodic drive (phi != 0, a static transverse field, a y
  drive, both axes driven or P not a multiple of 4) folds by period.
* None: in every other case (omega = 0, a period that is not a whole
  number of steps or is shorter than one step, a static pulse shorter
  than two periods) every substep is stepped.

Powers are taken by repeated squaring (``_powers``), and the finished
propagator is polar-projected onto the unitary group once, by one
Newton-Schulz step.

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
- rotating: one single-midpoint block per EO, the frame factors, the
  powers (one squaring pass over the bits of the largest n, then each
  EO's product of its own set-bit squares, gathered into one batched
  product per set bit after the first), the remainder blocks and one
  stacked Newton-Schulz step;
- quarter or period: one quarter-period block (then Zpi placed per EO)
  or one period block over all the EOs, each EO's own power, 2q or q,
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
(step size, fold, drive frequency), its step schedule, the drive period
its fold folds by and its widest run.  It is computed once per EO, so
a cold table pays per stack, not per EO, and the stacks, the groups and
the folded powers all read it.  One store, keyed by the EO, keeps the
last _CACHE_SIZE propagators used.

If the duration is not an integer multiple of the step, the final substep
shrinks to the remainder: silently truncating a pulse would corrupt its
rotation angle, which is exactly the sensitivity under study.  The field
clock of every EO starts at t = 0 (its drive phases phi are the phases
at its start).
"""
from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import EOParams, MachineConfig, diagonal_energies, is_finite_number
from .operators import S1X, S1Y, S2X, S2Y, TWO_PI

_BLOCK = 1024  # substep matrices per block
_CACHE_SIZE = 1024  # propagators kept by the store
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
    builder, parse_program_text, design_pulse and convergence_report
    check delta by this one rule; stepping an EO checks only its first
    part."""
    if not (is_finite_number(delta) and delta > 0):
        raise ConfigurationError(f"delta must be positive and finite, got {delta!r}")
    if machine is not None:
        fastest = max(abs(machine.h1z), abs(machine.h2z))
        if delta * fastest > MAX_DELTA_TIMES_DRIVE:
            raise ConfigurationError(
                f"delta {delta} does not resolve the drive at frequency "
                f"{fastest:g}: need delta * {fastest:g} <= {MAX_DELTA_TIMES_DRIVE}")
    return delta


def _check(eo: EOParams) -> None:
    """Raise ConfigurationError unless the EO's step size is a positive
    finite number and its duration is non-negative (NaN is neither)."""
    check_delta(eo.delta)
    if not eo.tau >= 0:
        raise ConfigurationError(f"duration must be non-negative, got {eo.tau!r}")


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
    """Field parameters of a stack of EOs, one row per EO, and the fold
    (their plans') they share: the stack's EOs all turn rigidly about z
    (_ROTATING), or have one drive frequency.
    """

    def __init__(self, eos, fold: str | None):
        p = np.array([(e.omega, e.phi_x, e.phi_y, e.h1x, e.h1y, e.h2x, e.h2y,
                       e.sf1x, e.sf1y, e.sf2x, e.sf2y, e.j, e.h1z, e.h2z)
                      for e in eos])
        self.eos = tuple(eos)
        self.omega = p[:, 0]
        self.phi = p[:, 1:3]                          # x, y
        self.static = p[:, 3:7].reshape(-1, 2, 2)     # [spin, axis]
        self.amp = p[:, 7:11].reshape(-1, 2, 2)       # [spin, axis]
        self.ez = diagonal_energies(p[:, 11:12], p[:, 12:13], p[:, 13:14])
        self.fold = fold


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


def _product_formula_block(d: _Drives, mids, dt) -> np.ndarray:
    """Per EO, the propagator of equal-length substeps at mids[EO, substep].

    dt is one step length, one per EO as an (EO, 1) array, or one per
    substep as an (EO, substep) array; a substep of length 0 is exactly
    the identity.

    The m substeps T_j D_j T_j are regrouped into m + 1 factors D_j K_j,
    each substep's closing half-step merged into the next one's opening
    half-step: K_j = T_j T_{j-1}, with T_{-1} = T_m = 1 (substeps of
    length 0 at both ends) and D_m = 1.  T = R2 (x) R1, so K_j is the
    kron of two 2x2 products, built elementwise with its rows scaled by
    D_j, and `_chain` multiplies the factors.
    """
    n_eo, m = mids.shape
    f = _fields_at(d, mids).transpose(2, 3, 0, 1)   # [spin, axis, EO, substep]
    a = np.ones((2, n_eo, m + 2))
    b = np.zeros((2, n_eo, m + 2), dtype=complex)
    a[..., 1:-1], b[..., 1:-1] = _halfstep_rotations(f[:, 0], f[:, 1], dt / 4.0)
    # K_j = T_j T_{j-1} per spin: [[ka, kb], [-kb*, ka*]]
    ka = a[..., 1:] * a[..., :-1] - b[..., 1:] * b[..., :-1].conj()
    kb = a[..., 1:] * b[..., :-1] + b[..., 1:] * a[..., :-1]
    k1, k2 = (np.array([[ka[s], kb[s]], [-kb[s].conj(), ka[s].conj()]])
              for s in (0, 1))                              # [row, col, EO, j]
    phases = np.ones((2, 2, n_eo, m + 1), dtype=complex)    # D_j[s2, s1]
    phases[..., :m] = np.exp(-1j * (d.ez.T.reshape(2, 2, n_eo, 1) * dt))
    # (D_j K_j)[s2 s1, t2 t1] = D_j[s2, s1] K2[s2, t2] K1[s1, t1], one s2 at
    # a time: a temporary half the size of the factors took fresh pages,
    # and their page faults, on every call
    out = np.empty((n_eo, m + 1, 2, 2, 2, 2), dtype=complex)
    rows = out.transpose(2, 4, 3, 5, 0, 1)                  # [s2, t2, s1, t1, EO, j]
    for s2 in range(2):
        np.multiply((k2[s2][:, None] * phases[s2])[:, :, None], k1, out=rows[s2])
    return _chain(out.reshape(n_eo, m + 1, 4, 4))


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


def _frame(d: _Drives, theta) -> np.ndarray:
    """Diagonals of Z(theta) = exp(+i omega theta S^z_tot); theta[..., EO]."""
    return np.exp(1j * d.omega[:, None] * theta[..., None] * _SZ_TOTAL)


def _powers(base: np.ndarray, ns) -> np.ndarray:
    """base[e] ** ns[e] for a stack, by repeated squaring.

    Each n >= 0, and at least one n >= 1; n = 0 gives the identity.  One
    pass squares the whole stack once per bit of the largest n, into
    squares[b] = base ** 2^b; then each EO multiplies its own set-bit
    squares in ascending order, as gathered batched products: one call
    per set bit after the first (two for the designed n = 25 * 2^s).
    Each EO gets the products of the binary method (those of
    np.linalg.matrix_power for n != 3), whatever else is in the stack.
    """
    ns = np.asarray(ns)
    squares = np.empty((int(ns.max()).bit_length(),) + base.shape, dtype=complex)
    squares[0] = base
    for b in range(1, len(squares)):
        np.matmul(squares[b - 1], squares[b - 1], out=squares[b])
    has = (ns[:, None] >> np.arange(len(squares))) & 1 == 1    # [EO, bit]
    order = np.argsort(~has, axis=1, kind="stable")   # set bits first, ascending
    counts = has.sum(axis=1)
    rows = np.arange(len(ns))
    out = squares[order[:, 0], rows]
    out[counts == 0] = _EYE
    for j in range(1, counts.max()):
        e = rows[counts > j]
        out[e] = out[e] @ squares[order[e, j], e]
    return out


def _substeps(d: _Drives, start, count, dt: float, block, u=None):
    """Per EO e, its substeps start[e] .. start[e] + count[e] - 1 at their
    midpoints, multiplied onto u (none: their product alone).

    At most _BLOCK substeps of each EO go into one block; past the end
    of its own count, an EO takes substeps of length 0.
    """
    start, count = np.asarray(start), np.asarray(count)
    ragged = (count != count[0]).any()
    for lo in range(0, count.max(), _BLOCK):
        steps = lo + np.arange(min(_BLOCK, count.max() - lo))
        b = block(d, (np.add.outer(start, steps) + 0.5) * dt,
                  np.where(steps < count[:, None], dt, 0.0) if ragged else dt)
        u = b if u is None else b @ u
    return u


def _folded_power(d: _Drives, n_full, delta: float, block):
    """Per EO, the product of its leading substeps folded by symmetry,
    and how many substeps that covers; the rest are the EO's tail.

    A rotating stack is covered whole.  A quarter stack builds one
    quarter period per EO and a period stack one whole period, the
    period of its EOs' plans, and each EO raises its own to its power
    (see the module docstring); an unfolded stack covers nothing.
    """
    if d.fold is None or not n_full.any():
        return np.broadcast_to(_EYE, (len(n_full), 4, 4)), np.zeros_like(n_full)
    dt = delta * TWO_PI
    if d.fold == _ROTATING:
        first = block(d, np.full((len(n_full), 1), dt / 2.0), dt)
        # Z(dt) and Z(n dt) of each EO
        z_step, z_all = _frame(d, dt * np.array([[1] * len(n_full), n_full]))
        return z_all[..., None] * _powers(z_step.conj()[..., None] * first,
                                          n_full), n_full
    period = _plan(d.eos[0]).period
    quarter, qs = d.fold == _QUARTER, n_full // period
    u = _substeps(d, np.zeros_like(n_full),
                  np.full_like(n_full, period // 4 if quarter else period), dt, block)
    if quarter:   # Zpi U_{T/2} = Zpi Q^T Q from Q, the first P/4 substeps
        u = _Z_PI[:, None] * (np.swapaxes(u, -1, -2) @ u)
    return _powers(u, (2 if quarter else 1) * qs), qs * period


def _stepped_propagator(d: _Drives, delta: float, block) -> np.ndarray:
    """Per EO, the product of `block` over its substep schedule, folded by
    symmetry and polar-projected: a stack of 4x4 propagators.  delta is
    the step size of every EO of the stack, each EO's own."""
    # a diagonal EO, stepped only as a reference, has no planned schedule
    schedules = [_plan(e).schedule or _step_schedule(e.tau, delta) for e in d.eos]
    n_full, rem = map(np.array, zip(*schedules))
    dt = delta * TWO_PI
    u, start = _folded_power(d, n_full, delta, block)
    u = _substeps(d, start, n_full - start, dt, block, u)
    if rem.any():   # an EO without a remainder keeps its u
        dt_rem = rem[:, None] * TWO_PI
        u = np.where(dt_rem[..., None] > 0.0, block(
            d, n_full[:, None] * dt + dt_rem / 2.0, dt_rem) @ u, u)
    return _nearest_unitary(u)


def _exact_diagonal_propagators(eos) -> np.ndarray:
    """Per diagonal EO of a stack, its closed-form propagator."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = TWO_PI * np.array([[e.tau] for e in eos]) * _Drives(eos, None).ez
    finite = np.isfinite(phase).all(axis=1)
    if not finite.all():
        eo = eos[int(np.argmin(finite))]   # the first whose phase is not
        raise ConfigurationError(f"duration {eo.tau!r} is too long: its "
                                 "phase is not finite")
    u = np.zeros((len(eos), 4, 4), dtype=complex)
    u[:, range(4), range(4)] = np.exp(-1j * phase)
    return u


def _chunks(eos: list) -> list:
    """The EOs of a stack in the groups integrated together.  Each EO's
    widest run of substeps (its plan's run) orders the stack (a stable
    sort), and each group takes EOs while its block, as many rows as EOs
    by the widest run among them, stays within _BLOCK substep matrices.
    An EO with a run longer than _BLOCK is a group of one, and
    ``_substeps`` builds the run _BLOCK substeps at a time.
    """
    groups = []
    for run, eo in sorted([(_plan(e).run, e) for e in eos], key=lambda pair: pair[0]):
        if groups and (len(groups[-1]) + 1) * max(1, run) <= _BLOCK:
            groups[-1].append(eo)
        else:
            groups.append([eo])
    return groups


class _Plan(NamedTuple):
    """How ``integrate`` takes one EO: its class (``_z_class``), U(eo) =
    Z_q U(eo0) Z_q^dagger; the key (delta, fold, omega) of the stack eo0
    joins (omega None for a rotating one, _DIAGONAL for a diagonal one);
    eo0's step schedule (n_full, rem); the drive period P in substeps
    that a quarter or period fold folds by (0 for any other fold); and
    eo0's widest run, what it puts into one block: 1 (one midpoint) for a
    rotating EO, every substep for an unfolded one, and max(P/4 or P,
    n_full mod P) for a folded one.  A diagonal EO, whose exact
    propagator takes no steps, has no schedule, period 0 and run 0."""

    eo0: EOParams
    q: int
    key: tuple
    schedule: tuple[int, float] | None
    period: int
    run: int


@lru_cache(maxsize=_CACHE_SIZE)
def _plan(eo: EOParams) -> _Plan:
    """The EO's plan, computed once per EO and class: the one place that
    decides how an EO is integrated (the fold rules are the module
    docstring's).

    A bad step size or duration raises, on every call (a cache stores no
    exception).  A member takes its representative's plan, so every
    member of a class gets the one eo0 object this memo holds, and
    dicts keyed by eo0 match it by identity; its fold, period and run
    are the class's, so only a representative is ever stepped.
    """
    _check(eo)
    eo0, q = _z_class(eo)
    if eo0 is not eo:
        return _plan(eo0)._replace(q=q)
    if eo.is_diagonal:
        return _Plan(eo, 0, _DIAGONAL, None, 0, 0)
    schedule = n_full, _ = _step_schedule(eo.tau, eo.delta)
    period = _period_steps(eo.omega, eo.delta)
    if eo.is_rotating:
        fold, period, run = _ROTATING, 0, 1
    elif not period or n_full < 2 * period:
        fold, period, run = None, 0, n_full
    elif not (period % 4 or any((eo.sf1y, eo.sf2y, eo.phi_x, eo.phi_y, eo.h1x,
                                 eo.h1y, eo.h2x, eo.h2y))):   # an x drive at phi = 0
        fold, run = _QUARTER, max(period // 4, n_full % period)
    else:
        fold, run = _PERIOD, max(period, n_full % period)
    return _Plan(eo, 0, (eo.delta, fold, None if fold == _ROTATING else eo.omega),
                 schedule, period, run)


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


def integrate(eos) -> None:
    """Store the propagator of each EO not stored yet; a stored EO counts
    as used.

    Each missed EO is mapped to its class by its plan (``_plan``), and
    each class is integrated once, by one rule: it joins the stack of
    its step size, fold and drive frequency (every rotating class of one
    step size shares one), and each stack is integrated in the groups of
    ``_chunks``; the diagonal classes are one closed-form stack.  One
    stacked product then conjugates each class propagator into those of
    its member EOs, which are stored.  A bad step size or duration raises
    before any EO is integrated, and a diagonal EO whose phase is not
    finite before any is stored.
    """
    store = _cached_propagator
    members: dict[EOParams, _Plan] = {}
    stacks: dict[tuple, dict] = {}
    for eo in eos:
        try:
            store.move_to_end(eo)
            continue
        except KeyError:
            pass
        plan = members[eo] = _plan(eo)
        stacks.setdefault(plan.key, {})[plan.eo0] = None
    if not members:
        return
    done = {}
    for key, stack in stacks.items():
        group = list(stack)
        if key == _DIAGONAL:
            done.update(zip(group, _exact_diagonal_propagators(group)))
            continue
        delta, fold, _ = key
        for chunk in _chunks(group):
            done.update(zip(chunk, _stepped_propagator(
                _Drives(chunk, fold), delta, _product_formula_block)))
    plans = members.values()
    mats = _conjugated(np.array([done[p.eo0] for p in plans]), [p.q for p in plans])
    mats.setflags(write=False)
    store.update(zip(members, mats))
    store.integrated += len(members)
    while len(store) > _CACHE_SIZE:
        store.popitem(last=False)


def eo_propagator(eo: EOParams) -> np.ndarray:
    """The unitary carrying a state across one EO, read-only, from the
    store; an EO not stored is integrated alone first."""
    store = _cached_propagator
    store.lookups += 1
    try:
        store.move_to_end(eo)
    except KeyError:
        integrate((eo,))
    return store[eo]


def oracle_propagator(eo: EOParams) -> np.ndarray:
    """The reference unitary of one EO: the dense exponential of H at
    each substep's midpoint, at the EO's step size, folded as the product
    formula is, and conjugated from its class as the stored propagator
    is.  Integrated alone on every call, and never stored."""
    plan = _plan(eo)
    drives = _Drives((plan.eo0,), plan.key[1])
    return _conjugated(_stepped_propagator(drives, plan.eo0.delta, _dense_block),
                       [plan.q])[0]


def clear_propagator_cache() -> None:
    """Empty the propagator store and reset its statistics."""
    _cached_propagator.clear()
    _cached_propagator.lookups = _cached_propagator.integrated = 0
