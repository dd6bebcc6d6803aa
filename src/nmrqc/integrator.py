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
  is exactly unitary; the global error is O(delta^2).

* exact diagonal (an EO with no transverse fields) -- closed-form
  phases.  Used for the long conditional-phase evolutions, which would
  otherwise cost ~10^8 substeps for identical physics.

The reference, ``oracle_propagator``, is never stored: the dense 4x4
exponential of H(t_mid) per substep via eigendecomposition.  Slower,
split-free; it validates the product formula.  A different step size
is a different EO, ``eo.replace(delta=d)``.

The product formula and the reference share one loop, which folds the
substep product by a symmetry of the drive wherever one holds exactly:

* A rotating drive (``EOParams.is_rotating``: no static transverse
  field, equal x/y amplitudes, phi_y - phi_x = pi/2) turns rigidly
  about z.  The Ising and z terms commute with total S^z, so every
  substep block is a z-conjugate of the first one,
  B(t + theta) = Z(theta) B(t) Z(theta)^dagger with
  Z(theta) = exp(+i omega theta S^z_tot), and the n full substeps give
  exactly U = Z(n dt) (Z(dt)^dagger B(dt/2))^n (the rotating frame;
  Vandersypen & Chuang, Rev. Mod. Phys. 76, 1037 (2004)).  One
  single-midpoint block is built and raised to the n-th power.
* Otherwise, when the drive period 1/omega (over 2*pi) is a whole number
  P of steps, i.e. 1/(omega*delta) is an integer to a relative 1e-12,
  and the EO spans at least 2P full substeps, the fields repeat exactly
  every P substeps (Floquet; Shirley, Phys. Rev. 138, B979 (1965)), so
  one period's product U_T is raised to q = n_full // P; the
  n_full mod P leftover substeps are stepped at their true midpoints.
  A single-axis drive (one axis driven, phi_x = phi_y = 0, no static
  transverse field) with P a multiple of 4 has two more exact
  symmetries, so only its first P/4 substeps are built, as their
  product Q:
  - half period: the field at t + T/2 is minus the field at t, and
    Zpi = exp(i pi S^z_tot) = diag(-1, 1, 1, -1) flips both transverse
    operators while commuting with the rest, so
    U_T = (Zpi U_{T/2})^2 and U_T^q = (Zpi U_{T/2})^(2q);
  - time reversal: the field over half a period is symmetric about
    T/4, so the second quarter runs the first one's substeps in reverse
    order.  An x drive makes H real, so every substep block is
    complex-symmetric (for the Strang split T D T as for the dense
    exponential) and U_{T/2} = Q^T Q.  Conjugation by Z(pi/2) makes a y
    drive real; undone, it gives U_{T/2} = Zpi Q^T Zpi Q.
  Any other periodic drive (phi != 0, a static transverse field, both
  axes driven or P not a multiple of 4) builds the product of all P
  substeps.
* In every other case (omega = 0, a period that is not a whole number of
  steps or is shorter than one step, a static pulse shorter than two
  periods) every substep is stepped.

Every run of substeps (a quarter period, a period, a tail) is built in
vectorized blocks of at most _CHUNK substeps per EO.  Powers are taken
by repeated squaring, and the finished propagator is polar-projected
onto the unitary group once.

The loop runs on a stack of EOs: the field parameters, the blocks and
every step above carry a leading EO axis, and each EO has its own step
count.  A stack shares one fold (``_fold``):
- a rotating stack is integrated in one pass: one single-midpoint block
  per EO, the frame factors, repeated squaring over the bits of the
  largest n (each EO keeps its partial product where its own n lacks a
  bit), the remainder blocks and one stacked SVD;
- a quarter-folded stack holds static EOs of one drive frequency, x and
  y drives alike: one quarter-period block over all of them, Zpi placed
  per EO, each EO's own power 2q, the tails (an EO whose tail is
  shorter takes substeps of length 0, exactly the identity, at its
  end), the remainders and one SVD.  A quarter period is only 25 or
  100 substeps at delta = 0.01, so a block's fixed cost per call
  outweighs its substeps; a stack is split into groups so that no
  block holds more than _STACK_SUBSTEPS substep matrices.
Each EO's result is bit-identical whatever else shares its stack, and a
lone EO is a stack of one.  Other EOs (a full-period or chunked
product) are integrated alone, and so is every reference.

``integrate`` integrates the EOs of a list not stored yet, in stacks of
one step size; a program walk calls it once, then looks each EO up.
One store, keyed by the EO, keeps the last _CACHE_SIZE propagators
used.

If the duration is not an integer multiple of the step, the final substep
shrinks to the remainder: silently truncating a pulse would corrupt its
rotation angle, which is exactly the sensitivity under study.  The field
clock of every EO starts at t = 0 (its drive phases phi are the phases
at its start).
"""
from __future__ import annotations

import math
import operator
from collections import OrderedDict
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import EOParams, diagonal_energies, is_finite_number
from .operators import S1X, S1Y, S2X, S2Y, TWO_PI

_CHUNK = 1 << 15  # substeps of one EO vectorized per block
_STACK_SUBSTEPS = 512  # substeps per block of a quarter-folded stack
_CACHE_SIZE = 1024  # propagators kept by the store
_PERIOD_RTOL = 1e-12  # how close 1/(omega*delta) must be to a whole number
_MAX_STEPS = 2.0 ** 53  # beyond it, a float no longer counts steps one by one
_SZ_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])  # S1z + S2z, |00>,|10>,|01>,|11>
_Z_PI = np.array([-1.0, 1.0, 1.0, -1.0])  # exp(i pi S^z_tot)
_EYE = np.eye(4, dtype=complex)


def check_delta(delta) -> None:
    """Raise ConfigurationError unless the step size (over 2*pi) is a
    positive finite number."""
    if not (is_finite_number(delta) and delta > 0):
        raise ConfigurationError(f"delta must be positive and finite, got {delta!r}")


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
_QUARTER = "quarter"    # a single-axis static drive, folded from a quarter period


def _fold(eo: EOParams, delta: float) -> str | None:
    """The symmetry that folds an EO's substeps: _ROTATING, _QUARTER, or
    None for a whole period or every substep (see the module docstring)."""
    if eo.is_rotating:
        return _ROTATING
    period = _period_steps(eo.omega, delta)
    if not period or period % 4:
        return None
    single_axis = bool(eo.sf1x or eo.sf2x) != bool(eo.sf1y or eo.sf2y)
    if (single_axis and not any((eo.phi_x, eo.phi_y, eo.h1x, eo.h1y, eo.h2x,
                                 eo.h2y))
            and _step_schedule(eo.tau, delta)[0] >= 2 * period):
        return _QUARTER
    return None


class _Drives:
    """Field parameters of a stack of EOs, one row per EO.

    A stack is either one EO or EOs that share a fold (``_fold``): EOs that all turn rigidly about z
    (_ROTATING), or quarter-folded static EOs of one drive frequency
    (_QUARTER).
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
    """Stacked 2x2 factors exp(i (dt/2) (fx S^x + fy S^y)), alpha = dt/4.

    A spin without transverse field (rho = 0) gets the identity: its
    off-diagonal entries are zero whatever sin(alpha rho)/rho reads.
    """
    rho = np.hypot(fx, fy)
    angle = alpha * rho
    c = np.cos(angle)
    i_snc = 1j * (np.sin(angle) / np.maximum(rho, 1e-300))
    i_fy = 1j * fy
    out = np.empty(fx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = i_snc * (fx - i_fy)
    out[..., 1, 0] = i_snc * (fx + i_fy)
    return out


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

    A long product of individually unitary factors (repeated squares of
    a block, or chunks of substeps) picks up float noise; projecting the
    finished product once removes it (the exact propagator is unitary,
    so this perturbs by no more than the noise).
    """
    u, _s, vh = np.linalg.svd(m)
    return u @ vh


def _product_formula_block(d: _Drives, mids, dt) -> np.ndarray:
    """Per EO, the propagator of equal-length substeps at mids[EO, substep].

    dt is one step length, one per EO as an (EO, 1) array, or one per
    substep as an (EO, substep) array; a substep of length 0 is exactly
    the identity.
    """
    dt = np.atleast_2d(dt)
    f = _fields_at(d, mids)
    r = _halfstep_rotations(f[..., 0], f[..., 1], (dt / 4.0)[..., None])
    r1, r2 = r[:, :, 0], r[:, :, 1]
    n_eo, m = mids.shape
    t_half = (r2[..., :, None, :, None]
              * r1[..., None, :, None, :]).reshape(n_eo, m, 4, 4)
    phases = np.exp(-1j * dt[..., None] * d.ez[:, None, :])
    return _chain(np.einsum("...ab,...b,...bc->...ac", t_half, phases, t_half))


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
    pass over the bits of the largest n; an EO whose exponent lacks a
    bit keeps its partial product, the identity until its first set bit.
    A product with the identity is exact, so each EO gets the products
    of the binary method (those of np.linalg.matrix_power for n != 3),
    whatever else is in the stack.
    """
    every = reduce(operator.and_, ns)
    some = reduce(operator.or_, ns)
    out = None
    for b in range(max(ns).bit_length()):
        if b:
            base = base @ base
        if not (some >> b) & 1:
            continue
        product = base if out is None else out @ base
        if (every >> b) & 1:
            out = product
        else:
            has = np.array([(n >> b) & 1 for n in ns], dtype=bool)
            out = np.where(has[:, None, None], product,
                           _EYE if out is None else out)
    return out


def _substeps(d: _Drives, start, count, dt: float, block, u=None):
    """Per EO e, its substeps start[e] .. start[e] + count[e] - 1 at their
    midpoints, multiplied onto u (none: their product alone).

    At most _CHUNK substeps of each EO go into one block; past the end
    of its own count, an EO takes substeps of length 0.
    """
    start, count = np.asarray(start), np.asarray(count)
    ragged = (count != count[0]).any()
    for lo in range(0, count.max(), _CHUNK):
        steps = lo + np.arange(min(_CHUNK, count.max() - lo))
        b = block(d, (np.add.outer(start, steps) + 0.5) * dt,
                  np.where(steps < count[:, None], dt, 0.0) if ragged else dt)
        u = b if u is None else b @ u
    return u


def _folded_power(d: _Drives, n_full, delta: float, block):
    """Per EO, the product of its leading substeps folded by symmetry,
    and how many substeps that covers; the rest are the EO's tail.

    A rotating stack is covered whole.  A quarter-folded stack builds
    one quarter period per EO, any other periodic EO a full period (see
    the module docstring); an EO that does not fold covers nothing.
    """
    if not any(n_full):
        return np.broadcast_to(_EYE, (len(n_full), 4, 4)), n_full
    dt = delta * TWO_PI
    if d.fold == _ROTATING:
        first = block(d, np.full((len(n_full), 1), dt / 2.0), dt)
        # Z(dt) and Z(n dt) of each EO
        z_step, z_all = _frame(d, dt * np.array([[1] * len(n_full), n_full]))
        return z_all[..., None] * _powers(z_step.conj()[..., None] * first,
                                          n_full), n_full
    period = _period_steps(d.omega[0], delta)
    qs = [n // period for n in n_full] if period else [0]
    zeros = np.zeros(len(n_full), dtype=int)
    if d.fold == _QUARTER:
        # Zpi U_{T/2} from Q, the first P/4 substeps: Zpi Q^T Q for an x
        # drive, Q^T Zpi Q for a y drive.
        quarter = _substeps(d, zeros, zeros + period // 4, dt, block)
        mirrored = np.swapaxes(quarter, -1, -2)
        y_drive = d.amp[:, :, 1].any(axis=1)
        z_pi_half = np.where(y_drive[:, None, None],
                             mirrored @ (_Z_PI[:, None] * quarter),
                             _Z_PI[:, None] * (mirrored @ quarter))
        return _powers(z_pi_half, [2 * q for q in qs]), [q * period for q in qs]
    if qs[0] < 2:
        return _EYE[None], [0]
    return (_powers(_substeps(d, zeros, zeros + period, dt, block), qs),
            [qs[0] * period])


def _stepped_propagator(d: _Drives, delta: float, block) -> np.ndarray:
    """Per EO, the product of `block` over its substep schedule, folded by
    symmetry and polar-projected: a stack of 4x4 propagators."""
    n_full, rem = zip(*(_step_schedule(e.tau, delta) for e in d.eos))
    dt = delta * TWO_PI
    u, start = _folded_power(d, n_full, delta, block)
    u = _substeps(d, start, np.subtract(n_full, start), dt, block, u)
    if any(rem):
        dt_rem = np.array(rem) * TWO_PI
        mid = np.array(n_full) * dt + dt_rem / 2.0
        stepped = block(d, mid[:, None], dt_rem[:, None]) @ u
        u = stepped if all(rem) else np.where(dt_rem[:, None, None] > 0.0,
                                              stepped, u)
    return _nearest_unitary(u)


def _exact_diagonal_propagator(eo: EOParams) -> np.ndarray:
    ez = diagonal_energies(eo.j, eo.h1z, eo.h2z)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = TWO_PI * eo.tau * ez
    if not np.isfinite(phase).all():
        raise ConfigurationError(f"duration {eo.tau!r} is too long: its phase "
                                 "is not finite")
    return np.diag(np.exp(-1j * phase))


def _chunks(eos: list, fold: str | None, delta: float) -> list:
    """The EOs of a stack in the groups integrated together.

    A quarter-folded stack is split so that no block holds more than
    _STACK_SUBSTEPS substep matrices: the quarter period, or the widest
    tail, times the EOs of a group.
    """
    if fold != _QUARTER:
        return [eos]
    period = _period_steps(eos[0].omega, delta)
    widest = max([period // 4] + [_step_schedule(eo.tau, delta)[0] % period
                                  for eo in eos])
    size = max(1, _STACK_SUBSTEPS // widest)
    return [eos[i:i + size] for i in range(0, len(eos), size)]


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

    Pulses that fold are integrated in stacks: the rotating EOs of one
    step size in one, the quarter-folded EOs of one step size and drive
    frequency in the groups of ``_chunks``; every other EO alone.  A bad
    step size or duration raises before any EO is integrated.
    """
    store = _cached_propagator
    stacks: dict[tuple, dict] = {}
    for eo in eos:
        try:
            store.move_to_end(eo)
            continue
        except KeyError:
            pass
        _check(eo)
        fold = None if eo.is_diagonal else _fold(eo, eo.delta)
        shared = eo if fold is None else eo.omega if fold == _QUARTER else None
        stacks.setdefault((eo.delta, fold, shared), {})[eo] = None
    for (delta, fold, _), stack in stacks.items():
        group = list(stack)
        if group[0].is_diagonal:
            done = [_exact_diagonal_propagator(group[0])]
        else:
            done = [u for chunk in _chunks(group, fold, delta)
                    for u in _stepped_propagator(_Drives(chunk, fold), delta,
                                                 _product_formula_block)]
        for eo, u in zip(group, done):
            u.setflags(write=False)
            store[eo] = u
        store.integrated += len(done)
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
    formula is.  Integrated alone on every call, and never stored."""
    _check(eo)
    drives = _Drives((eo,), _fold(eo, eo.delta))
    return _stepped_propagator(drives, eo.delta, _dense_block)[0]


def clear_propagator_cache() -> None:
    """Empty the propagator store and reset its statistics."""
    _cached_propagator.clear()
    _cached_propagator.lookups = _cached_propagator.integrated = 0
