"""Time evolution of one elementary operation.

Three interchangeable propagator constructions:

* ``product_formula`` -- symmetric (Strang) operator splitting.  Each
  substep freezes the fields at the substep midpoint and applies

      U_step = T(dt/2) D(dt) T(dt/2)

  where T is the exact exponential of the transverse part (a kron of two
  single-spin rotations; the two spins' transverse terms commute) and D
  the exact diagonal exponential of the Ising and z terms.  Every factor
  is exactly unitary; the global error is O(delta^2).

* ``exact_diagonal`` -- closed-form phases for EOs with no transverse
  fields.  Used for the long conditional-phase evolutions, which would
  otherwise cost ~10^8 substeps for identical physics.

* ``dense_midpoint_oracle`` -- dense 4x4 exponential of H(t_mid) per
  substep via eigendecomposition.  Slower, split-free; serves as the
  independent reference when validating the product formula.

Both stepped methods share one loop, which folds the substep product by
a symmetry of the drive wherever one holds exactly:

* A rotating drive (``EOParams.is_rotating``: no static transverse
  field, equal x/y amplitudes, phi_y - phi_x = pi/2) turns rigidly
  about z.  The Ising and z terms commute with total S^z, so every
  substep block is a z-conjugate of the first one,
  B(t + theta) = Z(theta) B(t) Z(theta)^dagger with
  Z(theta) = exp(+i omega theta S^z_tot), and the n full substeps give
  exactly U = Z(n dt) (Z(dt)^dagger B(t0 + dt/2))^n (the rotating frame;
  Vandersypen & Chuang, Rev. Mod. Phys. 76, 1037 (2004)).  One
  single-midpoint block is built and raised to the n-th power.
* Otherwise, when the drive period 1/omega (over 2*pi) is a whole number
  P of steps, i.e. 1/(omega*delta) is an integer to a relative 1e-12,
  and the EO spans at least 2P full substeps, the fields repeat exactly
  every P substeps (Floquet; Shirley, Phys. Rev. 138, B979 (1965)), so
  one period's product U_T is raised to q = n_full // P; the
  n_full mod P leftover substeps are stepped at their true midpoints.
  A single-axis drive (one axis driven, phi_x = phi_y = 0, no static
  transverse field) starting at t0 = 0 with P a multiple of 4 has two
  more exact symmetries, so only its first P/4 substeps are built, as
  their product Q:
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
  axes driven, t0 != 0 or P not a multiple of 4) builds the product
  of all P substeps.
* In every other case (omega = 0, a period that is not a whole number of
  steps or is shorter than one step, a static pulse shorter than two
  periods) every substep is stepped, in vectorized chunks.

Powers are taken by repeated squaring, and the finished propagator is
polar-projected onto the unitary group once.

The loop runs on a stack of EOs: the field parameters, the blocks and
every step above carry a leading EO axis, and each EO has its own t0
and step count.  A rotating stack is integrated in one pass: one
single-midpoint block per EO, the frame factors, repeated squaring over
the bits of the largest n (each EO keeps its partial product where its
own n lacks a bit), the remainder blocks and one stacked SVD.  Each
EO's result is bit-identical whatever else shares its stack.  Static
and constant-field EOs go through the same loop one at a time, with
the quarter-period, full-period or chunked product above: their cost is
per-substep arithmetic, which stacking does not cut.

Propagators are cached per (EO, delta, method, t0).  ``expect`` lets a
caller announce the EOs its next lookups will ask for, lazily: at the
first rotating product-formula miss the announcement is expanded, and
every expected rotating EO of that step size not yet cached is
integrated in the same stack.  Those propagators wait until their own
key's first lookup, so the cache still counts one miss per key; the
next ``expect`` and ``clear_propagator_cache`` drop whatever still
waits.

If the duration is not an integer multiple of the step, the final substep
shrinks to the remainder: silently truncating a pulse would corrupt its
rotation angle, which is exactly the sensitivity under study.  The field
phase origin is t=0 at the start of each EO; pass ``t0`` to offset it
(e.g. to chain EOs on one continuous clock).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import ConfigurationError, MethodError, NumericalIntegrityError
from .hamiltonian import EOParams, diagonal_energies, is_finite_number
from .operators import S1X, S1Y, S2X, S2Y, TWO_PI
from .states import NORM_TOL, StateVector

PRODUCT_FORMULA = "product_formula"
EXACT_DIAGONAL = "exact_diagonal"
DENSE_MIDPOINT_ORACLE = "dense_midpoint_oracle"
_METHODS = (PRODUCT_FORMULA, EXACT_DIAGONAL, DENSE_MIDPOINT_ORACLE)

_CHUNK = 1 << 15  # substeps vectorized per block
_CACHE_SIZE = 1024  # propagators kept by the cache
_PERIOD_RTOL = 1e-12  # how close 1/(omega*delta) must be to a whole number
_SZ_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])  # S1z + S2z, |00>,|10>,|01>,|11>
_Z_PI = np.array([-1.0, 1.0, 1.0, -1.0])  # exp(i pi S^z_tot)
_EYE = np.eye(4, dtype=complex)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size (over 2*pi) and propagator construction."""

    delta: float = 0.01
    method: str = PRODUCT_FORMULA

    def __post_init__(self):
        if not (is_finite_number(self.delta) and self.delta > 0):
            raise ConfigurationError(
                f"delta must be positive and finite, got {self.delta!r}")
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {_METHODS}")


def default_method(eo: EOParams) -> str:
    return EXACT_DIAGONAL if eo.is_diagonal else PRODUCT_FORMULA


def _step_schedule(tau: float, delta: float) -> tuple[int, float]:
    """Number of full steps and the remainder, all in over-2*pi units."""
    if tau < 0:
        raise ConfigurationError(f"duration must be non-negative, got {tau}")
    n_full = math.floor(tau / delta + 1e-9)
    rem = tau - n_full * delta
    if rem <= 1e-12 * max(1.0, abs(tau)):
        rem = 0.0
    return n_full, rem


class _Drives:
    """Field parameters of a stack of EOs, one row per EO.

    Each EO keeps its own phase origin t0.  A stack is either one EO or
    EOs that all turn rigidly about z (``rotating``).
    """

    def __init__(self, eos, t0s, rotating: bool):
        p = np.array([(e.omega, e.phi_x, e.phi_y, e.h1x, e.h1y, e.h2x, e.h2y,
                       e.sf1x, e.sf1y, e.sf2x, e.sf2y, e.j, e.h1z, e.h2z)
                      for e in eos])
        self.eos = tuple(eos)
        self.t0 = np.array(t0s, dtype=float)
        self.omega = p[:, 0]
        self.phi = p[:, 1:3]                          # x, y
        self.static = p[:, 3:7].reshape(-1, 2, 2)     # [spin, axis]
        self.amp = p[:, 7:11].reshape(-1, 2, 2)       # [spin, axis]
        self.ez = diagonal_energies(p[:, 11:12], p[:, 12:13], p[:, 13:14])
        self.rotating = rotating


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

    dt is one step length, or one per EO as an (EO, 1) array.
    """
    dt = np.reshape(dt, (-1, 1))
    f = _fields_at(d, mids)
    r = _halfstep_rotations(f[..., 0], f[..., 1], (dt / 4.0)[..., None])
    r1, r2 = r[:, :, 0], r[:, :, 1]
    n_eo, m = mids.shape
    t_half = (r2[..., :, None, :, None]
              * r1[..., None, :, None, :]).reshape(n_eo, m, 4, 4)
    phases = np.exp(-1j * dt * d.ez)[:, None, :]
    return _chain(np.einsum("...ab,...b,...bc->...ac", t_half, phases, t_half))


_TRANSVERSE = np.array([[S1X, S1Y], [S2X, S2Y]])  # [spin, axis]


def _dense_block(d: _Drives, mids, dt) -> np.ndarray:
    """As _product_formula_block, with the dense exponential of H(mid)."""
    dt = np.reshape(dt, (-1, 1))
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
    """base[e] ** ns[e] for a stack, by repeated squaring; some n >= 1.

    One pass over the bits of the largest n; an EO whose exponent lacks
    a bit keeps its partial product, the identity until its first set
    bit.  A product with the identity is exact, so each EO gets the
    products of the binary method (those of np.linalg.matrix_power for
    n != 3), whatever else is in the stack.
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


def _folded_power(d: _Drives, n_full, delta: float,
                  block) -> tuple[np.ndarray, int | None]:
    """Per EO, the product of its leading substeps folded by symmetry.

    Also returns how many substeps that covers for a lone non-rotating EO,
    which may leave a tail; a rotating stack is covered whole.  A lone
    single-axis drive at t0 = 0 builds a quarter period, any other
    periodic drive a full one (see the module docstring).
    """
    if not any(n_full):
        return np.broadcast_to(_EYE, (len(n_full), 4, 4)), 0
    dt = delta * TWO_PI
    if d.rotating:
        first = block(d, (d.t0 + dt / 2.0)[:, None], dt)
        # Z(dt) and Z(n dt) of each EO
        z_step, z_all = _frame(d, dt * np.array([[1] * len(n_full), n_full]))
        return z_all[..., None] * _powers(z_step.conj()[..., None] * first,
                                          n_full), None
    (n,) = n_full
    period = _period_steps(d.omega[0], delta)
    if not (period and n >= 2 * period):
        return _EYE[None], 0
    q = n // period
    axes = d.amp[0].any(axis=0)  # driven x, y
    if (period % 4 == 0 and d.t0[0] == 0.0 and axes.sum() == 1
            and not d.phi.any() and not d.static.any()):
        # Zpi U_{T/2} from Q, the first P/4 substeps: Zpi Q^T Q for an x
        # drive, Q^T Zpi Q for a y drive.
        quarter = block(d, (np.arange(period // 4) + 0.5)[None] * dt, dt)
        mirrored = np.swapaxes(quarter, -1, -2)
        z_pi_half = (mirrored @ (_Z_PI[:, None] * quarter) if axes[1]
                     else _Z_PI[:, None] * (mirrored @ quarter))
        return np.linalg.matrix_power(z_pi_half, 2 * q), q * period
    u_period = block(d, d.t0[:, None] + (np.arange(period) + 0.5) * dt, dt)
    return np.linalg.matrix_power(u_period, q), q * period


def _stepped_propagator(d: _Drives, delta: float, block) -> np.ndarray:
    """Per EO, the product of `block` over its substep schedule, folded by
    symmetry and polar-projected: a stack of 4x4 propagators."""
    n_full, rem = zip(*(_step_schedule(e.tau, delta) for e in d.eos))
    dt = delta * TWO_PI
    u, start = _folded_power(d, n_full, delta, block)
    if not d.rotating:
        (n,) = n_full
        for lo in range(start, n, _CHUNK):
            m = min(_CHUNK, n - lo)
            mids = d.t0[:, None] + (lo + np.arange(m) + 0.5) * dt
            u = block(d, mids, dt) @ u
    if any(rem):
        dt_rem = np.array(rem) * TWO_PI
        mid = d.t0 + np.array(n_full) * dt + dt_rem / 2.0
        stepped = block(d, mid[:, None], dt_rem[:, None]) @ u
        u = stepped if all(rem) else np.where(dt_rem[:, None, None] > 0.0,
                                              stepped, u)
    return _nearest_unitary(u)


def _exact_diagonal_propagator(eo: EOParams) -> np.ndarray:
    if not eo.is_diagonal:
        raise MethodError(
            f"EO {eo.label!r} has transverse fields; exact_diagonal "
            "applies only to pure Ising/z evolutions")
    if eo.tau < 0:
        raise ConfigurationError(f"duration must be non-negative, got {eo.tau}")
    ez = diagonal_energies(eo.j, eo.h1z, eo.h2z)
    return np.diag(np.exp(-1j * TWO_PI * eo.tau * ez))


# Look-ahead: the EOs announced by expect(), expanded at the first
# rotating product-formula miss, the propagators integrated ahead of
# their first lookup and the last _CACHE_SIZE keys cached since the last
# clear_propagator_cache() (a dict used as an insertion-ordered set), all
# keyed like _cached_propagator.
_expected = None
_waiting: dict[tuple, np.ndarray] = {}
_integrated: dict[tuple, None] = {}


def expect(eos=()) -> None:
    """Announce the EOs whose propagators the coming lookups will ask for.

    `eos` may be lazy; it is expanded only at the first rotating
    product-formula miss, which then integrates every expected rotating
    EO of its step size in one stack.  Each such propagator waits until
    its key's own first lookup.  Whatever is still waiting from an
    earlier announcement is dropped.
    """
    global _expected
    _expected = eos
    _waiting.clear()


def _expected_rotating(delta: float) -> dict:
    """The announced rotating EOs of step size delta, once per announcement.

    Their keys are those of eo_propagator(eo): the EO's own step, the
    product formula and t0 = 0.  Keys among the last _CACHE_SIZE cached
    are left out; one the cache has since evicted is integrated alone at
    its lookup.
    """
    global _expected
    eos, _expected = _expected, None
    if eos is None:
        return {}
    unique = {id(eo): eo for eo in eos}.values()  # programs share memoized steps
    return {eo: None for eo in unique if eo.is_rotating and eo.delta == delta
            and (eo, delta, PRODUCT_FORMULA, 0.0) not in _integrated}


def _integrate(eo: EOParams, delta: float, method: str, t0: float) -> np.ndarray:
    """The propagator of one key.

    A rotating product-formula key is integrated in one stack with every
    expected rotating key of its step size; the others wait for their
    first lookup.
    """
    if method == EXACT_DIAGONAL:
        return _exact_diagonal_propagator(eo)
    keys = [(eo, t0)]
    rotating = eo.is_rotating
    if rotating and method == PRODUCT_FORMULA:
        ahead = _expected_rotating(delta)
        if t0 == 0.0:
            ahead.pop(eo, None)
        keys += [(e, 0.0) for e in ahead]
    block = _product_formula_block if method == PRODUCT_FORMULA else _dense_block
    eos, t0s = zip(*keys)
    us = _stepped_propagator(_Drives(eos, t0s, rotating), delta, block)
    us.setflags(write=False)
    for (e, t), u in zip(keys[1:], us[1:]):
        _waiting[(e, delta, method, t)] = u
    return us[0]


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_propagator(eo: EOParams, delta: float, method: str, t0: float):
    # Validated on every miss; a raising call stores nothing, so bad
    # arguments raise on every lookup.
    IntegratorConfig(delta=delta, method=method)
    u = _waiting.pop((eo, delta, method, t0), None) if _waiting else None
    if u is None:
        u = _integrate(eo, delta, method, t0)
        u.setflags(write=False)
    _integrated[(eo, delta, method, t0)] = None
    if len(_integrated) > _CACHE_SIZE:
        del _integrated[next(iter(_integrated))]
    return u


def eo_propagator(eo: EOParams, cfg: IntegratorConfig | None = None,
                  t0: float = 0.0) -> np.ndarray:
    """The unitary carrying a state across one EO.

    With cfg=None the EO's own step size is used and diagonal EOs take
    the exact closed form (identical physics for commuting terms, at any
    step size).
    """
    if cfg is None:
        return _cached_propagator(eo, eo.delta, default_method(eo), t0)
    return _cached_propagator(eo, cfg.delta, cfg.method, t0)


def evolve(state: StateVector, eo: EOParams, cfg: IntegratorConfig | None = None,
           t0: float = 0.0) -> StateVector:
    """Solve the equation of motion across one EO."""
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise NumericalIntegrityError("input state is not normalized")
    return StateVector(eo_propagator(eo, cfg, t0) @ state.amplitudes)


def evolve_reference(state: StateVector, eo: EOParams,
                     fine_delta: float) -> StateVector:
    """Dense-exponential reference evolution at a fine step size."""
    cfg = IntegratorConfig(delta=fine_delta, method=DENSE_MIDPOINT_ORACLE)
    return evolve(state, eo, cfg)


def clear_propagator_cache() -> None:
    """Empty the propagator cache and drop any announced or waiting EOs."""
    _cached_propagator.cache_clear()
    _integrated.clear()
    expect()
