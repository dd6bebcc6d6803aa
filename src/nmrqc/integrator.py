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
  every P substeps (Floquet; Shirley, Phys. Rev. 138, B979 (1965)).  The
  product of the first P substeps is built once and raised to
  q = n_full // P; the n_full mod P leftover substeps are stepped at
  their true midpoints.
* In every other case (omega = 0, a period that is not a whole number of
  steps or is shorter than one step, a static pulse shorter than two
  periods) every substep is stepped, in vectorized chunks.

Powers are taken by repeated squaring, and the finished propagator is
polar-projected onto the unitary group once.

If the duration is not an integer multiple of the step, the final substep
shrinks to the remainder: silently truncating a pulse would corrupt its
rotation angle, which is exactly the sensitivity under study.  The field
phase origin is t=0 at the start of each EO; pass ``t0`` to offset it
(e.g. to chain EOs on one continuous clock).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, MethodError, NumericalIntegrityError
from .hamiltonian import EOParams, diagonal_energies, hamiltonian_at
from .operators import TWO_PI
from .states import NORM_TOL, StateVector, qubit_values

PRODUCT_FORMULA = "product_formula"
EXACT_DIAGONAL = "exact_diagonal"
DENSE_MIDPOINT_ORACLE = "dense_midpoint_oracle"
_METHODS = (PRODUCT_FORMULA, EXACT_DIAGONAL, DENSE_MIDPOINT_ORACLE)

_CHUNK = 1 << 15  # substeps vectorized per block
_PERIOD_RTOL = 1e-12  # how close 1/(omega*delta) must be to a whole number
_SZ_TOTAL = np.array([1.0, 0.0, 0.0, -1.0])  # S1z + S2z, |00>,|10>,|01>,|11>


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size (over 2*pi) and propagator construction."""

    delta: float = 0.01
    method: str = PRODUCT_FORMULA

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigurationError(
                f"delta must be positive and finite, got {self.delta}")
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; expected one of {_METHODS}")


def default_method(eo: EOParams) -> str:
    return EXACT_DIAGONAL if eo.is_diagonal else PRODUCT_FORMULA


def _step_schedule(tau: float, delta: float) -> tuple[int, float]:
    """Number of full steps and the remainder, all in over-2*pi units."""
    if tau < 0:
        raise ConfigurationError(f"duration must be non-negative, got {tau}")
    n_full = int(np.floor(tau / delta + 1e-9))
    rem = tau - n_full * delta
    if rem <= 1e-12 * max(1.0, abs(tau)):
        rem = 0.0
    return n_full, rem


def _halfstep_rotations(fx, fy, dt):
    """Stacked 2x2 factors exp(i (dt/2) (fx S^x + fy S^y)) for one spin."""
    alpha = dt / 4.0  # S = sigma/2 and the factor spans half a step
    rho = np.hypot(fx, fy)
    c = np.cos(alpha * rho)
    snc = np.where(rho > 1e-300,
                   np.sin(alpha * rho) / np.maximum(rho, 1e-300), alpha)
    out = np.empty(fx.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = c
    out[..., 1, 1] = c
    out[..., 0, 1] = 1j * snc * (fx - 1j * fy)
    out[..., 1, 0] = 1j * snc * (fx + 1j * fy)
    return out


def _chain(mats: np.ndarray) -> np.ndarray:
    """Ordered product of a stack of matrices; index 0 acts first."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        paired = mats[1:n - (n % 2):2] @ mats[0:n - (n % 2):2]
        if n % 2:
            paired = np.concatenate([paired, mats[-1:]], axis=0)
        mats = paired
    return mats[0]


def _nearest_unitary(m: np.ndarray) -> np.ndarray:
    """Polar projection onto the unitary group.

    A long product of individually unitary factors (repeated squares of
    a block, or chunks of substeps) picks up float noise; projecting the
    finished product once removes it (the exact propagator is unitary,
    so this perturbs by no more than the noise).
    """
    u, _s, vh = np.linalg.svd(m)
    return u @ vh


def _fields_at(eo: EOParams, t):
    sx = np.sin(eo.omega * t + eo.phi_x)
    sy = np.sin(eo.omega * t + eo.phi_y)
    return (eo.h1x + eo.sf1x * sx, eo.h1y + eo.sf1y * sy,
            eo.h2x + eo.sf2x * sx, eo.h2y + eo.sf2y * sy)


def _product_formula_block(eo: EOParams, mids, dt) -> np.ndarray:
    """Propagator for a block of equal-length substeps at given midpoints."""
    f1x, f1y, f2x, f2y = _fields_at(eo, mids)
    r1 = _halfstep_rotations(f1x, f1y, dt)
    r2 = _halfstep_rotations(f2x, f2y, dt)
    n = mids.size
    t_half = np.einsum("nij,nkl->nikjl", r2, r1).reshape(n, 4, 4)
    ez = diagonal_energies(eo.j, eo.h1z, eo.h2z)
    d = np.broadcast_to(np.exp(-1j * dt * ez), (n, 4))
    return _chain(np.einsum("nab,nb,nbc->nac", t_half, d, t_half))


def _dense_block(eo: EOParams, mids, dt) -> np.ndarray:
    hs = np.stack([hamiltonian_at(eo, float(t)) for t in mids])
    w, v = np.linalg.eigh(hs)
    return _chain(np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * dt * w), v.conj()))


def _period_steps(omega: float, delta: float) -> int:
    """Substeps per drive period, or 0 when that is not a whole number."""
    rate = abs(omega) * delta
    steps = 1.0 / rate if rate > 0.0 else math.inf
    if not math.isfinite(steps):
        return 0
    p = round(steps)
    return p if p >= 1 and abs(steps - p) <= _PERIOD_RTOL * steps else 0


def _frame(eo: EOParams, theta: float) -> np.ndarray:
    """Diagonal of Z(theta) = exp(+i omega theta S^z_tot)."""
    return np.exp(1j * eo.omega * theta * _SZ_TOTAL)


def _folded_power(eo: EOParams, n_full: int, delta: float, t0: float,
                  block) -> tuple[np.ndarray, int]:
    """Product of the leading substeps folded by symmetry, and their count."""
    dt = delta * TWO_PI
    if eo.is_rotating and n_full:
        first = block(eo, np.array([t0 + dt / 2.0]), dt)
        step = _frame(eo, dt).conj()[:, None] * first
        return (_frame(eo, n_full * dt)[:, None]
                * np.linalg.matrix_power(step, n_full)), n_full
    period = _period_steps(eo.omega, delta)
    if period and n_full >= 2 * period:
        q = n_full // period
        u_period = block(eo, t0 + (np.arange(period) + 0.5) * dt, dt)
        return np.linalg.matrix_power(u_period, q), q * period
    return np.eye(4, dtype=complex), 0


def _stepped_propagator(eo: EOParams, delta: float, t0: float, block) -> np.ndarray:
    """Product of `block` over the substep schedule, folded by symmetry."""
    n_full, rem = _step_schedule(eo.tau, delta)
    dt = delta * TWO_PI
    u, start = _folded_power(eo, n_full, delta, t0, block)
    for lo in range(start, n_full, _CHUNK):
        m = min(_CHUNK, n_full - lo)
        mids = t0 + (lo + np.arange(m) + 0.5) * dt
        u = block(eo, mids, dt) @ u
    if rem > 0.0:
        dt_rem = rem * TWO_PI
        mid = np.array([t0 + n_full * dt + dt_rem / 2.0])
        u = block(eo, mid, dt_rem) @ u
    return _nearest_unitary(u)


def _exact_diagonal_propagator(eo: EOParams) -> np.ndarray:
    if not eo.is_diagonal:
        raise MethodError(
            f"EO {eo.label!r} has transverse fields; exact_diagonal "
            "applies only to pure Ising/z evolutions")
    ez = diagonal_energies(eo.j, eo.h1z, eo.h2z)
    return np.diag(np.exp(-1j * TWO_PI * eo.tau * ez))


@lru_cache(maxsize=1024)
def _cached_propagator(eo: EOParams, delta: float, method: str, t0: float):
    # Validated on every miss; a raising call stores nothing, so bad
    # arguments raise on every lookup.
    IntegratorConfig(delta=delta, method=method)
    if method == EXACT_DIAGONAL:
        u = _exact_diagonal_propagator(eo)
    elif method == PRODUCT_FORMULA:
        u = _stepped_propagator(eo, delta, t0, _product_formula_block)
    else:
        u = _stepped_propagator(eo, delta, t0, _dense_block)
    u.setflags(write=False)
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


@dataclass(frozen=True)
class ConvergenceRow:
    delta: float
    expectations: tuple[float, ...]
    max_amplitude_deviation: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    reference_delta: float
    two_digit_flag: bool | None

    def __str__(self):
        lines = [f"{'delta':>10}  {'expectations':<24} max amp deviation"]
        for r in self.rows:
            exps = " ".join(f"{v:.6f}" for v in r.expectations)
            lines.append(f"{r.delta:>10g}  {exps:<24} {r.max_amplitude_deviation:.3e}")
        if self.two_digit_flag is not None:
            status = "DIFFER" if self.two_digit_flag else "agree"
            lines.append(f"two-digit results at delta 0.01 vs 0.001: {status}")
        return "\n".join(lines)


def _run_sequence(state: StateVector, eos, delta: float) -> StateVector:
    for eo in eos:
        state = evolve(state, eo.replace(delta=delta))
    return state


def convergence_report(eos, state: StateVector, deltas,
                       reference_delta: float | None = None) -> ConvergenceReport:
    """Re-run an EO sequence at several step sizes and tabulate deviations.

    Deviations are measured against a product-formula run at
    reference_delta (default: min(deltas)/10).  Diagonal EOs keep the
    exact propagator throughout, so only pulse steps are swept.
    """
    if isinstance(eos, EOParams):
        eos = [eos]
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if not deltas:
        raise ConfigurationError("need at least one delta")
    if reference_delta is None:
        reference_delta = min(deltas) / 10.0
    ref = _run_sequence(state, eos, reference_delta).amplitudes

    rows = []
    by_delta = {}
    for d in deltas:
        out = _run_sequence(state, eos, d)
        dev = float(np.max(np.abs(out.amplitudes - ref)))
        exps = qubit_values(out)
        rows.append(ConvergenceRow(d, exps, dev))
        by_delta[d] = exps

    flag = None
    pair = [d for d in (0.01, 0.001) if d in by_delta]
    if len(pair) == 2:
        r1 = tuple(round(v, 2) for v in by_delta[0.01])
        r2 = tuple(round(v, 2) for v in by_delta[0.001])
        flag = r1 != r2
    return ConvergenceReport(tuple(rows), reference_delta, flag)


def clear_propagator_cache() -> None:
    _cached_propagator.cache_clear()
