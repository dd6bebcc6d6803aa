"""Spin-1/2 operators for the two-qubit register.

Basis ordering is |00>, |10>, |01>, |11>: the index of basis state
|b1 b2> is b1 + 2*b2, so qubit 1 is the fast index.  Spin up is |0>
(S^z eigenvalue +1/2), spin down is |1>.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalIntegrityError

TWO_PI = 2.0 * np.pi
UNITARITY_TOL = 1e-10

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_SIGMA = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}


def single_spin(axis: str) -> np.ndarray:
    """2x2 spin operator S^axis = sigma_axis / 2."""
    return _SIGMA[axis] / 2.0


def embed(spin: int, u: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on the given spin into the 4x4 space.

    Qubit 1 is the fast index, so spin 1 embeds as kron(I, u) and spin 2
    as kron(u, I).
    """
    if spin == 1:
        return np.kron(IDENTITY_2, u)
    if spin == 2:
        return np.kron(u, IDENTITY_2)
    raise ValueError(f"spin must be 1 or 2, got {spin}")


# Embedded spin components and the Ising product, used all over.
S1X = embed(1, single_spin("x"))
S1Y = embed(1, single_spin("y"))
S1Z = embed(1, single_spin("z"))
S2X = embed(2, single_spin("x"))
S2Y = embed(2, single_spin("y"))
S2Z = embed(2, single_spin("z"))
SZZ = S1Z @ S2Z

for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, S1X, S1Y, S1Z, S2X, S2Y, S2Z, SZZ):
    _m.setflags(write=False)


def rotation(axis: str, angle: float) -> np.ndarray:
    """exp(i * angle * S^axis) for a single spin-1/2.

    Positive angle with axis 'x' or 'y' matches the sign convention of
    the elementary pi/2 rotations: rotation('x', pi/2) has matrix
    [[1, i], [i, 1]]/sqrt(2).
    """
    s = _SIGMA[axis]
    return np.cos(angle / 2.0) * IDENTITY_2 + 1j * np.sin(angle / 2.0) * s


def exp_i_dot_s(cx: float, cy: float, cz: float) -> np.ndarray:
    """exp(i * (cx S^x + cy S^y + cz S^z)) for a single spin-1/2, closed form."""
    rho = float(np.sqrt(cx * cx + cy * cy + cz * cz))
    if rho < 1e-300:
        return IDENTITY_2.copy()
    n = np.array([cx, cy, cz]) / rho
    sig = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    return np.cos(rho / 2.0) * IDENTITY_2 + 1j * np.sin(rho / 2.0) * sig


def max_unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - 1| over matrix elements."""
    d = u.conj().T @ u - np.eye(u.shape[0])
    return float(np.max(np.abs(d)))


def frozen_unitary(m) -> np.ndarray:
    """Read-only complex copy of m, which must be unitary to UNITARITY_TOL."""
    u = np.array(m, dtype=complex)
    defect = max_unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise NumericalIntegrityError(f"matrix is not unitary (defect {defect:.3e})")
    u.setflags(write=False)
    return u


def global_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max-element distance between a and b after removing one global phase.

    The optimal phase is taken from tr(a^dag b); if the overlap vanishes the
    raw distance is returned.
    """
    tr = np.trace(a.conj().T @ b)
    if abs(tr) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = tr / abs(tr)
    return float(np.max(np.abs(a - b / phase)))


def state_phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max amplitude difference between state vectors after phase alignment."""
    ov = np.vdot(a, b)
    if abs(ov) < 1e-12:
        return float(np.max(np.abs(a - b)))
    phase = ov / abs(ov)
    return float(np.max(np.abs(a - b / phase)))
