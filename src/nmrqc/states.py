"""State vectors of the spin register and qubit readout.

A qubit reads 0 when its spin points up, so the readout operator is
Q_j = 1/2 - S_j^z and <Q_j> is the total weight of basis states whose
j-th bit is 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericalIntegrityError
from .operators import bit_of_index, max_unitarity_defect

# Guard against outright unnormalized inputs; precision contracts are
# asserted separately at the working step sizes (norm drift there is
# ~1e-11, but microstep reference runs with millions of factors can
# accumulate a few 1e-9 of benign roundoff).
NORM_TOL = 1e-8
UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """Immutable complex amplitude vector over 2**n basis states.

    Index layout: |b1 b2 ... bn> sits at index sum_j b_j * 2**(j-1)
    (qubit 1 is the fast index).  The norm must be 1; operations return
    new instances and never renormalize, so global phase is preserved.
    """

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        n = amps.size
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigurationError(f"amplitude count must be a power of two, got {n}")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalIntegrityError(f"state norm {norm!r} deviates from 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class QubitExpectation:
    qubit_index: int
    value: float


def prepare_basis_state(n_qubits: int, bits) -> StateVector:
    """Basis state |b1 b2 ... bn> with exact amplitudes."""
    bits = list(bits)
    if len(bits) != n_qubits:
        raise ConfigurationError(
            f"expected {n_qubits} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ConfigurationError(f"bits must be 0 or 1, got {bits}")
    index = sum(b << j for j, b in enumerate(bits))
    amps = np.zeros(2 ** n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def prepare_singlet() -> StateVector:
    """The two-qubit singlet (|01> - |10>)/sqrt(2), prepared exactly.

    Input states are supplied with exact amplitudes (the matrix-form
    analogue of error-free preparation), so any deviation seen later is
    attributable to the executed sequence alone.
    """
    amps = np.zeros(4, dtype=complex)
    amps[2] = 1.0 / np.sqrt(2.0)   # |01>
    amps[1] = -1.0 / np.sqrt(2.0)  # |10>
    return StateVector(amps)


def expectation_qubit(state: StateVector, j: int) -> QubitExpectation:
    """<Q_j> = sum of |amplitude|^2 over basis states with bit j set."""
    if not 1 <= j <= state.n_qubits:
        raise ConfigurationError(
            f"qubit index {j} out of range for {state.n_qubits} qubits")
    weights = np.abs(state.amplitudes) ** 2
    value = float(sum(w for i, w in enumerate(weights) if bit_of_index(i, j)))
    return QubitExpectation(qubit_index=j, value=value)


def qubit_values(state: StateVector) -> tuple[float, ...]:
    """All qubit expectations as a plain tuple, qubit 1 first."""
    return tuple(expectation_qubit(state, j).value
                 for j in range(1, state.n_qubits + 1))


def frozen_unitary(m) -> np.ndarray:
    """Read-only complex copy of m, which must be unitary to UNITARITY_TOL."""
    u = np.array(m, dtype=complex)
    defect = max_unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise NumericalIntegrityError(f"matrix is not unitary (defect {defect:.3e})")
    u.setflags(write=False)
    return u

