import numpy as np
import pytest

from nmrqc import (ConfigurationError, NumericalIntegrityError, StateVector,
                   expectation_qubit, ideal_gate, prepare_basis_state,
                   prepare_singlet, qubit_values)
from nmrqc.operators import S1Z, S2Z

from conftest import random_unitary

SQ2 = 1.0 / np.sqrt(2.0)


@pytest.mark.parametrize("bits,expected", [
    ([0, 0], [1, 0, 0, 0]),
    ([1, 0], [0, 1, 0, 0]),
    ([0, 1], [0, 0, 1, 0]),
    ([1, 1], [0, 0, 0, 1]),
])
def test_basis_state_index_layout(bits, expected):
    state = prepare_basis_state(2, bits)
    assert np.allclose(state.amplitudes, expected)


def test_basis_state_length_mismatch():
    with pytest.raises(ConfigurationError):
        prepare_basis_state(2, [0, 1, 1])
    with pytest.raises(ConfigurationError):
        prepare_basis_state(2, [0, 2])


def test_singlet_amplitudes_and_norm():
    s = prepare_singlet()
    assert np.allclose(s.amplitudes, [0, -0.70710678, 0.70710678, 0], atol=1e-8)
    assert abs(s.norm() - 1.0) < 1e-12
    assert abs(expectation_qubit(s, 1).value - 0.5) < 1e-12
    assert abs(expectation_qubit(s, 2).value - 0.5) < 1e-12


def test_expectation_both_spins_down():
    s = prepare_basis_state(2, [1, 1])
    assert expectation_qubit(s, 1).value == pytest.approx(1.0)
    assert expectation_qubit(s, 2).value == pytest.approx(1.0)


def test_expectation_on_superposition():
    # (|01> - |11>)/sqrt(2): qubit 2 definitely 1, qubit 1 undecided
    s = StateVector([0, 0, SQ2, -SQ2])
    assert expectation_qubit(s, 2).value == pytest.approx(1.0, abs=1e-12)
    assert expectation_qubit(s, 1).value == pytest.approx(0.5, abs=1e-12)


def test_expectation_qubit_range_check():
    s = prepare_singlet()
    with pytest.raises(ConfigurationError):
        expectation_qubit(s, 0)
    with pytest.raises(ConfigurationError):
        expectation_qubit(s, 3)


def test_expectation_matches_spin_matrix():
    # <Q_j> computed from bit marginals equals 1/2 - <S_j^z> elementwise
    rng = np.random.default_rng(7)
    for _ in range(25):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        s = StateVector(v)
        for j, sz in ((1, S1Z), (2, S2Z)):
            direct = 0.5 - np.real(np.vdot(v, sz @ v))
            assert expectation_qubit(s, j).value == pytest.approx(direct, abs=1e-12)


def test_apply_x1_rotation_example():
    # X1 |11> = (|11> + i|01>)/sqrt(2)
    out = ideal_gate("X1").matrix @ prepare_basis_state(2, [1, 1]).amplitudes
    assert np.allclose(out, [0, 0, 1j * SQ2, SQ2], atol=1e-12)


def test_apply_y2_rotation_example():
    # Y2 |11> = (|10> + |11>)/sqrt(2)
    out = ideal_gate("Y2").matrix @ prepare_basis_state(2, [1, 1]).amplitudes
    assert np.allclose(out, [0, SQ2, 0, SQ2], atol=1e-12)


def test_x1_gate_is_block_diagonal_in_second_qubit():
    # the spin-1 rotation must not mix b2 sectors: 2x2 blocks on the
    # (|00>,|10>) and (|01>,|11>) pairs
    m = ideal_gate("X1").matrix
    assert np.allclose(m[0:2, 2:4], 0) and np.allclose(m[2:4, 0:2], 0)
    assert np.allclose(m[0:2, 0:2], m[2:4, 2:4])


def test_norm_conserved_under_random_unitaries(rng):
    s = prepare_basis_state(2, [0, 0])
    for _ in range(50):
        s = StateVector(random_unitary(rng) @ s.amplitudes)
        assert abs(s.norm() - 1.0) < 1e-10


def test_state_rejects_bad_shapes_and_norms():
    with pytest.raises(ConfigurationError):
        StateVector([1.0, 0.0, 0.0])
    with pytest.raises(NumericalIntegrityError):
        StateVector([1.0, 1.0, 0.0, 0.0])


def test_qubit_values_tuple():
    assert qubit_values(prepare_basis_state(2, [1, 0])) == (1.0, 0.0)
