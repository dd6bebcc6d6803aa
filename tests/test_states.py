import numpy as np
import pytest

from nmrqc import (ConfigurationError, NumericalIntegrityError, ideal_gate,
                   input_amplitudes, readout)
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
    (state,) = input_amplitudes([f"{bits[0]}{bits[1]}"])
    assert np.array_equal(state, expected)
    assert readout(state[None]) == [tuple(map(float, bits))]


def test_basis_state_length_mismatch():
    for bad in ("011", "02", "0"):
        with pytest.raises(ConfigurationError, match="unknown input spec"):
            input_amplitudes([bad])


def test_singlet_amplitudes_and_norm():
    s = input_amplitudes(["singlet"])
    assert np.allclose(s, [[0, -0.70710678, 0.70710678, 0]], atol=1e-8)
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    (ab,) = readout(s)
    assert ab == pytest.approx((0.5, 0.5), abs=1e-12)


def test_expectation_both_spins_down():
    assert readout(input_amplitudes(["11"])) == [(1.0, 1.0)]


def test_expectation_on_superposition():
    # (|01> - |11>)/sqrt(2): qubit 2 definitely 1, qubit 1 undecided
    ((a, b),) = readout(np.array([[0, 0, SQ2, -SQ2]], dtype=complex))
    assert b == pytest.approx(1.0, abs=1e-12)
    assert a == pytest.approx(0.5, abs=1e-12)


def test_expectation_matches_spin_matrix():
    # <Q_j> from the bit weights equals 1/2 - <S_j^z> for every row
    rng = np.random.default_rng(7)
    v = rng.normal(size=(25, 4)) + 1j * rng.normal(size=(25, 4))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    for row, ab in zip(v, readout(v)):
        direct = [0.5 - np.real(np.vdot(row, sz @ row)) for sz in (S1Z, S2Z)]
        assert ab == pytest.approx(direct, abs=1e-12)


def test_apply_x1_rotation_example():
    # X1 |11> = (|11> + i|01>)/sqrt(2)
    out = ideal_gate("X1") @ input_amplitudes(["11"])[0]
    assert np.allclose(out, [0, 0, 1j * SQ2, SQ2], atol=1e-12)


def test_apply_y2_rotation_example():
    # Y2 |11> = (|10> + |11>)/sqrt(2)
    out = ideal_gate("Y2") @ input_amplitudes(["11"])[0]
    assert np.allclose(out, [0, SQ2, 0, SQ2], atol=1e-12)


def test_x1_gate_is_block_diagonal_in_second_qubit():
    # the spin-1 rotation must not mix b2 sectors: 2x2 blocks on the
    # (|00>,|10>) and (|01>,|11>) pairs
    m = ideal_gate("X1")
    assert np.allclose(m[0:2, 2:4], 0) and np.allclose(m[2:4, 0:2], 0)
    assert np.allclose(m[0:2, 0:2], m[2:4, 2:4])


def test_norm_conserved_under_random_unitaries(rng):
    s = input_amplitudes(["00"])[0]
    for _ in range(50):
        s = random_unitary(rng) @ s
        assert abs(np.linalg.norm(s) - 1.0) < 1e-10
        readout(s[None])   # within NORM_TOL, so it reads without raising


def test_state_rejects_bad_shapes_and_norms():
    # a row always has four amplitudes; readout checks every row's norm
    assert input_amplitudes([]).shape == (0, 4)
    with pytest.raises(NumericalIntegrityError, match="deviates from 1"):
        readout(np.array([[1.0, 1.0, 0.0, 0.0]]))


def test_qubit_values_tuple():
    assert readout(input_amplitudes(["10"])) == [(1.0, 0.0)]
