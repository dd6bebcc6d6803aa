import numpy as np
import pytest

import nmrqc.reference_tables as ref
from nmrqc import (ConfigurationError, GATE_NAMES, compose,
                   coupling_pi_duration, derive_primed_angles, ideal_eo_params,
                   ideal_gate, input_amplitudes, phase_gate)
from nmrqc.hamiltonian import MachineConfig
from nmrqc.operators import global_phase_distance, max_unitarity_defect

SQ2 = 1.0 / np.sqrt(2.0)


def test_pi_half_rotation_matrices():
    x = ideal_gate("X1").matrix
    assert np.allclose(x[0:2, 0:2], np.array([[1, 1j], [1j, 1]]) * SQ2)
    y2 = ideal_gate("Y2").matrix
    want = SQ2 * np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                           [-1, 0, 1, 0], [0, -1, 0, 1]])
    assert np.allclose(y2, want)


def test_inverse_is_conjugate_transpose():
    for name in ("X1", "X2", "Y1", "Y2"):
        g = ideal_gate(name).matrix
        gb = ideal_gate(name + "b").matrix
        assert np.allclose(gb, g.conj().T)
        assert np.allclose(g @ gb, np.eye(4), atol=1e-12)


def test_y2_inverse_example():
    # Y2b |11> = (|11> - |10>)/sqrt(2)
    out = ideal_gate("Y2b").matrix @ input_amplitudes(["11"])[0]
    assert np.allclose(out, [0, -SQ2, 0, SQ2], atol=1e-12)


def test_all_gates_unitary():
    for name in GATE_NAMES:
        assert max_unitarity_defect(ideal_gate(name).matrix) < 1e-12, name


def test_cnot_truth_table():
    cnot = ideal_gate("CNOT").matrix
    for bits, out_bits in [("00", "00"), ("10", "11"), ("01", "01"), ("11", "10")]:
        got = cnot @ input_amplitudes([bits])[0]
        want = input_amplitudes([out_bits])[0]
        assert np.allclose(np.abs(got), want, atol=1e-12)


def test_cnot_squared_is_identity_up_to_phase():
    cnot = ideal_gate("CNOT").matrix
    assert global_phase_distance(np.eye(4), cnot @ cnot) < 1e-12


def test_phase_gate_zero_is_identity():
    assert np.allclose(phase_gate(0, 0, 0, 0), np.eye(4))


def test_compose_ising_sandwich_is_cnot():
    # Y2b I Y2 = e^{i pi/4} * (the CNOT permutation), exactly
    got = compose(["Y2b", "I", "Y2"])
    want = ideal_gate("CNOT").matrix
    assert np.max(np.abs(got - want)) < 1e-12


def test_compose_general_phase_sandwich():
    # Y2b P Y2 with phi0 = phi2 leaves the spin-1-up sector alone and
    # applies a conditional rotation with angle (phi1 - phi3)/2 on the
    # spin-1-down sector (entries cos, i sin); closed form derived by
    # expanding the three matrices symbolically
    rng = np.random.default_rng(5)
    for _ in range(10):
        phi0, phi1, phi3 = rng.uniform(-np.pi, np.pi, size=3)
        p = phase_gate(phi0, phi1, phi0, phi3)
        got = compose([ideal_gate("Y2b").matrix, p, ideal_gate("Y2").matrix])
        alpha = (phi1 - phi3) / 2.0
        scal = np.exp(1j * (phi1 + phi3) / 2.0)
        want = np.array([
            [np.exp(1j * phi0), 0, 0, 0],
            [0, scal * np.cos(alpha), 0, 1j * scal * np.sin(alpha)],
            [0, 0, np.exp(1j * phi0), 0],
            [0, 1j * scal * np.sin(alpha), 0, scal * np.cos(alpha)],
        ])
        assert np.max(np.abs(got - want)) < 1e-12


def test_compose_cancellation_and_errors():
    assert np.allclose(compose(["Y2", "Y2b"]), np.eye(4))
    with pytest.raises(ConfigurationError):
        compose([])
    with pytest.raises(ConfigurationError):
        ideal_gate("Z9")


def test_primed_angles_default_machine():
    pa = derive_primed_angles()
    f = coupling_pi_duration()
    assert f == pytest.approx(1162790.6977, abs=1e-4)
    # fractional parts cross-checked to the 4-decimal sheet values
    assert pa.x1p == pytest.approx(0.4477, abs=5e-5)
    assert pa.x2p == pytest.approx(1.4244, abs=5e-5)
    assert pa.x1pp == pytest.approx(0.6977, abs=5e-5)
    assert pa.x2pp == pytest.approx(1.6744, abs=5e-5)
    # full-precision identities: angles are F*h_z - 1/4 (mod 2) and F*h_z (mod 2)
    assert pa.x1p == pytest.approx((f - 0.25) % 2, abs=1e-12)
    assert pa.x2p == pytest.approx((0.25 * f - 0.25) % 2, abs=1e-9)
    amps = pa.field_amplitudes()
    assert amps["X1p"] == pytest.approx(-0.4477, abs=5e-5)
    assert amps["X2pp"] == pytest.approx(-1.6744, abs=5e-5)


def test_primed_rotations_absorb_z_phases_exactly():
    # Y1 X1p Y1b == exp(-i tau (h1z - h) S1z) including the overall sign,
    # which is why angles are reduced mod 2 turns rather than 1
    f = coupling_pi_duration()
    for names, hz in [ (("Y1", "X1p", "Y1b"), 1.0),
                       (("Y2", "X2p", "Y2b"), 0.25),
                       (("X1b", "Y1p", "X1"), 1.0) ]:
        got = compose(list(names))
        phase_turns = f * hz - 0.25
        spin = 1 if "1" in names[0] else 2
        sz = np.array([0.5, -0.5])
        diag = np.exp(-1j * 2 * np.pi * phase_turns * sz)
        m2 = np.diag(diag)
        want = np.kron(np.eye(2), m2) if spin == 1 else np.kron(m2, np.eye(2))
        assert np.max(np.abs(got - want)) < 1e-8, names


def test_double_primed_expansion_equals_conditional_phase_gate():
    # Y2 X2pp Y2b Y1 X1pp Y1b Ip == G exactly (not just up to phase)
    got = compose(["Y2", "X2pp", "Y2b", "Y1", "X1pp", "Y1b", "Ip"])
    assert np.max(np.abs(got - ideal_gate("G").matrix)) < 1e-8


def test_ideal_eo_parameter_sheet():
    eo = ideal_eo_params("X1")
    assert eo.tau == 0.25 and eo.h1x == 1.0 and eo.delta == 1.0
    assert ideal_eo_params("X1p").h1x == pytest.approx(-0.4477, abs=5e-5)
    assert ideal_eo_params("X2p").h2x == pytest.approx(-1.4244, abs=5e-5)
    assert ideal_eo_params("X2pp").h2x == pytest.approx(-1.6744, abs=5e-5)
    assert ideal_eo_params("Y1p").h1y == pytest.approx(-0.4477, abs=5e-5)
    ip = ideal_eo_params("Ip")
    assert ip.tau == pytest.approx(1162790.6977, abs=1e-4)
    assert ip.h1z == 1.0 and ip.h2z == 0.25
    i_eo = ideal_eo_params("I")
    assert i_eo.h1z == i_eo.h2z == pytest.approx(0.215e-6)
    with pytest.raises(ConfigurationError):
        ideal_eo_params("CNOT")
    # the stored 4-decimal sheet, every gate and the phase-evolution duration
    for name, (tau, field, value) in ref.IDEAL_EO_FIELDS.items():
        eo = ideal_eo_params(name)
        assert eo.tau == tau, name
        assert round(getattr(eo, field), 4) == value, name
    assert round(coupling_pi_duration(), 4) == ref.IP_DURATION


def test_primed_angles_reject_bad_machine():
    with pytest.raises(ConfigurationError):
        derive_primed_angles(MachineConfig(coupling=+1e-6))


def test_gate_aliases():
    # aliases share one memoized entry, so they return the very same matrix
    assert ideal_gate("X1'").matrix is ideal_gate("X1p").matrix
    assert ideal_gate("I'").matrix is ideal_gate("Ip").matrix
    assert ideal_gate("Y2bar").matrix is ideal_gate("Y2b").matrix
    assert not np.allclose(ideal_gate("X2p", MachineConfig(h2z=0.3)).matrix,
                           ideal_gate("X2p").matrix)
    for name in GATE_NAMES:
        with pytest.raises(ValueError):
            ideal_gate(name).matrix[0, 0] = 0.0
