import numpy as np
import pytest

import nmrqc.reference_tables as ref
from nmrqc import (ConfigurationError, GATE_NAMES, build_program, compose,
                   coupling_pi_duration, derive_primed_angles, eo_propagator,
                   ideal_eo_params, ideal_gate, input_amplitudes, phase_gate)
from nmrqc.gates import gate_rotation
from nmrqc.hamiltonian import MachineConfig
from nmrqc.operators import (TWO_PI, embed, global_phase_distance,
                             max_unitarity_defect, rotation)

SQ2 = 1.0 / np.sqrt(2.0)


def test_pi_half_rotation_matrices():
    x = ideal_gate("X1")
    assert np.allclose(x[0:2, 0:2], np.array([[1, 1j], [1j, 1]]) * SQ2)
    y2 = ideal_gate("Y2")
    want = SQ2 * np.array([[1, 0, 1, 0], [0, 1, 0, 1],
                           [-1, 0, 1, 0], [0, -1, 0, 1]])
    assert np.allclose(y2, want)


def test_inverse_is_conjugate_transpose():
    for name in ("X1", "X2", "Y1", "Y2"):
        g = ideal_gate(name)
        gb = ideal_gate(name + "b")
        assert np.allclose(gb, g.conj().T)
        assert np.allclose(g @ gb, np.eye(4), atol=1e-12)


def test_y2_inverse_example():
    # Y2b |11> = (|11> - |10>)/sqrt(2)
    out = ideal_gate("Y2b") @ input_amplitudes(["11"])[0]
    assert np.allclose(out, [0, -SQ2, 0, SQ2], atol=1e-12)


def test_all_gates_unitary():
    for name in GATE_NAMES:
        assert max_unitarity_defect(ideal_gate(name)) < 1e-12, name


def test_cnot_truth_table():
    cnot = ideal_gate("CNOT")
    for bits, out_bits in [("00", "00"), ("10", "11"), ("01", "01"), ("11", "10")]:
        got = cnot @ input_amplitudes([bits])[0]
        want = input_amplitudes([out_bits])[0]
        assert np.allclose(np.abs(got), want, atol=1e-12)


def test_cnot_squared_is_identity_up_to_phase():
    cnot = ideal_gate("CNOT")
    assert global_phase_distance(np.eye(4), cnot @ cnot) < 1e-12


def test_phase_gate_zero_is_identity():
    assert np.allclose(phase_gate(0, 0, 0, 0), np.eye(4))


def test_compose_ising_sandwich_is_cnot():
    # Y2b I Y2 = e^{i pi/4} * (the CNOT permutation), exactly
    got = compose(["Y2b", "I", "Y2"])
    want = ideal_gate("CNOT")
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
        got = compose([ideal_gate("Y2b"), p, ideal_gate("Y2")])
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
    assert pa["X1p"] == pytest.approx(0.4477, abs=5e-5)
    assert pa["X2p"] == pytest.approx(1.4244, abs=5e-5)
    assert pa["X1pp"] == pytest.approx(0.6977, abs=5e-5)
    assert pa["X2pp"] == pytest.approx(1.6744, abs=5e-5)
    # full-precision identities: angles are F*h_z - 1/4 (mod 2) and F*h_z (mod 2)
    assert pa["X1p"] == pytest.approx((f - 0.25) % 2, abs=1e-12)
    assert pa["X2p"] == pytest.approx((0.25 * f - 0.25) % 2, abs=1e-9)


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
    assert np.max(np.abs(got - ideal_gate("G"))) < 1e-8


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
    """A gate has one spelling, GATE_NAMES': an alias, a padded name or a
    value that is no string is refused in one line by every function
    that takes a gate name, never with TypeError or AttributeError, and
    before any memo is read."""
    from nmrqc.gates import _ideal_gate
    funcs = (ideal_gate, gate_rotation, ideal_eo_params,
             lambda gate: compose([gate]), lambda gate: build_program([gate]))
    for bad in ("X1'", "X1''", "I'", "X1bar", "Y2bar", " X1", "X1 ", "x1", 5, None,
                ["X1"], ("X1",)):
        filled = _ideal_gate.cache_info()
        for func in funcs:
            with pytest.raises(ConfigurationError) as err:
                func(bad)
            assert len(str(err.value).splitlines()) == 1, bad
        assert _ideal_gate.cache_info() == filled, bad
    # the memo is keyed by machine
    assert not np.allclose(ideal_gate("X2p", MachineConfig(h2z=0.3)),
                           ideal_gate("X2p"))
    for name in GATE_NAMES:
        with pytest.raises(ValueError):
            ideal_gate(name)[0, 0] = 0.0


# the default machine and two others: another coupling and spin-2 field,
# and every field changed
MACHINES = (MachineConfig(), MachineConfig(coupling=-1e-6, h2z=0.3),
            MachineConfig(coupling=-3e-5, h1z=2, h2z=0.55))
ROTATIONS = [name for name in GATE_NAMES if name not in ("I", "Ip", "G", "CNOT")]


@pytest.mark.parametrize("machine", MACHINES)
def test_every_gate_is_one_read_only_matrix(machine):
    for name in GATE_NAMES:
        m = ideal_gate(name, machine)
        assert type(m) is np.ndarray and m.shape == (4, 4), name
        assert not m.flags.writeable, name
        assert ideal_gate(name, machine) is m, name


@pytest.mark.parametrize("machine", MACHINES)
def test_rotation_table_gives_matrix_and_ideal_eo(machine):
    """A rotation's EO is one transverse field, direction * turns / tau
    for tau = 1/4 (base) or 1 (primed), and its matrix the embedded
    rotation by direction * 2*pi * turns.  (At coupling -1e-6 and
    h1z = 1, X1pp turns by 0: its one field is -0.0.)"""
    for name in ROTATIONS:
        spin, axis, direction, turns = gate_rotation(name, machine)
        eo = ideal_eo_params(name, machine)
        field = f"h{spin}{axis}"
        assert not any(getattr(eo, f) for f in ("h1x", "h1y", "h2x", "h2y")
                       if f != field), name
        assert getattr(eo, field) * eo.tau == direction * turns, name
        assert eo.tau == (1.0 if name in derive_primed_angles(machine) else 0.25)
        assert np.array_equal(ideal_gate(name, machine),
                              embed(spin, rotation(axis, direction * TWO_PI * turns)))


@pytest.mark.parametrize("machine", MACHINES)
def test_phase_evolutions_are_their_eos(machine):
    """I and Ip are their EO's exact diagonal propagator bit for bit; G
    is the exact phase gate, which its EO gives to rounding."""
    h = -machine.coupling / 2.0
    for name, z_fields in (("I", (h, h)), ("Ip", (machine.h1z, machine.h2z)),
                           ("G", (0.0, 0.0))):
        eo = ideal_eo_params(name, machine)
        assert eo.is_diagonal and (eo.h1z, eo.h2z) == z_fields, name
        assert eo.tau == coupling_pi_duration(machine), name
        if name != "G":
            assert np.array_equal(ideal_gate(name, machine), eo_propagator(eo)), name
    g = ideal_gate("G", machine)
    assert np.array_equal(g, phase_gate(-np.pi / 4, np.pi / 4, np.pi / 4, -np.pi / 4))
    assert np.max(np.abs(g - eo_propagator(ideal_eo_params("G", machine)))) <= 1e-15


@pytest.mark.parametrize("call", [
    lambda machine: ideal_gate("X1", machine),
    lambda machine: ideal_eo_params("X1", machine),
    lambda machine: gate_rotation("X1p", machine),
    coupling_pi_duration, derive_primed_angles],
    ids=["ideal_gate", "ideal_eo_params", "gate_rotation", "coupling_pi_duration",
         "derive_primed_angles"])
def test_the_gate_layer_takes_a_machine_by_check_machine(call):
    """A machine that is no MachineConfig is refused in one line, as the
    builders refuse it (``hamiltonian.check_machine``)."""
    for machine in (None, {"coupling": -1e-6}):
        with pytest.raises(ConfigurationError,
                           match="^machine must be a MachineConfig, got [A-Za-z]+$"):
            call(machine)


def test_compose_refuses_a_bare_string():
    """A string is no gate list, as in build_program: "X1" is not the
    gates "X" and "1"."""
    for gates in ("X1", ""):
        with pytest.raises(ConfigurationError,
                           match=f"^gates must be a non-empty list, got {gates!r}$"):
            compose(gates)
    assert np.array_equal(compose(("X1",)), ideal_gate("X1"))
