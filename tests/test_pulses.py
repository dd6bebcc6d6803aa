import itertools
from fractions import Fraction

import numpy as np
import pytest

import nmrqc.reference_tables as ref
from nmrqc import (ConfigurationError, MachineConfig, RationalGamma, build_qa,
                   commensurability_check_n, commensurability_margin,
                   design_pulse, eo_propagator, hypothetical_durations,
                   ideal_gate, spectator_excess_angle, spectator_residual,
                   DEFAULT_MACHINE)
from nmrqc.gates import gate_rotation
from nmrqc.operators import TWO_PI, exp_i_dot_s, global_phase_distance
from nmrqc.pulses import DEFAULT_GAMMA, STATIC_AXIS


def test_rational_gamma_validation():
    g = RationalGamma(11, 40)
    assert g.gamma == pytest.approx(0.275)
    with pytest.raises(ConfigurationError):
        RationalGamma(4, 4)
    with pytest.raises(ConfigurationError):
        RationalGamma(0, 4)
    assert RationalGamma.from_machine(DEFAULT_MACHINE) == RationalGamma(1, 4)


def test_rotating_quarter_turn_design_spin1():
    eo = design_pulse(1, np.pi / 2, "y", k=1)
    assert eo.tau == 8
    assert eo.sf1x == pytest.approx(0.03125)
    assert eo.sf1y == pytest.approx(0.03125)
    assert eo.sf2x == pytest.approx(0.0078125)
    assert (eo.phi_x, eo.phi_y) == (0.0, pytest.approx(np.pi / 2))
    assert eo.omega == 1.0
    # every spin-2 field is gamma times its spin-1 field, as the hardware
    # dictates, at the default machine and at 11/40
    for machine in (DEFAULT_MACHINE, MachineConfig(h2z=0.275)):
        for spin in (1, 2):
            eo = design_pulse(spin, np.pi / 2, "y", k=1, machine=machine)
            for f1, f2 in ((eo.h1z, eo.h2z), (eo.sf1x, eo.sf2x),
                           (eo.sf1y, eo.sf2y)):
                assert f2 == pytest.approx(machine.gamma * f1, rel=1e-12)


def test_static_quarter_turn_design_spin1():
    eo = design_pulse(1, np.pi / 2, "y", k=1, mode=STATIC_AXIS)
    assert eo.tau == 8
    assert eo.sf1x == pytest.approx(0.0625)
    assert eo.sf1y == 0.0
    assert eo.phi_x == 0.0 and eo.phi_y == 0.0
    assert eo.omega == 1.0


def test_inverse_x_design_amplitude():
    angle = 2 * np.pi * 0.4476744186
    eo = design_pulse(1, angle, "-x", k=1)
    assert eo.sf1x == pytest.approx(0.0559593, abs=5e-8)
    assert eo == design_pulse(1, angle, "x", k=1, direction=-1)
    # '-x' is the one spelling of the negative axis
    for axis in ("x-inverse", "-x-inverse", "--x"):
        with pytest.raises(ConfigurationError, match="axis must be x or y"):
            design_pulse(1, angle, axis, k=1)


def test_spin2_large_angle_design():
    eo = design_pulse(2, 2 * np.pi * 1.4244186046, "-x", k=1)
    assert eo.tau == 128
    assert eo.sf2x == pytest.approx(0.0111283, abs=5e-8)
    assert eo.sf1x == pytest.approx(4 * eo.sf2x)
    assert eo.omega == 0.25


@pytest.mark.parametrize("spin,mode", [(1, "rotating"), (2, "rotating"),
                                       (1, STATIC_AXIS), (2, STATIC_AXIS)])
def test_power_identity(spin, mode):
    # duration * target amplitude = angle, exactly (static mode halves
    # the effective drive, hence double amplitude)
    rng = np.random.default_rng(11)
    for _ in range(10):
        angle = rng.uniform(0, 2 * np.pi)
        eo = design_pulse(spin, angle, "y", k=int(rng.integers(1, 9)), mode=mode)
        target_amp = abs(eo.sf1x if spin == 1 else eo.sf2x)
        if mode == STATIC_AXIS:
            target_amp /= 2.0
        power = 2 * np.pi * eo.tau * target_amp
        assert power == pytest.approx(angle, rel=1e-12, abs=1e-12)


def test_resonance_and_phase_freeze():
    for spin, omega in ((1, 1.0), (2, 0.25)):
        for k in (1, 2, 32):
            eo = design_pulse(spin, np.pi / 2, "x", k=k)
            assert eo.omega == omega
            # bare spin-1 precession completes whole turns over the pulse
            assert eo.tau * DEFAULT_MACHINE.h1z == int(eo.tau)


@pytest.mark.parametrize("mode", ["rotating", STATIC_AXIS])
@pytest.mark.parametrize("name", ["X1", "X2"])
def test_design_counts_spin1_periods(name, mode):
    """At twice the default fields a pulse lasts its t1 (or t2) spin-1
    periods, half the time, and still realizes its gate."""
    machine = MachineConfig(h1z=2.0, h2z=0.5)
    spin, axis, d, turns = gate_rotation(name, machine)
    eo = design_pulse(spin, 2 * np.pi * turns, axis, k=4, mode=mode,
                      direction=d, machine=machine)
    t1, t2 = hypothetical_durations(DEFAULT_GAMMA, 4)
    assert eo.tau * machine.h1z == (t1 if spin == 1 else t2)
    gate = ideal_gate(name, machine)
    assert global_phase_distance(eo_propagator(eo), gate) < 1e-2


def test_angle_domain():
    design_pulse(1, 4 * np.pi - 1e-9, "x", k=1)  # mod-2-turn angles are legal
    with pytest.raises(ConfigurationError):
        design_pulse(1, -0.1, "x", k=1)
    with pytest.raises(ConfigurationError):
        design_pulse(1, 4 * np.pi + 0.1, "x", k=1)
    with pytest.raises(ConfigurationError):
        design_pulse(1, np.pi, "z", k=1)
    with pytest.raises(ConfigurationError):
        design_pulse(3, np.pi, "x", k=1)
    with pytest.raises(ConfigurationError):
        design_pulse(1, np.pi, "x", k=0)
    with pytest.raises(ConfigurationError, match="mode must be one of"):
        design_pulse(1, np.pi, "x", mode="circular")
    for angle in (True, "1", None):   # no number, or a bool
        with pytest.raises(ConfigurationError, match="angle must be a finite number"):
            design_pulse(1, angle, "x")
    for direction in (2, True, 1.0):   # checked before the axis sign applies
        with pytest.raises(ConfigurationError, match="direction must be"):
            design_pulse(1, np.pi, "x", direction=direction)


@pytest.mark.parametrize("call", [lambda k: design_pulse(1, 1.0, "x", k=k),
                                  lambda k: design_pulse(2, np.pi, "y", k=k, mode=STATIC_AXIS),
                                  lambda k: build_qa("00", style="rotating_sf", k=k)],
                         ids=["design_pulse", "design_pulse_static", "build_qa"])
def test_a_k_whose_duration_is_no_float_is_bad_input(call):
    """A k whose pulse lasts longer than the largest float (an int
    duration that float() cannot take) is bad input that names the
    duration, not an OverflowError; one just short of it designs."""
    for k in (10 ** 308, 10 ** 5000):
        with pytest.raises(ConfigurationError, match=r"pulse duration \d\.\d\de\+\d+ is too long"):
            call(k)
    assert design_pulse(1, 1.0, "x", k=10 ** 300).tau == 8e300   # 2kMN^2, N/M = 1/4


def test_commensurability_margin_values():
    """The margin is the int 2kNM(M-N), with no verdict beside it."""
    for (n, m, k), margin in ref.MARGIN_CASES.items():
        got = commensurability_margin(RationalGamma(n, m), k)
        assert (type(got), got) == (int, margin)
    assert commensurability_margin(RationalGamma(1, 4), 4) == 96


def test_hypothetical_durations():
    for (n, m, k), durations in ref.DURATION_CASES.items():
        assert hypothetical_durations(RationalGamma(n, m), k) == durations


def test_spectator_residual_accurate_hypothetical_machine():
    from nmrqc.hamiltonian import MachineConfig
    machine = MachineConfig(coupling=-0.43e-6, h1z=1.0, h2z=0.275)
    eo = design_pulse(1, np.pi / 2, "y", k=1, machine=machine)
    assert eo.tau == 2 * 40 * 11 ** 2   # t1 = 2kMN^2 at N/M = 11/40
    assert spectator_residual(eo) < 1e-3


def test_spectator_residual_antipodal_case():
    # a design whose spectator phase lands at half-period is maximally bad
    base = design_pulse(1, np.pi / 2, "y", k=1)
    detuning = base.h2z - base.h1z
    # no drive, and a duration such that t*|v| = 2*pi (mod 4*pi): net
    # spin flip -1
    bad = base.replace(tau=1.0 / abs(detuning), sf1x=0.0, sf1y=0.0,
                       sf2x=0.0, sf2y=0.0)
    assert bad.is_rotating
    assert spectator_excess_angle(bad) == pytest.approx(2 * np.pi, abs=1e-9)
    assert spectator_residual(bad) == pytest.approx(2.0, abs=1e-9)


def test_spectator_residual_improves_with_k():
    values = []
    for k in (1, 2, 4, 8, 16, 32):
        values.append(spectator_residual(design_pulse(1, np.pi / 2, "y", k=k)))
    assert all(b <= a * (1 + 1e-12) for a, b in zip(values, values[1:]))


def test_spectator_residual_rejects_static_mode():
    eo = design_pulse(1, np.pi / 2, "y", k=1, mode=STATIC_AXIS)
    with pytest.raises(ConfigurationError):
        spectator_residual(eo)


@pytest.mark.parametrize("h2z", [0.25, 1 / 3, 0.275])
def test_spectator_residual_is_the_rotation_norm(h2z):
    """The residual is the half-angle chord 2 sin(theta/4) of the excess
    angle, and that is ||U_spec - 1||_2 of the spectator's rotation about
    (transverse share, detuning), for rotating pulses on either spin."""
    machine = MachineConfig(h2z=h2z)
    for spin, axis, k in itertools.product((1, 2), ("x", "-x", "y", "-y"), (1, 2, 4)):
        eo = design_pulse(spin, np.pi / 2, axis, k=k, machine=machine)
        theta = spectator_excess_angle(eo)
        assert spectator_residual(eo) == 2 * np.sin(theta / 4)
        amp, detuning = ((abs(eo.sf2x), eo.h2z - eo.h1z) if spin == 1
                         else (abs(eo.sf1x), eo.h1z - eo.h2z))
        t = TWO_PI * eo.tau
        c = t * amp
        u = exp_i_dot_s(c if "x" in axis else 0.0, c if "y" in axis else 0.0,
                        t * detuning)
        assert spectator_residual(eo) == pytest.approx(
            np.linalg.norm(u - np.eye(2), ord=2), rel=0, abs=1e-10)


def test_spectator_rejects_an_eo_resonant_with_neither_spin():
    eo = design_pulse(1, np.pi / 2, "y", k=1).replace(omega=0.5)
    with pytest.raises(ConfigurationError, match="matches neither"):
        spectator_excess_angle(eo)
    with pytest.raises(ConfigurationError, match="matches neither"):
        spectator_residual(eo)


def test_commensurability_check_default_pair():
    k1 = commensurability_check_n([1, Fraction(1, 4)])
    assert (type(k1), k1) == (int, 4)
    # a frequency may be a (numerator, denominator) pair
    assert commensurability_check_n([(2, 2), (1, 4)]) == k1


def test_commensurability_check_equal_frequencies():
    assert commensurability_check_n([1, 1]) == 1
    # an equal frequency adds no constraint to the others
    assert commensurability_check_n([1, 1, Fraction(1, 4), "2/2"]) == 4


def test_commensurability_check_three_spins_vs_bruteforce():
    freqs = [Fraction(1), Fraction(1, 4), Fraction(1, 3)]
    k1 = commensurability_check_n(freqs)

    def admissible(k1):
        for f in freqs[1:]:
            ratio = f / freqs[0]
            if ratio == 1:
                continue
            n, m = ratio.numerator, ratio.denominator
            if (k1 * (m - n)) % m != 0:
                return False
        return True

    brute = next(k for k in range(1, 10 ** 4) if admissible(k))
    assert k1 == brute == 12


def test_commensurability_check_rejects_floats():
    with pytest.raises(ConfigurationError):
        commensurability_check_n([1.0, 0.25])


def test_commensurability_check_rejects_a_lone_or_non_positive_base():
    with pytest.raises(ConfigurationError, match="at least two frequencies"):
        commensurability_check_n([(1, 4)])
    for base in (0, (-1, 2)):
        with pytest.raises(ConfigurationError, match="must be positive"):
            commensurability_check_n([base, 1])
    # every frequency must be positive, not only the base
    for bad in ("-1/4", (2, -8), 0):
        with pytest.raises(ConfigurationError, match="must be positive"):
            commensurability_check_n([1, bad])
    # no other error gets out, and nothing is read as something else: a
    # bool, a tuple that is no pair of integers with a non-zero
    # denominator, a string Fraction cannot read, any other type
    for freqs in ([(1, 0), 1], ["1", "1/0"], ["abc", 1], [1, (1.5, 2)], [1, None],
                  [1, (1, 2, 3)], [1, True], [True, 1], [1, (1, True)], [1, [1, 4]]):
        with pytest.raises(ConfigurationError, match="exact rationals"):
            commensurability_check_n(freqs)
    for freqs in ("14", 5, None, {1: 2, 4: 5}):   # no list: not read item by item
        with pytest.raises(ConfigurationError, match="must be a list"):
            commensurability_check_n(freqs)


@pytest.mark.parametrize("axis", [5, None, ["x"]])
def test_design_pulse_refuses_an_axis_that_is_no_string(axis):
    with pytest.raises(ConfigurationError,
                       match=r"^axis must be x or y \(optionally inverted\), got "):
        design_pulse(1, np.pi / 2, axis)


@pytest.mark.parametrize("k", [-1, 0, True, 1.0, None])
def test_pulse_durations_take_k_by_check_k(k):
    """The duration and margin formulas take k by the rule of every
    builder: no negative margin or duration, and a bool is no k."""
    for formula in (hypothetical_durations, commensurability_margin):
        with pytest.raises(ConfigurationError, match="^k must be a positive integer, got "):
            formula(DEFAULT_GAMMA, k)
    assert hypothetical_durations(DEFAULT_GAMMA, np.int64(2)) == (16, 256)
