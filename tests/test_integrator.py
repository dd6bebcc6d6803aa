import dataclasses
import functools
import itertools
import re

import numpy as np
import pytest

import nmrqc.integrator

from nmrqc import (ConfigurationError, EOParams, convergence_report,
                   eo_propagator, ideal_eo_params, ideal_gate, input_amplitudes,
                   oracle_propagator, build_qa, design_pulse)
from nmrqc.gates import coupling_pi_duration
from nmrqc.harness import (CHECKS, canned_names, canned_spec, emit_table,
                           run_experiment, verify_suite)
from nmrqc.hamiltonian import MachineConfig, diagonal_energies
from nmrqc.integrator import (_CACHE_SIZE, _LAYOUTS, _chain, _Drives,
                              _cached_propagator, _diagonal_phases,
                              _exact_diagonal_propagators,
                              _layout, _nearest_unitary, _period_steps,
                              _plan, _power_plan, _powers,
                              _product_formula_block,
                              _step_schedule, _z_class,
                              check_delta, clear_propagator_cache, integrate)
from nmrqc.programs import (ConvergenceReport, ConvergenceRow, Program,
                            program_unitaries, readout, run_program)
from nmrqc.operators import TWO_PI, max_unitarity_defect, state_phase_distance

from conftest import BLOCKS, PROPAGATORS, chained_reference, split_block, stacked

J = -0.43e-6


def pulse_eo(name="Y1", k=1, mode="rotating"):
    from nmrqc.gates import gate_rotation
    spin, axis, direction, turns = gate_rotation(name)
    return design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                        direction=direction, label=name)


def _fold(eo, delta):
    """The fold of the EO's plan at step delta (see integrator._plan)."""
    return _plan(eo.replace(delta=delta)).key[1]


def _alone(eo):
    """The EO's product-formula propagator: its class (``_z_class``)
    integrated in a stack of one, and conjugated."""
    return stacked((eo,))[0]


def test_step_schedule_exact_and_remainder():
    assert _step_schedule(8.0, 0.01) == (800, 0.0)
    n, rem = _step_schedule(coupling_pi_duration(), 1.0)
    assert n == 1162790
    assert rem == pytest.approx(0.6976744186, abs=1e-6)
    assert _step_schedule(0.005, 0.01) == (0, 0.005)
    assert _step_schedule(0.0, 0.01) == (0, 0.0)


def test_exact_diagonal_phase_on_basis_state():
    # the long phase evolution leaves |10> in place with phase
    # exp(-i tau E(10)), E(10) = J/4 + h1z/2 - h2z/2
    eo = ideal_eo_params("Ip")
    (state,) = input_amplitudes(["10"])
    out = eo_propagator(eo) @ state
    assert abs(abs(out[1]) - 1.0) < 1e-12
    tau = TWO_PI * eo.tau
    expected = np.exp(-1j * tau * (J / 4 + 0.5 - 0.125))
    assert abs(out[1] - expected) < 1e-7
    # independent check through the dense oracle, single step (constant H)
    ref = oracle_propagator(eo.replace(delta=eo.tau)) @ state
    assert abs(out[1] - ref[1]) < 1e-8


def test_single_step_z_precession_phases():
    # one product-formula step, only h1z: phases exp(+-i tau/2) on the
    # spin-1 sectors
    eo = EOParams(tau=0.03, h1z=1.0, delta=0.03)
    out = _alone(eo)
    tau = TWO_PI * 0.03
    want = np.diag(np.exp(-1j * tau * np.array([-0.5, 0.5, -0.5, 0.5])))
    assert np.max(np.abs(out - want)) < 1e-12


def test_rotating_pulse_matches_exact_rotation():
    # rotating-field pulse equals the exact gate up to a global phase;
    # at delta 0.01 the splitting error dominates (~3e-4), and vanishes
    # as delta^2 towards the exact rotating-frame solution
    eo = pulse_eo("Y1")
    y1 = ideal_gate("Y1")
    (state,) = input_amplitudes(["00"])
    out = eo_propagator(eo) @ state
    assert state_phase_distance(out, y1 @ state) < 1e-3
    fine = eo_propagator(eo.replace(delta=0.001)) @ state
    assert state_phase_distance(fine, y1 @ state) < 2e-5


def test_ideal_eo_matches_gate_matrix():
    # one-step reference evolution of the idealized EO reproduces the
    # exact gate to ~coupling-term accuracy, for every single-EO gate
    names = ("X1", "X2", "Y1", "Y2", "X1b", "X2b", "Y1b", "Y2b",
             "X1p", "X2p", "Y1p", "X1pp", "X2pp", "I", "Ip", "G")
    for name in names:
        eo = ideal_eo_params(name)
        gate = ideal_gate(name)
        u = oracle_propagator(eo.replace(delta=eo.tau))
        for state in input_amplitudes(["00", "10", "01", "11"]):
            assert state_phase_distance(u @ state, gate @ state) < 1e-6, name
    # G is the bare coupling, so its exact diagonal propagator is G itself
    u = eo_propagator(ideal_eo_params("G"))
    assert np.max(np.abs(u - ideal_gate("G"))) < 1e-15


def test_zero_duration_is_identity():
    eo = pulse_eo("Y1").replace(tau=0.0)
    assert np.allclose(eo_propagator(eo), np.eye(4))


def test_unitarity_of_every_method():
    eo = pulse_eo("X2p")
    for u in (eo_propagator(eo), eo_propagator(eo.replace(delta=0.05)),
              oracle_propagator(eo.replace(delta=0.05)),
              eo_propagator(ideal_eo_params("Ip"))):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_product_formula_equals_exact_on_diagonal():
    eo = EOParams(tau=137.0, j=J, h1z=1.0, h2z=0.25, delta=0.01)
    assert np.max(np.abs(_alone(eo) - eo_propagator(eo))) < 1e-10


def test_second_order_convergence_ratio():
    eo = pulse_eo("Y1")
    ref = oracle_propagator(eo.replace(delta=0.001))
    dev = {d: np.max(np.abs(eo_propagator(eo.replace(delta=d)) - ref))
           for d in (0.04, 0.02)}
    ratio = dev[0.04] / dev[0.02]
    assert 3.5 < ratio < 4.5


def test_composition_over_whole_drive_periods():
    # every EO starts its field clock at 0, so a pulse is the square of
    # its first half when that half spans whole drive periods
    for mode in ("rotating", "static_axis"):
        eo = pulse_eo("Y1", mode=mode)
        half = eo.replace(tau=eo.tau / 2)
        assert (half.tau * eo.omega).is_integer()
        u_half = eo_propagator(half)
        assert np.max(np.abs(u_half @ u_half - eo_propagator(eo))) < 1e-10, mode

    diag = EOParams(tau=50.0, j=J, h1z=1.0, h2z=0.25)
    u_full = eo_propagator(diag)
    u_half = eo_propagator(diag.replace(tau=25.0))
    assert np.max(np.abs(u_half @ u_half - u_full)) < 1e-10


def test_remainder_step_keeps_full_power():
    # duration not a multiple of the step: the tail must not be dropped
    eo = pulse_eo("Y1").replace(tau=8.0037)
    ref = oracle_propagator(eo.replace(delta=0.0001))
    u = eo_propagator(eo)
    assert np.max(np.abs(u - ref)) < 1e-3
    # explicitly different from evolving only the 800 whole steps
    u_trunc = eo_propagator(eo.replace(tau=8.0))
    assert np.max(np.abs(u - u_trunc)) > 1e-3


def test_convergence_report_flags_and_ratio():
    """A report holds its rows, coarsest step first, and nothing else."""
    qa2 = build_qa("singlet", style="rotating_sf", k=1)
    rep = convergence_report(qa2.steps, "singlet", [0.001, 0.01])
    assert [r.delta for r in rep.rows] == [0.01, 0.001]
    assert [f.name for f in dataclasses.fields(rep)] == ["rows"]

    eo = pulse_eo("Y1")
    rep2 = convergence_report(eo, "00", [0.1, 0.01])
    devs = {r.delta: r.max_amplitude_deviation for r in rep2.rows}
    assert 50 < devs[0.1] / devs[0.01] < 200  # ~100x per 10x step refinement

    rep3 = convergence_report(eo, "00", [0.01])
    assert len(rep3.rows) == 1
    with pytest.raises(ConfigurationError, match="at least one delta"):
        convergence_report(eo, "00", [])


def test_convergence_report_is_one_walk(monkeypatch):
    """One call compiles one walk, of every step size and the reference
    step, and each row is bit for bit the run_program of its step size."""
    qa2 = build_qa("singlet", style="rotating_sf", k=1)
    deltas = [0.02, 0.01, 0.005]
    walks = []
    compile_walk = nmrqc.programs.compile_walk

    def counted(programs):
        walks.append(len(programs))
        return compile_walk(programs)

    monkeypatch.setattr("nmrqc.programs.compile_walk", counted)
    rep = convergence_report(qa2.steps, "singlet", deltas)
    assert walks == [len(deltas) + 1]
    monkeypatch.undo()
    ref = run_program(Program("ref", tuple(eo.replace(delta=min(deltas) / 10)
                                           for eo in qa2.steps), "singlet"))
    for row, d in zip(rep.rows, deltas):
        out = run_program(Program("one", tuple(eo.replace(delta=d) for eo in qa2.steps),
                                  "singlet"))
        assert row.delta == d
        assert row.expectations == readout(out[None])[0]
        assert row.max_amplitude_deviation == float(np.max(np.abs(out - ref)))


@pytest.mark.parametrize("eos, deltas", [
    (build_qa("00", style="rotating_sf").steps, [0.9]),
    (build_qa("00", style="rotating_sf").steps, [True]),
    (build_qa("00", style="rotating_sf").steps, ["0.01"]),
    (build_qa("00", style="rotating_sf").steps, [0.01, float("nan")]),
    (build_qa("00", style="rotating_sf",
              machine=MachineConfig(h1z=2.0, h2z=0.5)).steps, [0.3]),
    (ideal_eo_params("Ip"), [-0.01]),
])
def test_convergence_report_refuses_the_step_sizes_the_spec_refuses(eos, deltas):
    """Each step size passes the builders' check (``check_delta``) on the
    z-fields of the pulse EOs it steps: 0.9 used to print (0.976401,
    0.469457) for an ideal (1, 1), True ran at 1 and "0.01" at 0.01."""
    with pytest.raises(ConfigurationError, match="delta"):
        convergence_report(eos, "10", deltas)


def test_convergence_flag_rounds_as_the_tables_print(monkeypatch):
    """The step-size-independence check compares what the tables print
    (``round2``, halves away from zero): rows reading 0.145 and 0.1451
    both print 0.15, though Python's round(0.145, 2) is 0.14."""
    (check,) = [c for c in CHECKS if c.name == "step-size-independence"]
    reads = {0.01: 0.145, 0.001: 0.1451}

    def report(eos, input_spec, deltas):
        return ConvergenceReport(tuple(ConvergenceRow(d, (reads[d],) * 2, 0.0)
                                       for d in deltas))

    monkeypatch.setattr("nmrqc.harness.convergence_report", report)
    result = check([])
    assert result.passed
    assert result.detail == "QA2 s=8, delta 0.01/0.001: two digits agree"
    reads[0.001] = 0.1449   # prints 0.14
    result = check([])
    assert not result.passed
    assert result.detail == "QA2 s=8, delta 0.01/0.001: two digits differ"
    # the report prints its rows and nothing else
    assert str(report(None, "00", [0.01, 0.001])).splitlines() == [
        "     delta  expectations             max amp deviation",
        "      0.01  0.145000 0.145000        0.000e+00",
        "     0.001  0.144900 0.144900        0.000e+00"]


@pytest.mark.parametrize("method", list(BLOCKS))
@pytest.mark.parametrize("mode", ["rotating", "static_axis"])
@pytest.mark.parametrize("name", ["Y1", "X2"])
def test_period_folded_equals_stepped(name, mode, method):
    # both offsets leave a partial period; 0.1037 adds a sub-step remainder
    base = pulse_eo(name, mode=mode).replace(delta=0.01)
    for offset in (-0.1, 0.1037):
        eo = base.replace(tau=base.tau + offset)
        u = PROPAGATORS[method](eo)
        ref = chained_reference(eo, 0.01, BLOCKS[method])
        assert np.max(np.abs(u - ref)) < 1e-11, offset


@pytest.mark.parametrize("method", list(BLOCKS))
def test_unfoldable_schedules_step_every_substep(method):
    y2 = pulse_eo("Y2", mode="static_axis")
    constant = EOParams(tau=3.0037, j=J, h1x=0.02, h2y=0.005, h1z=1.0,
                        h2z=0.25)
    # period 133.3 steps; period shorter than one step; no drive at all
    for eo, delta in ((y2, 0.03), (y2, 5.0), (constant, 0.01)):
        u = PROPAGATORS[method](eo.replace(delta=delta))
        ref = chained_reference(eo, delta, BLOCKS[method])
        assert np.max(np.abs(u - ref)) < 1e-11, (eo.label, delta)


def _counted_blocks(eo, delta):
    """Substeps per block call of the EO's product-formula integration
    at step delta, and its propagator."""
    eo, sizes = eo.replace(delta=delta), []

    def counting_block(drives, mids, dt):
        sizes.append(mids.size)
        return _product_formula_block(drives, mids, dt)

    return sizes, stacked((eo,), counting_block)[0]


def test_fold_steps_one_period_then_the_tail():
    # a static single-axis drive does not turn rigidly, so it folds by
    # period, and builds only the first quarter of that period
    eo = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    assert not eo.is_rotating                   # 12810 steps + remainder
    assert _fold(eo, 0.01) == "quarter"
    assert _counted_blocks(eo, 0.01)[0] == [100, 10, 1]  # quarter, partial, remainder
    # 1/(0.25*0.03) is not whole: every substep, _BLOCK at a time
    assert _fold(eo, 0.03) is None
    assert _counted_blocks(eo, 0.03)[0] == [1024] * 4 + [174, 1]
    assert _fold(eo.replace(tau=7.99), 0.01) is None    # < two periods
    assert _counted_blocks(eo.replace(tau=7.99), 0.01)[0] == [799]


_FULL_PERIOD_FALLBACKS = {  # -> (eo, delta); the base drives x only
    "phase": lambda eo: (eo.replace(phi_x=0.3), 0.01),
    "static_transverse": lambda eo: (eo.replace(h1y=1e-3), 0.01),
    "both_axes": lambda eo: (eo.replace(sf1y=0.5 * eo.sf1x, sf2y=0.5 * eo.sf2x),
                             0.01),
    "period_not_quarters": lambda eo: (  # spin 1 at delta 0.02: P = 50
        pulse_eo("Y1", mode="static_axis").replace(tau=8.1037), 0.02),
}


@pytest.mark.parametrize("method", list(BLOCKS))
@pytest.mark.parametrize("case", sorted(_FULL_PERIOD_FALLBACKS))
def test_quarter_fold_fallbacks_build_a_full_period(case, method):
    base = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    eo, delta = _FULL_PERIOD_FALLBACKS[case](base)
    assert not eo.is_rotating
    period = round(1.0 / (eo.omega * delta))
    assert _counted_blocks(eo, delta)[0][0] == period
    u = PROPAGATORS[method](eo.replace(delta=delta))
    ref = chained_reference(eo, delta, BLOCKS[method])
    assert np.max(np.abs(u - ref)) < 1e-11


@pytest.mark.parametrize("case", ["quarter", "phase"])
def test_long_periods_are_built_in_chunks(case, monkeypatch):
    """A quarter period (or a period) longer than _BLOCK substeps is built
    in blocks of at most _BLOCK substeps, as the tail is."""
    monkeypatch.setattr(nmrqc.integrator, "_BLOCK", 16)
    eo = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    eo = eo.replace(phi_x=0.3) if case == "phase" else eo
    sizes, u = _counted_blocks(eo, 0.01)     # quarter 100, period 400
    built = [16] * 6 + [4] if case == "quarter" else [16] * 25
    assert sizes == built + [10, 1]           # then the tail and the remainder
    ref = chained_reference(eo, 0.01, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11


def test_rotating_pulse_steps_one_midpoint_then_the_tail():
    eo = pulse_eo("Y2").replace(tau=128.1037)
    assert eo.is_rotating
    for delta in (0.01, 0.03):  # no commensurability condition
        assert _counted_blocks(eo, delta)[0] == [1, 1]
    assert _counted_blocks(eo.replace(tau=7.99), 0.01)[0] == [1]
    assert _counted_blocks(eo.replace(tau=0.005), 0.01)[0] == [1]  # remainder only


def _frame(eo, theta):
    """Z(theta) = exp(+i omega theta S^z_tot); S^z_tot = diag(1, 0, 0, -1)."""
    return np.diag(np.exp(1j * eo.omega * theta * np.array([1.0, 0.0, 0.0, -1.0])))


@pytest.mark.parametrize("method", list(BLOCKS))
@pytest.mark.parametrize("name", ["X1", "Y2b", "X2p"])
def test_rotating_block_is_a_z_conjugate(name, method):
    eo = pulse_eo(name, k=2)
    block, dt = BLOCKS[method], 0.01 * TWO_PI
    for t in (0.5 * dt, 3.7):
        for theta in (dt, 17 * dt, -2.3):
            z = _frame(eo, theta)
            shifted = block(eo, np.array([t + theta]), dt)
            conj = z @ block(eo, np.array([t]), dt) @ z.conj().T
            assert np.max(np.abs(shifted - conj)) < 1e-14, (t, theta)
    # the other sense of rotation is far off: this pins the sign of Z
    z = _frame(eo, -1.0)
    wrong = z @ block(eo, np.array([3.7]), dt) @ z.conj().T
    assert np.max(np.abs(block(eo, np.array([4.7]), dt) - wrong)) > 1e-5


@pytest.mark.parametrize("method", list(BLOCKS))
@pytest.mark.parametrize("name", ["Y1", "X2"])  # static: x drive, y drive
def test_static_block_half_period_and_time_reversal(name, method):
    eo = pulse_eo(name, k=2, mode="static_axis")
    y_drive = eo.sf1y != 0.0
    assert y_drive == (eo.sf1x == 0.0)
    block, dt = BLOCKS[method], 0.01 * TWO_PI
    half = np.pi / eo.omega                      # T/2 in radian time
    z_pi, z_half_pi = _frame(eo, half), _frame(eo, half / 2)
    assert np.allclose(np.diag(z_pi), [-1, 1, 1, -1], atol=1e-15)
    for t in (0.5 * dt, 3.7):
        b = block(eo, np.array([t]), dt)
        shifted = block(eo, np.array([t + half]), dt)
        assert np.max(np.abs(shifted - z_pi @ b @ z_pi)) < 1e-14, t
        assert np.max(np.abs(shifted - b)) > 1e-7   # the flip is not trivial
        real = z_half_pi @ b @ z_half_pi.conj().T if y_drive else b
        assert np.max(np.abs(real - real.T)) < 1e-14, t
        if y_drive:  # complex-symmetric only after the conjugation
            assert np.max(np.abs(b - b.T)) > 1e-7


# (turns, k, tau offset): the offsets leave static pulses a tail and a remainder
_SHAPES = ((0.25, 1, 0.0), (0.5, 2, 0.1037), (0.75, 2, -0.5), (0.75, 1, 0.1037))
# (spin, axis, direction, turns, k, tau offset) of the designed pulses the
# class rule is checked on: every spin, axis and direction, in two shapes
_CLASS_PULSES = [(spin, axis, direction) + _SHAPES[(i + j) % 4]
                 for i, (spin, axis, direction)
                 in enumerate(itertools.product((1, 2), "xy", (1, -1)))
                 for j in (0, 2)]


def _z_quarter(q):
    """Z_q = exp(i q pi/2 S^z_tot) = diag(i^q, 1, 1, i^-q), built exactly."""
    return np.diag([1j ** q, 1, 1, (-1j) ** q])


@pytest.mark.parametrize("mode", ["rotating", "static_axis"])
@pytest.mark.parametrize("spin, axis, direction, turns, k, offset", _CLASS_PULSES)
def test_pulse_is_a_quarter_turn_conjugate_of_its_class(spin, axis, direction,
                                                        turns, k, offset, mode):
    """A designed pulse is stored as Z_q U(eo0) Z_q^dagger, with eo0 and q
    from _z_class: exactly that conjugate, within 1e-11 of stepping every
    substep, and far from the conjugate of the other sense (q odd)."""
    eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                      direction=direction, label=f"{axis}{spin}")
    eo = eo.replace(tau=eo.tau + offset)
    eo0, q = _z_class(eo)
    assert _z_class(eo0) == (eo0, 0)
    assert (eo0.phi_x, eo0.sf1y == 0.0) == (0.0, mode != "rotating")
    assert min(eo0.sf1x, eo0.sf2x) >= 0.0
    z = _z_quarter(q)
    clear_propagator_cache()
    u = eo_propagator(eo)
    assert np.array_equal(u, z @ eo_propagator(eo0) @ z.conj().T)
    assert np.array_equal(oracle_propagator(eo),
                          z @ oracle_propagator(eo0) @ z.conj().T)
    ref = chained_reference(eo, eo.delta, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11
    if q % 2:   # Z_q^dagger = Z_q for q = 0, 2
        wrong = z.conj().T @ eo_propagator(eo0) @ z
        assert np.max(np.abs(u - wrong)) > 1e-3


def test_axes_and_senses_of_one_pulse_share_a_class():
    """X2, X2b, Y2 and Y2b at one k are one class in either mode, with
    q = 0, 1, 2, 3 among them; other phases and mixed signs are their
    own class."""
    for mode in ("rotating", "static_axis"):
        classes = [_z_class(pulse_eo(name, k=2, mode=mode))
                   for name in ("X2", "X2b", "Y2", "Y2b")]
        assert len({eo0 for eo0, _ in classes}) == 1
        assert sorted(q for _, q in classes) == [0, 1, 2, 3]
        plans = [_plan(pulse_eo(name, k=2, mode=mode))
                 for name in ("X2", "X2b", "Y2", "Y2b")]
        assert len({id(p.eo0) for p in plans}) == 1   # one object per class
        assert len({p.key for p in plans}) == 1
    eo = pulse_eo("Y2", mode="static_axis")
    for own in (eo.replace(phi_x=0.3), eo.replace(sf2x=-eo.sf2x),
                eo.replace(h1x=1e-3), ideal_eo_params("Ip")):
        assert _z_class(own) == (own, 0)


@pytest.mark.parametrize("shift", [0.3, 1.0])
def test_rotating_pulse_off_a_quarter_turn_is_its_own_class(shift):
    """A rotating EO whose phi_x is no whole number of quarter turns is
    its own class (q = 0), and its propagator is still the conjugate the
    module docstring states, taken at its phase shift: U(eo) = Z U(eo0)
    Z^dagger with Z = exp(i shift S^z_tot), within 1e-11."""
    base = pulse_eo("X2")
    eo = base.replace(phi_x=base.phi_x + shift, phi_y=base.phi_y + shift)
    assert eo.is_rotating
    assert _z_class(eo) == (eo, 0)
    z = np.diag([np.exp(1j * shift), 1, 1, np.exp(-1j * shift)])
    clear_propagator_cache()
    assert np.max(np.abs(eo_propagator(eo)
                         - z @ eo_propagator(base) @ z.conj().T)) < 1e-11


_NEAR_MISSES = {
    "phase_minus_quarter": lambda eo: eo.replace(phi_x=eo.phi_y + np.pi / 2),
    "unequal_amplitudes": lambda eo: eo.replace(sf1y=1.001 * eo.sf1x),
    "static_transverse": lambda eo: eo.replace(h1x=1e-3),
    "static_axis": lambda eo: pulse_eo("X2", mode="static_axis"),
}


@pytest.mark.parametrize("miss", sorted(_NEAR_MISSES))
def test_near_rotating_pulses_fall_back(miss):
    eo = _NEAR_MISSES[miss](pulse_eo("X2")).replace(tau=128.1037)
    assert pulse_eo("X2").is_rotating and not eo.is_rotating
    u = eo_propagator(eo)
    ref = chained_reference(eo, 0.01, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_delta_rejected(bad):
    with pytest.raises(ConfigurationError, match="delta must be positive"):
        check_delta(bad)
    for eo in (pulse_eo(), ideal_eo_params("Ip")):
        for _ in range(2):  # a lookup that raised left nothing in the cache
            for propagator in (eo_propagator, oracle_propagator):
                with pytest.raises(ConfigurationError, match="delta"):
                    propagator(eo.replace(delta=bad))


def test_cold_walk_integrates_in_stacks(kernel_calls, monkeypatch):
    """A cold walk integrates the classes of its rotating pulses in one
    stack and of its static ones in one stack per drive frequency; a
    diagonal EO joins no stepped stack, an EO repeated in another step is integrated
    once, and each result is read-only and the pulse integrated alone."""
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    static = [pulse_eo(name, k=2, mode="static_axis") for name in ("Y2", "X2", "Y1")]
    program = Program("p", tuple([ideal_eo_params("Ip")] + eos + static + [eos[0]]))
    info = _cached_propagator.cache_info
    clear_propagator_cache()
    program_unitaries([program])
    # spin 2 (Y2 and X2, one class) in one stack, spin 1 (Y1) in another
    assert kernel_calls == [("rotating", 3), ("quarter", 1), ("quarter", 1)]
    assert (info().misses, info().hits) == (7, 0)
    results = [eo_propagator(eo) for eo in eos + static]
    assert not any(u.flags.writeable for u in results)
    for eo, u in zip(eos + static, results):
        assert np.array_equal(u, _alone(eo))
    monkeypatch.setattr(nmrqc.integrator, "_period_steps", None)  # a warm walk plans nothing
    program_unitaries([program])
    assert len(kernel_calls) == 3 and info().misses == 7


def test_diagonal_eos_are_one_closed_form_stack(kernel_calls, monkeypatch):
    """A walk's diagonal EOs, at every step size, are one closed-form
    stack that steps nothing, and each propagator is the EO integrated
    alone; a duration whose phase is not finite raises, naming it, and
    nothing of the stack is integrated or stored, on every run: a list
    that raises leaves no layout."""
    ip = ideal_eo_params("Ip")
    eos = [ip.replace(tau=tau, delta=delta) for tau, delta in
           ((0.0, 0.01), (1.5, 0.01), (ip.tau, 0.02), (3e5, 1.0), (1e300, 0.01))]
    stacks = []
    closed_form = nmrqc.integrator._exact_diagonal_propagators
    monkeypatch.setattr(nmrqc.integrator, "_exact_diagonal_propagators",
                        lambda group: stacks.append(len(group)) or closed_form(group))
    clear_propagator_cache()
    integrate(eos + [pulse_eo("X1")])
    assert stacks == [len(eos)] and kernel_calls == [("rotating", 1)]
    stacked = [eo_propagator(eo) for eo in eos]
    for eo, u in zip(eos, stacked):
        clear_propagator_cache()
        assert np.array_equal(u, eo_propagator(eo))
        assert np.array_equal(u, np.diag(np.diag(u)))
    clear_propagator_cache()
    for bad in (1e308, float("inf")):
        layouts = _layout.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"duration {bad!r} is too long")):
                integrate(eos[:2] + [ip.replace(tau=bad)] + eos[2:])
            assert not _cached_propagator
        assert _layout.cache_info().currsize == layouts


# -> (eo, delta) and its fold; the base drives x, and an x drive whose
# period is not a multiple of 4 steps folds by its own whole period
_STACK_FALLBACKS = {**{case: (make, "period")
                       for case, make in _FULL_PERIOD_FALLBACKS.items()},
                    "period_not_quarters": (_FULL_PERIOD_FALLBACKS["period_not_quarters"],
                                            "x period"),
                    "under_two_periods": (lambda eo: (eo.replace(tau=7.99), 0.01),
                                          None),
                    "incommensurate": (lambda eo: (eo, 0.03), None)}


@pytest.mark.parametrize("case", sorted(_STACK_FALLBACKS))
def test_static_fallbacks_never_join_a_stack(case, kernel_calls):
    """A static EO that does not fold by quarter periods never joins the
    quarter stack of its drive frequency, even next to pulses of that
    frequency that stack: it joins the stack of its own fold, a whole
    period (an x drive's or any other) or none."""
    base = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    make, fold = _STACK_FALLBACKS[case]
    eo, delta = make(base)
    eo = eo.replace(delta=delta)
    partners = [pulse_eo(name, k=k, mode="static_axis")
                for name, k in (("X2", 1), ("Y2b", 2))]
    clear_propagator_cache()
    integrate([eo] + [p.replace(delta=delta) for p in partners])
    assert _fold(eo, delta) == fold
    assert kernel_calls[0] == (fold, 1)
    assert sum(n for _, n in kernel_calls) == 1 + len(partners)
    n_calls = len(kernel_calls)
    u = eo_propagator(eo)
    assert len(kernel_calls) == n_calls       # stored, not integrated again
    ref = chained_reference(eo, delta, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11
    del kernel_calls[:]
    clear_propagator_cache()
    integrate(partners + [eo])   # the partners at their own step
    assert kernel_calls == [("quarter", len(partners)), (fold, 1)]


def test_a_long_run_does_not_split_the_short_ones(kernel_calls):
    """A stack is grouped by each EO's own run: eight unfolded static
    pulses of 166-190 substeps share blocks of five and three, and one of
    1333 substeps of the same stack is a group of one.  Each result is
    its class integrated alone."""
    base = pulse_eo("Y2", mode="static_axis")
    eos = [base.replace(tau=(n + 0.5) * 0.03, delta=0.03)
           for n in (190, 166, 1333, 183, 170, 186, 173, 176, 180)]
    assert {_plan(eo).key for eo in eos} == {(0.03, None, base.omega)}
    clear_propagator_cache()
    integrate(eos)
    assert kernel_calls == [(None, 5), (None, 3), (None, 1)]
    for eo in eos:
        assert np.array_equal(eo_propagator(eo), _alone(eo))


def test_oracle_propagator_stores_nothing(kernel_calls):
    """The reference is integrated alone on every call and leaves the
    store, and its statistics, as they were."""
    eo = pulse_eo("Y2", mode="static_axis")
    clear_propagator_cache()
    eo_propagator(pulse_eo("X1"))
    info = _cached_propagator.cache_info
    before = (len(_cached_propagator), vars(info()))
    for _ in range(2):
        u = oracle_propagator(eo)
        assert (len(_cached_propagator), vars(info())) == before
    assert kernel_calls == [("rotating", 1)] + [("quarter", 1)] * 2
    assert eo not in _cached_propagator
    ref = chained_reference(eo, eo.delta, BLOCKS["dense_midpoint_oracle"])
    assert np.max(np.abs(u - ref)) < 1e-11


def test_store_is_keyed_by_the_eo_alone():
    """Every propagator the checks and a table store is keyed by its EO,
    at whatever step size the EO carries."""
    clear_propagator_cache()
    verify_suite(include_tables=False)
    run_experiment(canned_spec("table8"))
    keys = list(_cached_propagator)
    assert keys and all(type(key) is EOParams for key in keys)
    assert {key.delta for key in keys} >= {0.01, 0.02, 0.04}


def test_stacked_propagators_are_kept_until_cleared(kernel_calls):
    """What a walk, a lookup or integrate stored is left out by later
    ones, until clear_propagator_cache empties the store; a lookup that
    misses integrates its key alone."""
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    info = _cached_propagator.cache_info
    clear_propagator_cache()
    eo_propagator(eos[0])
    program_unitaries([Program("p", tuple(eos))])
    assert kernel_calls == [("rotating", 1), ("rotating", 2)]  # X1 was stored
    extra = pulse_eo("Y1", k=2)
    integrate(eos + [extra])
    assert kernel_calls[2:] == [("rotating", 1)]
    assert (info().misses, info().hits) == (4, 0)  # integrate looks nothing up
    clear_propagator_cache()
    assert not _cached_propagator and (info().misses, info().hits) == (0, 0)
    u = eo_propagator(eos[2])
    assert kernel_calls[3:] == [("rotating", 1)]
    assert np.array_equal(u, _alone(eos[2]))


@pytest.mark.parametrize("drop", ["clear_propagator_cache"])
def test_waiting_propagators_are_dropped(drop, kernel_calls):
    """The propagators a walk stacked ahead of their lookups are forgotten
    by clear_propagator_cache: a later miss integrates alone."""
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    static = [pulse_eo(name, k=2, mode="static_axis") for name in ("Y2", "X2")]
    clear_propagator_cache()
    program_unitaries([Program("p", tuple(eos + static))])
    assert kernel_calls == [("rotating", 3), ("quarter", 1)]  # Y2, X2: one class
    assert len(_cached_propagator) == len(eos + static)
    getattr(nmrqc.integrator, drop)()
    assert not _cached_propagator
    u = eo_propagator(static[0])           # integrated anew, alone
    assert kernel_calls[2:] == [("quarter", 1)]
    assert np.array_equal(u, _alone(static[0]))


def test_a_walk_reuses_a_propagator_integrated_long_ago(kernel_calls):
    """A pulse integrated before _CACHE_SIZE others, but looked up since,
    is still stored: a walk over it and a cold pulse integrates only the
    cold one.  The store evicts the least recently used key, not the
    oldest integrated one, and holds at most _CACHE_SIZE."""
    x1, y2 = pulse_eo("X1", k=2), pulse_eo("Y2", k=2)
    ip = ideal_eo_params("Ip")
    info = _cached_propagator.cache_info
    clear_propagator_cache()
    eo_propagator(x1)
    for tau in range(_CACHE_SIZE):
        eo_propagator(ip.replace(tau=float(tau)))
        if tau % 100 == 0:
            eo_propagator(x1)
    program_unitaries([Program("p", (x1, y2))])
    assert kernel_calls == [("rotating", 1), ("rotating", 1)]
    assert len(_cached_propagator) == _CACHE_SIZE
    misses = info().misses
    for eo in (x1, y2, ip.replace(tau=2.0)):   # kept
        eo_propagator(eo)
    assert info().misses == misses
    for eo in (ip.replace(tau=0.0), ip.replace(tau=1.0)):   # used least recently
        eo_propagator(eo)
    assert info().misses == misses + 2
    assert len(kernel_calls) == 2


def test_a_walk_larger_than_the_store_integrates_each_eo_once(monkeypatch):
    """A walk over more distinct EOs than the store holds integrates and
    looks them up in chunks that fit, so it never evicts an EO it has
    yet to look up: each EO is integrated once, and the unitaries are
    those of the walk with room for all of them."""
    from nmrqc import build_grover
    programs = [build_grover(item, "rotating_sf", k=k)
                for item in range(4) for k in (1, 2, 3)]
    distinct = len({eo for p in programs for eo in p.steps})
    clear_propagator_cache()
    fits = program_unitaries(programs)
    assert _cached_propagator.cache_info().misses == distinct
    monkeypatch.setattr(nmrqc.integrator, "_CACHE_SIZE", 7)
    assert distinct > 3 * 7
    clear_propagator_cache()
    assert np.array_equal(program_unitaries(programs), fits)
    assert _cached_propagator.cache_info().misses == distinct
    assert len(_cached_propagator) == 7


@pytest.mark.parametrize("field, bad", [
    ("delta", float("inf")), ("delta", float("nan")),
    ("tau", float("nan")), ("tau", -1.0)],
    ids=["inf", "nan", "tau_nan", "tau_negative"])
def test_bad_delta_raises_on_every_lookup_and_stores_nothing(field, bad,
                                                            kernel_calls):
    """A bad step size, or a negative or NaN duration, raises with its own
    message in a walk, in integrate and in a lookup of either propagator,
    for a pulse and a diagonal EO, every time, and nothing is integrated
    or stored: every key is checked before any is integrated, also with
    the layouts of valid lists of one and of two EOs memoized."""
    match = ("delta must be positive" if field == "delta"
             else f"duration must be non-negative, got {bad!r}")
    good = pulse_eo("X1")
    clear_propagator_cache()
    integrate([good])
    integrate([ideal_eo_params("Ip"), pulse_eo("Y2")])
    clear_propagator_cache()
    del kernel_calls[:]
    for eo in (pulse_eo("Y2"), ideal_eo_params("Ip")):
        eo = eo.replace(**{field: bad})
        for _ in range(2):
            for call in (lambda: program_unitaries([Program("p", (good, eo))]),
                         lambda: integrate([good, eo]),
                         lambda: eo_propagator(eo), lambda: oracle_propagator(eo)):
                with pytest.raises(ConfigurationError, match=match):
                    call()
    assert not _cached_propagator and not kernel_calls


def _alone_or_closed_form(eo):
    """The EO's propagator integrated alone: its class stepped in a stack
    of one (``_alone``), or the closed form of a diagonal EO."""
    if eo.is_diagonal:
        return _exact_diagonal_propagators(_diagonal_phases((eo,)))[0]
    return _alone(eo)


def test_a_cold_rerun_reuses_the_layout_of_its_misses(kernel_calls):
    """Every canned table, run cold one after another, then again after
    each store clear, then with the layouts forgotten before each: the
    rerun takes each table's layout from the memo, which outlives the
    store, and all three store the same propagators, each the EO
    integrated alone, from the same stacks; a warm rerun plans nothing."""
    info = _layout.cache_info
    _layout.cache_clear()
    runs = []
    for forget in (False, False, True):
        runs.append({})
        for name in canned_names():
            if forget:
                _layout.cache_clear()
            clear_propagator_cache()
            before, n_calls = info(), len(kernel_calls)
            run_experiment(canned_spec(name))
            after = info()
            runs[-1][name] = (dict(_cached_propagator), sorted(kernel_calls[n_calls:]),
                              after.hits - before.hits, after.misses - before.misses)
            if forget:
                run_experiment(canned_spec(name))   # warm: no layout
                assert info() == after
    first, rerun, fresh = runs
    for name, (store, stacks, hits, misses) in first.items():
        assert store and stacks and (hits, misses) == (0, 1), name
        assert rerun[name][2:] == (1, 0) and fresh[name][2:] == (0, 1), name
        for other, other_stacks, _, _ in (rerun[name], fresh[name]):
            assert other_stacks == stacks and list(other) == list(store)
            assert all(np.array_equal(other[eo], u) for eo, u in store.items())
        for eo, u in store.items():
            assert np.array_equal(u, _alone_or_closed_form(eo)), (name, eo.label)


def test_a_cold_rerun_of_a_memoized_layout_looks_no_plan_up(monkeypatch):
    """Every canned table, run cold, then cold again with every plan
    lookup raising: the stacks of its memoized layout carry all that the
    kernels read, and each table comes out bit for bit the same."""
    _layout.cache_clear()
    tables = {}
    for name in canned_names():
        clear_propagator_cache()
        tables[name] = emit_table(run_experiment(canned_spec(name)), "json")

    def no_plan(eo):
        raise AssertionError(f"the plan of {eo.label} looked up")

    monkeypatch.setattr(nmrqc.integrator, "_plan", no_plan)
    for name in canned_names():
        clear_propagator_cache()
        assert emit_table(run_experiment(canned_spec(name)), "json") == tables[name], name
    clear_propagator_cache()


def _counted_plan_bodies(monkeypatch) -> list:
    """The EOs whose plan ``_plan``'s body computes from now on, one
    entry per run: a fresh memo of the same size over ``_plan.__wrapped__``
    (the body's own lookup of a class goes through it too)."""
    runs, body = [], nmrqc.integrator._plan.__wrapped__

    def counting(eo):
        runs.append(eo)
        return body(eo)

    monkeypatch.setattr(nmrqc.integrator, "_plan",
                        functools.lru_cache(maxsize=_CACHE_SIZE)(counting))
    return runs


def _planned_once(eos) -> int:
    """How many plan bodies a cold walk of the EOs may run: one per
    distinct EO and one per class that is none of them."""
    return len(set(eos) | {_z_class(eo)[0] for eo in eos})


def test_a_layout_plans_each_missed_eo_once(monkeypatch):
    """Building the layout of a fresh list of missed EOs (a static and a
    rotating table's) runs _plan's body once per missed EO and once per
    class not planned before.  Built again from those plans, it looks
    each missed EO's plan up once, in walk order, and nothing else does:
    ``_chunks`` and ``_Drives`` read the plans they are handed."""
    eos = canned_spec("table8")._compiled.eos + canned_spec("table9")._compiled.eos
    runs = _counted_plan_bodies(monkeypatch)
    layout = _layout.__wrapped__(eos)
    assert len(runs) == _planned_once(eos) > len(eos)
    plans, lookups = {eo: nmrqc.integrator._plan(eo) for eo in eos}, []
    monkeypatch.setattr(nmrqc.integrator, "_plan",
                        lambda eo: lookups.append(eo) or plans[eo])
    again = _layout.__wrapped__(eos)
    assert lookups == list(eos)
    assert [(d.eos, d.fold) for d in again.groups] == [(d.eos, d.fold) for d in layout.groups]
    assert np.array_equal(again.rows, layout.rows) and np.array_equal(again.qs, layout.qs)


def _jittered(program, rng, scale=0.01):
    """The program with the amplitudes of each pulse step scaled by its
    own 1 + scale N(0, 1)."""
    steps = []
    for eo in program.steps:
        f = 1.0 + scale * rng.standard_normal()
        steps.append(eo if eo.is_diagonal else eo.replace(
            sf1x=eo.sf1x * f, sf1y=eo.sf1y * f, sf2x=eo.sf2x * f, sf2y=eo.sf2y * f))
    return Program(program.name, tuple(steps), program.input_spec, program.ideal_unitary)


def test_a_walk_past_the_store_size_plans_each_eo_once(monkeypatch):
    """Seven 1% amplitude jitters of the six rotating QA programs, more
    distinct EOs than the plan memo holds, walked cold at once: each
    unitary is that of its program walked alone, bit for bit, and the
    walk runs no more plan bodies than one per EO and per class."""
    rng = np.random.default_rng(18)
    base = [build_qa(spec, cnot_variant=v, style="rotating_sf")
            for v in (1, 2, 3) for spec in ("00", "singlet")]
    programs = [_jittered(p, rng) for _ in range(7) for p in base]
    eos = {eo for p in programs for eo in p.steps}
    assert len(eos) > _CACHE_SIZE
    runs = _counted_plan_bodies(monkeypatch)
    clear_propagator_cache()
    walked = program_unitaries(programs)
    assert len(runs) <= _planned_once(eos)
    for program, u in zip(programs, walked):
        clear_propagator_cache()
        assert np.array_equal(program_unitaries([program])[0], u), program.name
    clear_propagator_cache()


def test_each_stack_of_a_canned_layout_states_what_its_members_give(monkeypatch):
    """Every stack of a canned table's layout has the step size and fold
    of its members' plans, their drive period for a quarter or period
    fold (else 0), and their step schedules."""
    layouts, memo = [], _layout
    monkeypatch.setattr(nmrqc.integrator, "_layout",
                        lambda misses: layouts.append(memo(misses)) or layouts[-1])
    for name in canned_names():
        clear_propagator_cache()
        run_experiment(canned_spec(name))
    stacks = [d for layout in layouts for d in layout.groups]
    assert {"rotating", "quarter"} <= {d.fold for d in stacks}
    for d in stacks:
        assert isinstance(d, _Drives)
        assert {_plan(eo).key[:2] for eo in d.eos} == {(d.delta, d.fold)}
        folded = d.fold in ("quarter", "period")
        assert {_period_steps(eo.omega, eo.delta) if folded else 0
                for eo in d.eos} == {d.period}
        assert d.period > 0 or not folded
        n_full, rem = zip(*(_step_schedule(eo.tau, eo.delta) for eo in d.eos))
        assert np.array_equal(d.schedule[0], n_full) and np.array_equal(d.schedule[1], rem)
    clear_propagator_cache()


def test_the_layout_memo_is_bounded():
    """The memo keeps at most _LAYOUTS layouts."""
    ip = ideal_eo_params("Ip")
    assert _layout.cache_info().maxsize == _LAYOUTS
    for tau in range(_LAYOUTS + 8):
        clear_propagator_cache()
        integrate([ip.replace(tau=float(tau))])
    assert _layout.cache_info().currsize == _LAYOUTS


def test_a_bad_eo_raises_on_every_plan_and_leaves_no_trace():
    """A plan of a NaN step size or a negative duration raises each time
    it is asked for; neither the plans nor the store keep anything."""
    clear_propagator_cache()
    before = _plan.cache_info().currsize
    for bad in (pulse_eo("Y2").replace(delta=float("nan")),
                pulse_eo("Y2").replace(tau=-1.0)):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                _plan(bad)
            with pytest.raises(ConfigurationError):
                integrate([bad])
    assert _plan.cache_info().currsize == before and not _cached_propagator


def test_stacked_powers_equal_matrix_power(rng):
    from conftest import random_unitary
    # matrix_power special-cases 3; 16 .. 2048 are the exponents 2q of the
    # quarter-folded static pulses of the canned tables
    ns = [0, 1, 2, 5, 6, 800, 801, 409600, 16, 32, 64, 128, 256, 512, 2048]
    base = np.stack([random_unitary(rng) for _ in ns])
    for i, u in enumerate(_powers(base, _power_plan(ns))):   # no EO's product is touched
        assert np.array_equal(u, np.linalg.matrix_power(base[i], ns[i])), ns[i]


def test_powers_of_a_shuffled_stack_equal_matrix_power(rng):
    """Every exponent shape the squaring pass gathers: 0, 1, all bits set
    (2^b - 1), one bit (2^b) and the designed 25 * 2^s, up to 19 bits,
    in a shuffled stack and each row alone."""
    from conftest import random_unitary
    ns = sorted({0, 1} | {n for b in range(1, 20) for n in (2 ** b - 1, 2 ** b)}
                | {25 * 2 ** s for s in range(15)})
    ns = [ns[i] for i in rng.permutation(len(ns))]
    base = np.stack([random_unitary(rng) for _ in ns])
    stacked = _powers(base, _power_plan(ns))
    for i, n in enumerate(ns):
        want = np.linalg.matrix_power(base[i], n)
        if n == 3:   # which matrix_power multiplies as (b b) b
            want = base[i] @ (base[i] @ base[i])
        assert np.array_equal(stacked[i], want), n
        if n:   # a stack of one needs an n >= 1
            assert np.array_equal(_powers(base[i:i + 1], _power_plan([n]))[0], want), n


def _table8_quarter_blocks():
    """(drives, mids, dt) of each quarter-period block of a cold table8:
    each quarter stack of the table's layout and the midpoints of its
    first P/4 substeps."""
    blocks = []
    for d in _layout(canned_spec("table8")._compiled.eos).groups:
        if d.fold == "quarter":
            dt = d.delta * TWO_PI
            mids = (np.arange(d.period // 4) + 0.5) * dt
            blocks.append((d, np.tile(mids, (len(d.eos), 1)), dt))
    return blocks


def _split_gap(d, mids, dt):
    return np.max(np.abs(_product_formula_block(d, mids, dt)
                         - split_block(d, mids, dt)))


def test_merged_half_steps_match_the_split_on_a_rotating_stack():
    """The one Strang step builder (``_strang_step``, through
    ``_product_formula_block``) against conftest's ``split_block``, each
    substep's T D T by one einsum, on rotating pulses."""
    eos = [pulse_eo(name, k) for name in ("Y1", "X1p", "Y2b", "X2p")
           for k in (1, 2, 32)]
    dt = 0.01 * TWO_PI
    drives = _Drives([_plan(eo) for eo in eos])
    mids = np.full((len(eos), 1), dt / 2.0)   # one midpoint per EO
    assert _split_gap(drives, mids, dt) < 2e-14
    # and the first 10 substeps, whose half-steps do not commute
    mids = np.broadcast_to((np.arange(10) + 0.5) * dt, (len(eos), 10))
    assert _split_gap(drives, mids, dt) < 2e-14


def test_merged_half_steps_match_the_split_on_table8():
    """The one Strang step builder against ``split_block`` on the
    substeps of table8's quarter blocks."""
    blocks = _table8_quarter_blocks()
    assert {mids.shape for _, mids, _ in blocks} == {(10, 100), (10, 25)}
    for d, mids, dt in blocks:
        assert _split_gap(d, mids, dt) < 2e-14, mids.shape


def test_zero_length_substeps_of_a_ragged_block_stay_the_identity():
    d, mids, dt = next(b for b in _table8_quarter_blocks()
                       if b[1].shape == (10, 100))
    counts = np.array([100, 73, 50, 1, 100, 99, 26, 25, 2, 0])
    ragged = np.where(np.arange(100) < counts[:, None], dt, 0.0)
    assert _split_gap(d, mids, ragged) < 2e-14
    got = _product_formula_block(d, mids, ragged)
    assert np.array_equal(got[-1], np.eye(4))
    for e, count in enumerate(counts[:-1]):   # as its own substeps alone
        alone = _product_formula_block(_Drives([_plan(d.eos[e])]),
                                       mids[e:e + 1, :count], dt)
        assert np.array_equal(got[e], alone[0]), count


@pytest.mark.parametrize("size", [1, 6])
def test_projection_reaches_the_polar_factor(rng, size):
    from conftest import random_unitary
    exact = np.stack([random_unitary(rng) for _ in range(size)])
    noise = rng.uniform(-1e-9, 1e-9, (2, size, 4, 4))
    m = exact + noise[0] + 1j * noise[1]
    got = _nearest_unitary(m)
    u, _s, vh = np.linalg.svd(m)
    assert np.max(np.abs(got - u @ vh)) < 1e-14
    for g in got:
        assert max_unitarity_defect(g) < 1e-14
    for i in range(size):   # whatever shares its stack
        assert np.array_equal(got[i], _nearest_unitary(m[i:i + 1])[0])


# the substep rotations and phases in extended precision
_LD, _CLD = np.longdouble, np.clongdouble
_TWO_PI_LD = 8 * np.arctan(_LD(1))


def _extended_split(eo, mids, dt):
    """The Strang product T(dt/2) D(dt) T(dt/2) of substeps at mids (radian
    time) of length dt, chained, in clongdouble."""
    s = np.sin(_LD(eo.omega) * mids[:, None] + np.array([eo.phi_x, eo.phi_y], _LD))
    f = (np.array([[eo.h1x, eo.h1y], [eo.h2x, eo.h2y]], _LD)
         + np.array([[eo.sf1x, eo.sf1y], [eo.sf2x, eo.sf2y]], _LD) * s[:, None, :])
    fx, fy = f[..., 0], f[..., 1]
    rho = np.hypot(fx, fy)
    angle = dt / 4 * rho
    snc = np.sin(angle) / np.where(rho > 0, rho, 1)
    r = np.empty(fx.shape + (2, 2), _CLD)
    r[..., 0, 0] = r[..., 1, 1] = np.cos(angle)
    r[..., 0, 1] = 1j * snc * (fx - 1j * fy)
    r[..., 1, 0] = 1j * snc * (fx + 1j * fy)
    t = (r[:, 1, :, None, :, None] * r[:, 0, None, :, None, :]).reshape(-1, 4, 4)
    ez = np.array([eo.j, eo.h1z, eo.h2z], _LD)
    phases = np.exp(-1j * dt * diagonal_energies(*ez).astype(_CLD))
    return _chain((t @ (phases[:, None] * t))[None])[0]   # T (D T), D on rows


def _extended_strang(eo, fold=True):
    """The Strang product of the EO's substeps in clongdouble.  A rotating
    drive's substeps are z-conjugates of the first, so the product is
    Z(n dt) (Z(dt)^dagger B(dt/2))^n; every other EO (or, unfolded, every
    EO) is stepped substep by substep."""
    n_full, rem = _step_schedule(eo.tau, eo.delta)
    assert rem == 0.0   # designed pulses span whole steps
    dt = _LD(eo.delta) * _TWO_PI_LD
    if eo.is_rotating and fold:
        first = _extended_split(eo, np.array([dt / 2]), dt)
        sz = np.array([1, 0, 0, -1], _LD)
        z_step, z_all = (np.exp(1j * (_LD(eo.omega) * theta * sz).astype(_CLD))
                         for theta in (dt, n_full * dt))
        return z_all[:, None] * np.linalg.matrix_power(
            z_step.conj()[:, None] * first, n_full)
    u = np.eye(4, dtype=_CLD)
    for lo in range(0, n_full, 4096):
        steps = np.arange(lo, min(n_full, lo + 4096), dtype=_LD)
        u = _extended_split(eo, (steps + _LD(0.5)) * dt, dt) @ u
    return u


_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="long double is no more precise than float64 here")


@_LONG_DOUBLE
@pytest.mark.parametrize("name", ["Y1", "X2p"])
def test_extended_rotating_frame_equals_every_substep(name):
    eo = pulse_eo(name, 1)
    gap = np.max(np.abs(_extended_strang(eo) - _extended_strang(eo, fold=False)))
    assert gap < 1e-15


_EXTENDED = [(name, k, mode) for mode, ks in (("rotating", (1, 4, 32)),
                                              ("static_axis", (1, 4)))
             for name in ("Y1", "X1p", "Y2", "X2p") for k in ks]


@_LONG_DOUBLE
def test_stored_propagators_against_extended_precision():
    clear_propagator_cache()
    for name, k, mode in _EXTENDED:
        eo = pulse_eo(name, k, mode)
        gap = float(np.max(np.abs(eo_propagator(eo) - _extended_strang(eo))))
        assert gap < (2e-11 if mode == "rotating" else 2e-12), (name, k, mode)


# The EOs of a non-finite field: the ideal X1, a rotating and a static pulse.
_FIELD_EOS = {"ideal": lambda: ideal_eo_params("X1"),
              "rotating": lambda: pulse_eo("X1"),
              "static": lambda: pulse_eo("X1", mode="static_axis")}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EOParams)
                                   if f.name != "label"])
@pytest.mark.parametrize("eo", sorted(_FIELD_EOS))
def test_an_eo_field_that_is_no_finite_number_is_refused(eo, field):
    """A field that is NaN, infinite or no number is refused with one
    ConfigurationError by a lookup of either propagator and by a program
    walk, every time, before anything is integrated, stored or planned:
    the store's statistics and the layouts stay as they were.  A field
    other than the step size and the duration, whose own messages name
    them, is named with the EO's label; an infinite duration is one too
    long to step or whose phase is not finite."""
    clear_propagator_cache()
    eo_propagator(pulse_eo("Y2"))
    for bad in (float("nan"), float("inf"), "1"):
        broken = _FIELD_EOS[eo]().replace(**{field: bad})
        info, layouts = vars(_cached_propagator.cache_info()), _layout.cache_info()
        for _ in range(2):
            for call in (lambda: eo_propagator(broken), lambda: oracle_propagator(broken),
                         lambda: program_unitaries([Program("p", (broken,))])):
                with pytest.raises(ConfigurationError) as err:
                    call()
                assert len(str(err.value).splitlines()) == 1
                if field not in ("tau", "delta"):
                    assert str(err.value) == (f"EO {broken.label!r}: {field} must be a "
                                              f"finite number, got {bad!r}")
        assert vars(_cached_propagator.cache_info()) == info, bad
        assert _layout.cache_info().currsize == layouts.currsize, bad
        assert len(_cached_propagator) == 1
