import numpy as np
import pytest

from nmrqc import (EXACT_DIAGONAL, PRODUCT_FORMULA, ConfigurationError,
                   EOParams, IntegratorConfig, MethodError,
                   NumericalIntegrityError, convergence_report, eo_propagator,
                   evolve, evolve_reference, ideal_eo_params, ideal_gate,
                   prepare_basis_state, prepare_singlet, build_qa, design_pulse)
from nmrqc.gates import coupling_pi_duration
from nmrqc.integrator import (DENSE_MIDPOINT_ORACLE, _Drives, _fold,
                              _product_formula_block, _step_schedule,
                              _stepped_propagator, clear_propagator_cache,
                              expect)
from nmrqc.operators import TWO_PI, state_phase_distance
from nmrqc.states import StateVector

from conftest import BLOCKS, chained_reference

J = -0.43e-6


def pulse_eo(name="Y1", k=1, mode="rotating"):
    from nmrqc.gates import gate_rotation
    spin, axis, direction, turns = gate_rotation(name)
    _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                         direction=direction, label=name)
    return eo


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
    cfg = IntegratorConfig(delta=1.0, method=EXACT_DIAGONAL)
    out = evolve(prepare_basis_state(2, [1, 0]), eo, cfg)
    assert abs(abs(out.amplitudes[1]) - 1.0) < 1e-12
    tau = TWO_PI * eo.tau
    expected = np.exp(-1j * tau * (J / 4 + 0.5 - 0.125))
    assert abs(out.amplitudes[1] - expected) < 1e-7
    # independent check through the dense oracle, single step (constant H)
    ref = evolve_reference(prepare_basis_state(2, [1, 0]), eo, eo.tau)
    assert abs(out.amplitudes[1] - ref.amplitudes[1]) < 1e-8


def test_single_step_z_precession_phases():
    # tau = delta, only h1z: phases exp(+-i tau/2) on the spin-1 sectors
    eo = EOParams(tau=0.03, h1z=1.0, delta=0.03)
    out = eo_propagator(eo, IntegratorConfig(delta=0.03, method=PRODUCT_FORMULA))
    tau = TWO_PI * 0.03
    want = np.diag(np.exp(-1j * tau * np.array([-0.5, 0.5, -0.5, 0.5])))
    assert np.max(np.abs(out - want)) < 1e-12


def test_rotating_pulse_matches_exact_rotation():
    # rotating-field pulse equals the exact gate up to a global phase;
    # at delta 0.01 the splitting error dominates (~3e-4), and vanishes
    # as delta^2 towards the exact rotating-frame solution
    eo = pulse_eo("Y1")
    y1 = ideal_gate("Y1").matrix
    state = prepare_basis_state(2, [0, 0])
    out = evolve(state, eo)
    assert state_phase_distance(out.amplitudes, y1 @ state.amplitudes) < 1e-3
    fine = evolve(state, eo, IntegratorConfig(delta=0.001, method=PRODUCT_FORMULA))
    assert state_phase_distance(fine.amplitudes, y1 @ state.amplitudes) < 2e-5


def test_ideal_eo_matches_gate_matrix():
    # one-step reference evolution of the idealized EO reproduces the
    # exact gate to ~coupling-term accuracy, for every single-EO gate
    names = ("X1", "X2", "Y1", "Y2", "X1b", "X2b", "Y1b", "Y2b",
             "X1p", "X2p", "Y1p", "X1pp", "X2pp", "I", "Ip")
    for name in names:
        eo = ideal_eo_params(name)
        gate = ideal_gate(name).matrix
        for bits in ([0, 0], [1, 0], [0, 1], [1, 1]):
            state = prepare_basis_state(2, bits)
            out = evolve_reference(state, eo, eo.tau)
            assert state_phase_distance(out.amplitudes,
                                        gate @ state.amplitudes) < 1e-6, name


def test_zero_duration_is_identity():
    eo = pulse_eo("Y1").replace(tau=0.0)
    assert np.allclose(eo_propagator(eo), np.eye(4))


def test_unitarity_of_every_method():
    eo = pulse_eo("X2p")
    for cfg in (None, IntegratorConfig(0.01, PRODUCT_FORMULA),
                IntegratorConfig(0.05, "dense_midpoint_oracle")):
        u = eo_propagator(eo, cfg)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10


def test_exact_diagonal_requires_diagonal():
    with pytest.raises(MethodError):
        eo_propagator(pulse_eo("Y1"), IntegratorConfig(1.0, EXACT_DIAGONAL))


def test_evolve_rejects_unnormalized_state():
    eo = ideal_eo_params("Ip")
    bad = StateVector.__new__(StateVector)
    object.__setattr__(bad, "amplitudes", np.array([0.5, 0, 0, 0], complex))
    with pytest.raises(NumericalIntegrityError):
        evolve(bad, eo)


def test_product_formula_equals_exact_on_diagonal():
    eo = EOParams(tau=137.0, j=J, h1z=1.0, h2z=0.25, delta=0.01)
    u_pf = eo_propagator(eo, IntegratorConfig(0.01, PRODUCT_FORMULA))
    u_ex = eo_propagator(eo, IntegratorConfig(1.0, EXACT_DIAGONAL))
    assert np.max(np.abs(u_pf - u_ex)) < 1e-10


def test_second_order_convergence_ratio():
    eo = pulse_eo("Y1")
    ref = eo_propagator(eo, IntegratorConfig(0.001, "dense_midpoint_oracle"))
    dev = {d: np.max(np.abs(eo_propagator(eo, IntegratorConfig(d, PRODUCT_FORMULA)) - ref))
           for d in (0.04, 0.02)}
    ratio = dev[0.04] / dev[0.02]
    assert 3.5 < ratio < 4.5


def test_composition_with_carried_phase_origin():
    eo = pulse_eo("Y1")
    full = eo_propagator(eo, IntegratorConfig(0.01, PRODUCT_FORMULA))
    half = eo.replace(tau=eo.tau / 2)
    first = eo_propagator(half, IntegratorConfig(0.01, PRODUCT_FORMULA), t0=0.0)
    second = eo_propagator(half, IntegratorConfig(0.01, PRODUCT_FORMULA),
                           t0=TWO_PI * half.tau)
    assert np.max(np.abs(second @ first - full)) < 1e-10

    diag = EOParams(tau=50.0, j=J, h1z=1.0, h2z=0.25)
    u_full = eo_propagator(diag, IntegratorConfig(1.0, EXACT_DIAGONAL))
    u_half = eo_propagator(diag.replace(tau=25.0), IntegratorConfig(1.0, EXACT_DIAGONAL))
    assert np.max(np.abs(u_half @ u_half - u_full)) < 1e-10


def test_remainder_step_keeps_full_power():
    # duration not a multiple of the step: the tail must not be dropped
    eo = pulse_eo("Y1").replace(tau=8.0037)
    ref = eo_propagator(eo, IntegratorConfig(0.0001, "dense_midpoint_oracle"))
    u = eo_propagator(eo, IntegratorConfig(0.01, PRODUCT_FORMULA))
    assert np.max(np.abs(u - ref)) < 1e-3
    # explicitly different from evolving only the 800 whole steps
    u_trunc = eo_propagator(eo.replace(tau=8.0), IntegratorConfig(0.01, PRODUCT_FORMULA))
    assert np.max(np.abs(u - u_trunc)) > 1e-3


def test_convergence_report_flags_and_ratio():
    qa2 = build_qa("QA2", "singlet", style="rotating_sf", k=1)
    rep = convergence_report(list(qa2.eos), prepare_singlet(), [0.01, 0.001])
    assert rep.two_digit_flag is False
    assert rep.rows[0].delta == 0.01

    eo = pulse_eo("Y1")
    rep2 = convergence_report(eo, prepare_basis_state(2, [0, 0]), [0.1, 0.01])
    devs = {r.delta: r.max_amplitude_deviation for r in rep2.rows}
    assert 50 < devs[0.1] / devs[0.01] < 200  # ~100x per 10x step refinement
    assert rep2.two_digit_flag is None

    rep3 = convergence_report(eo, prepare_basis_state(2, [0, 0]), [0.01])
    assert len(rep3.rows) == 1 and rep3.two_digit_flag is None


@pytest.mark.parametrize("method", [PRODUCT_FORMULA, DENSE_MIDPOINT_ORACLE])
@pytest.mark.parametrize("mode", ["rotating", "static_axis"])
@pytest.mark.parametrize("name", ["Y1", "X2"])
def test_period_folded_equals_stepped(name, mode, method):
    # both offsets leave a partial period; 0.1037 adds a sub-step remainder
    base = pulse_eo(name, mode=mode)
    cfg = IntegratorConfig(0.01, method)
    for offset in (-0.1, 0.1037):
        eo = base.replace(tau=base.tau + offset)
        for t0 in (0.0, TWO_PI * 3.37):
            u = eo_propagator(eo, cfg, t0=t0)
            ref = chained_reference(eo, 0.01, t0, BLOCKS[method])
            assert np.max(np.abs(u - ref)) < 1e-11, (offset, t0)


@pytest.mark.parametrize("method", [PRODUCT_FORMULA, DENSE_MIDPOINT_ORACLE])
def test_unfoldable_schedules_step_every_substep(method):
    y2 = pulse_eo("Y2", mode="static_axis")
    constant = EOParams(tau=3.0037, j=J, h1x=0.02, h2y=0.005, h1z=1.0,
                        h2z=0.25)
    # period 133.3 steps; period shorter than one step; no drive at all
    for eo, delta in ((y2, 0.03), (y2, 5.0), (constant, 0.01)):
        for t0 in (0.0, TWO_PI * 3.37):
            u = eo_propagator(eo, IntegratorConfig(delta, method), t0=t0)
            ref = chained_reference(eo, delta, t0, BLOCKS[method])
            assert np.max(np.abs(u - ref)) < 1e-11, (eo.label, delta, t0)


def _counted_blocks(eo, delta, t0=0.0):
    sizes = []

    def counting_block(drives, mids, dt):
        sizes.append(mids.size)
        return _product_formula_block(drives, mids, dt)

    _stepped_propagator(_Drives((eo,), (t0,), _fold(eo, delta, t0)), delta,
                        counting_block)
    return sizes


def test_fold_steps_one_period_then_the_tail():
    # a static single-axis drive does not turn rigidly, so it folds by
    # period, and builds only the first quarter of that period
    eo = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    assert not eo.is_rotating                   # 12810 steps + remainder
    assert _counted_blocks(eo, 0.01) == [100, 10, 1]  # quarter, partial, remainder
    assert _counted_blocks(eo, 0.03) == [4270, 1]  # 1/(0.25*0.03) not whole
    assert _counted_blocks(eo.replace(tau=7.99), 0.01) == [799]  # < two periods


_FULL_PERIOD_FALLBACKS = {  # -> (eo, delta, t0); the base drives x only
    "phase": lambda eo: (eo.replace(phi_x=0.3), 0.01, 0.0),
    "static_transverse": lambda eo: (eo.replace(h1y=1e-3), 0.01, 0.0),
    "both_axes": lambda eo: (eo.replace(sf1y=0.5 * eo.sf1x, sf2y=0.5 * eo.sf2x),
                             0.01, 0.0),
    "t0": lambda eo: (eo, 0.01, TWO_PI * 3.37),
    "period_not_quarters": lambda eo: (  # spin 1 at delta 0.02: P = 50
        pulse_eo("Y1", mode="static_axis").replace(tau=8.1037), 0.02, 0.0),
}


@pytest.mark.parametrize("method", [PRODUCT_FORMULA, DENSE_MIDPOINT_ORACLE])
@pytest.mark.parametrize("case", sorted(_FULL_PERIOD_FALLBACKS))
def test_quarter_fold_fallbacks_build_a_full_period(case, method):
    base = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    eo, delta, t0 = _FULL_PERIOD_FALLBACKS[case](base)
    assert not eo.is_rotating
    period = round(1.0 / (eo.omega * delta))
    assert _counted_blocks(eo, delta, t0)[0] == period
    u = eo_propagator(eo, IntegratorConfig(delta, method), t0=t0)
    ref = chained_reference(eo, delta, t0, BLOCKS[method])
    assert np.max(np.abs(u - ref)) < 1e-11


def test_rotating_pulse_steps_one_midpoint_then_the_tail():
    eo = pulse_eo("Y2").replace(tau=128.1037)
    assert eo.is_rotating
    for delta in (0.01, 0.03):  # no commensurability condition
        assert _counted_blocks(eo, delta) == [1, 1]
    assert _counted_blocks(eo.replace(tau=7.99), 0.01) == [1]
    assert _counted_blocks(eo.replace(tau=0.005), 0.01) == [1]  # remainder only


def _frame(eo, theta):
    """Z(theta) = exp(+i omega theta S^z_tot); S^z_tot = diag(1, 0, 0, -1)."""
    return np.diag(np.exp(1j * eo.omega * theta * np.array([1.0, 0.0, 0.0, -1.0])))


@pytest.mark.parametrize("method", [PRODUCT_FORMULA, DENSE_MIDPOINT_ORACLE])
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


@pytest.mark.parametrize("method", [PRODUCT_FORMULA, DENSE_MIDPOINT_ORACLE])
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
    for t0 in (0.0, TWO_PI * 3.37):
        u = eo_propagator(eo, IntegratorConfig(0.01, PRODUCT_FORMULA), t0=t0)
        ref = chained_reference(eo, 0.01, t0, BLOCKS[PRODUCT_FORMULA])
        assert np.max(np.abs(u - ref)) < 1e-11, t0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_delta_rejected(bad):
    with pytest.raises(ConfigurationError):
        IntegratorConfig(delta=bad)
    for eo in (pulse_eo(), ideal_eo_params("Ip")):
        for _ in range(2):  # a lookup that raised left nothing in the cache
            with pytest.raises(ConfigurationError, match="delta"):
                eo_propagator(eo.replace(delta=bad))


def test_expected_rotating_pulses_integrate_in_one_stack(kernel_calls):
    """The rotating pulses stack at the first rotating miss, the static
    ones at the first miss of their own drive frequency; each result is
    the pulse integrated alone."""
    import nmrqc.integrator
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    static = [pulse_eo(name, k=2, mode="static_axis") for name in ("Y2", "X2", "Y1")]
    consumed = []

    def announced():
        for eo in eos + static + [ideal_eo_params("Ip"), eos[0]]:
            consumed.append(eo)
            yield eo

    def waiting():
        return set(nmrqc.integrator._waiting)

    def keys(pulses):
        return {(eo, eo.delta, PRODUCT_FORMULA, 0.0) for eo in pulses}

    clear_propagator_cache()
    expect(announced())
    try:
        eo_propagator(ideal_eo_params("Ip"))   # a diagonal miss expands nothing
        assert consumed == [] and kernel_calls == []
        first = eo_propagator(eos[0])
        assert kernel_calls == [("rotating", 3)]   # the diagonal Ip is left out
        assert waiting() == keys(eos[1:])
        rest = [eo_propagator(eo) for eo in eos[1:]]   # popped, not integrated
        assert kernel_calls == [("rotating", 3)]
        assert not nmrqc.integrator._waiting
        us = [eo_propagator(static[0])]       # spin 2: Y2 and X2 stack
        assert kernel_calls[1:] == [("quarter", 2)] and waiting() == keys(static[1:2])
        us += [eo_propagator(eo) for eo in static[1:]]   # spin 1: Y1 alone
        assert kernel_calls[1:] == [("quarter", 2), ("quarter", 1)]
        assert not nmrqc.integrator._waiting
        results = [first] + rest + us
        assert not any(u.flags.writeable for u in results)
        for eo, u in zip(eos + static, results):
            alone = _stepped_propagator(_Drives((eo,), (0.0,), _fold(eo, eo.delta, 0.0)),
                                        eo.delta, _product_formula_block)[0]
            assert np.array_equal(u, alone)
    finally:
        expect()


_STACK_FALLBACKS = {  # -> (eo, delta, t0, method, announced key stacks); the base drives x
    "phase": lambda eo: (eo.replace(phi_x=0.3), 0.01, 0.0, PRODUCT_FORMULA, False),
    "static_transverse": lambda eo: (eo.replace(h1y=1e-3), 0.01, 0.0,
                                     PRODUCT_FORMULA, False),
    "both_axes": lambda eo: (eo.replace(sf1y=0.5 * eo.sf1x, sf2y=0.5 * eo.sf2x),
                             0.01, 0.0, PRODUCT_FORMULA, False),
    "t0": lambda eo: (eo, 0.01, TWO_PI * 3.37, PRODUCT_FORMULA, True),
    "period_not_quarters": lambda eo: (  # spin 1 at delta 0.02: P = 50
        pulse_eo("Y1", mode="static_axis").replace(tau=8.1037), 0.02, 0.0,
        PRODUCT_FORMULA, False),
    "under_two_periods": lambda eo: (eo.replace(tau=7.99), 0.01, 0.0,
                                     PRODUCT_FORMULA, False),
    "incommensurate": lambda eo: (eo, 0.03, 0.0, PRODUCT_FORMULA, False),
    "dense_oracle": lambda eo: (eo, 0.01, 0.0, DENSE_MIDPOINT_ORACLE, True),
}


@pytest.mark.parametrize("case", sorted(_STACK_FALLBACKS))
def test_static_fallbacks_never_join_a_stack(case, kernel_calls):
    """A static key that does not fold by quarter periods, or is not a
    product-formula key, is integrated alone and expands nothing."""
    import nmrqc.integrator
    base = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    eo, delta, t0, method, stacks = _STACK_FALLBACKS[case](base)
    eo = eo.replace(delta=delta)
    partners = [pulse_eo(name, k=k, mode="static_axis")
                for name, k in (("X2", 1), ("Y2b", 2))]
    clear_propagator_cache()
    expect([eo] + partners)
    try:
        u = eo_propagator(eo, IntegratorConfig(delta, method), t0=t0)
        fold = _fold(eo, delta, t0)
        assert kernel_calls == [(fold, 1)] and not nmrqc.integrator._waiting
        assert fold == ("quarter" if method == DENSE_MIDPOINT_ORACLE else None)
        for p in partners:
            eo_propagator(p)
        assert kernel_calls[1:] == [("quarter", len(partners) + stacks)]
        ref = chained_reference(eo, delta, t0, BLOCKS[method])
        assert np.max(np.abs(u - ref)) < 1e-11
    finally:
        expect()


@pytest.mark.parametrize("drop", ["clear_propagator_cache", "expect"])
def test_waiting_propagators_are_dropped(drop, kernel_calls):
    import nmrqc.integrator
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    clear_propagator_cache()
    expect(iter(eos))
    eo_propagator(eos[0])
    assert len(nmrqc.integrator._waiting) == 2
    getattr(nmrqc.integrator, drop)()
    assert not nmrqc.integrator._waiting
    eo_propagator(eos[1])                  # integrated anew, alone
    assert kernel_calls == [("rotating", 3), ("rotating", 1)]
    expect()


def test_cached_keys_leave_the_look_ahead(kernel_calls):
    """An announced pulse that is already cached is not integrated again,
    and the record of cached keys is bounded like the cache itself."""
    import nmrqc.integrator
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    clear_propagator_cache()
    eo_propagator(eos[0])
    expect(iter(eos))
    eo_propagator(eos[1])
    assert kernel_calls == [("rotating", 1), ("rotating", 2)]  # X1 was cached
    expect()
    ip = ideal_eo_params("Ip")
    for tau in range(nmrqc.integrator._CACHE_SIZE + 5):
        eo_propagator(ip.replace(tau=float(tau)))
    assert len(nmrqc.integrator._integrated) == nmrqc.integrator._CACHE_SIZE
    clear_propagator_cache()
    assert not nmrqc.integrator._integrated


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_bad_delta_raises_while_an_expectation_is_pending(bad):
    eos = [pulse_eo(name).replace(delta=bad) for name in ("X1", "Y2")]
    expect(iter(eos))
    try:
        for _ in range(2):
            for eo in eos:
                with pytest.raises(ConfigurationError, match="delta"):
                    eo_propagator(eo)
    finally:
        expect()


def test_a_miss_at_its_own_t0_shares_the_stack():
    eo = pulse_eo("Y1", k=2)
    t0 = TWO_PI * 3.37
    clear_propagator_cache()
    expect([eo])
    try:
        u = eo_propagator(eo, t0=t0)       # stacked with the expected t0 = 0
        assert np.max(np.abs(u - chained_reference(
            eo, eo.delta, t0, BLOCKS[PRODUCT_FORMULA]))) < 1e-11
        assert np.array_equal(eo_propagator(eo), _stepped_propagator(
            _Drives((eo,), (0.0,), "rotating"), eo.delta,
            _product_formula_block)[0])
    finally:
        expect()


def test_stacked_powers_equal_matrix_power(rng):
    from conftest import random_unitary
    from nmrqc.integrator import _powers
    # matrix_power special-cases 3; 16 .. 2048 are the exponents 2q of the
    # quarter-folded static pulses of the canned tables
    ns = [0, 1, 2, 5, 6, 800, 801, 409600, 16, 32, 64, 128, 256, 512, 2048]
    base = np.stack([random_unitary(rng) for _ in ns])
    for i, u in enumerate(_powers(base, ns)):   # no EO's product is touched
        assert np.array_equal(u, np.linalg.matrix_power(base[i], ns[i])), ns[i]
