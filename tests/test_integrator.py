import numpy as np
import pytest

import nmrqc.integrator

from nmrqc import (ConfigurationError, EOParams, convergence_report,
                   eo_propagator, ideal_eo_params, ideal_gate, input_amplitudes,
                   oracle_propagator, build_qa, design_pulse)
from nmrqc.gates import coupling_pi_duration
from nmrqc.harness import canned_spec, run_experiment, verify_suite
from nmrqc.integrator import (_CACHE_SIZE, _Drives, _cached_propagator, _fold,
                              _product_formula_block, _step_schedule,
                              _stepped_propagator, check_delta,
                              clear_propagator_cache, integrate)
from nmrqc.programs import Program, program_unitaries
from nmrqc.operators import TWO_PI, state_phase_distance

from conftest import BLOCKS, PROPAGATORS, chained_reference

J = -0.43e-6


def pulse_eo(name="Y1", k=1, mode="rotating"):
    from nmrqc.gates import gate_rotation
    spin, axis, direction, turns = gate_rotation(name)
    _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                         direction=direction, label=name)
    return eo


def _alone(eo):
    """The EO's product-formula propagator, integrated in a stack of one."""
    return _stepped_propagator(_Drives((eo,), _fold(eo, eo.delta)), eo.delta,
                               _product_formula_block)[0]


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
    y1 = ideal_gate("Y1").matrix
    (state,) = input_amplitudes(["00"])
    out = eo_propagator(eo) @ state
    assert state_phase_distance(out, y1 @ state) < 1e-3
    fine = eo_propagator(eo.replace(delta=0.001)) @ state
    assert state_phase_distance(fine, y1 @ state) < 2e-5


def test_ideal_eo_matches_gate_matrix():
    # one-step reference evolution of the idealized EO reproduces the
    # exact gate to ~coupling-term accuracy, for every single-EO gate
    names = ("X1", "X2", "Y1", "Y2", "X1b", "X2b", "Y1b", "Y2b",
             "X1p", "X2p", "Y1p", "X1pp", "X2pp", "I", "Ip")
    for name in names:
        eo = ideal_eo_params(name)
        gate = ideal_gate(name).matrix
        u = oracle_propagator(eo.replace(delta=eo.tau))
        for state in input_amplitudes(["00", "10", "01", "11"]):
            assert state_phase_distance(u @ state, gate @ state) < 1e-6, name


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
    qa2 = build_qa("QA2", "singlet", style="rotating_sf", k=1)
    rep = convergence_report(list(qa2.eos), "singlet", [0.01, 0.001])
    assert rep.two_digit_flag is False
    assert rep.rows[0].delta == 0.01

    eo = pulse_eo("Y1")
    rep2 = convergence_report(eo, "00", [0.1, 0.01])
    devs = {r.delta: r.max_amplitude_deviation for r in rep2.rows}
    assert 50 < devs[0.1] / devs[0.01] < 200  # ~100x per 10x step refinement
    assert rep2.two_digit_flag is None

    rep3 = convergence_report(eo, "00", [0.01])
    assert len(rep3.rows) == 1 and rep3.two_digit_flag is None


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
    """Substeps per block call of the EO's product-formula integration,
    and its propagator."""
    sizes = []

    def counting_block(drives, mids, dt):
        sizes.append(mids.size)
        return _product_formula_block(drives, mids, dt)

    u = _stepped_propagator(_Drives((eo,), _fold(eo, delta)), delta,
                            counting_block)
    return sizes, u[0]


def test_fold_steps_one_period_then_the_tail():
    # a static single-axis drive does not turn rigidly, so it folds by
    # period, and builds only the first quarter of that period
    eo = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    assert not eo.is_rotating                   # 12810 steps + remainder
    assert _counted_blocks(eo, 0.01)[0] == [100, 10, 1]  # quarter, partial, remainder
    assert _counted_blocks(eo, 0.03)[0] == [4270, 1]  # 1/(0.25*0.03) not whole
    assert _counted_blocks(eo.replace(tau=7.99), 0.01)[0] == [799]  # < two periods


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
    """A quarter period (or a period) longer than _CHUNK substeps is built
    in blocks of at most _CHUNK substeps, as the tail is."""
    monkeypatch.setattr(nmrqc.integrator, "_CHUNK", 16)
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
    """A cold walk integrates its rotating pulses in one stack and its
    static ones in one stack per drive frequency; a diagonal EO joins
    none, an EO repeated in another step is integrated once, and each
    result is read-only and the pulse integrated alone."""
    eos = [pulse_eo(name, k=2) for name in ("X1", "Y2", "X2p")]
    static = [pulse_eo(name, k=2, mode="static_axis") for name in ("Y2", "X2", "Y1")]
    program = Program("p", tuple([ideal_eo_params("Ip")] + eos + static + [eos[0]]))
    info = _cached_propagator.cache_info
    clear_propagator_cache()
    program_unitaries([program])
    # spin 2 (Y2, X2) in one stack, spin 1 (Y1) in another
    assert kernel_calls == [("rotating", 3), ("quarter", 2), ("quarter", 1)]
    assert (info().misses, info().hits) == (7, 0)
    results = [eo_propagator(eo) for eo in eos + static]
    assert not any(u.flags.writeable for u in results)
    for eo, u in zip(eos + static, results):
        assert np.array_equal(u, _alone(eo))
    monkeypatch.setattr(nmrqc.integrator, "_fold", None)  # a warm walk groups nothing
    program_unitaries([program])
    assert len(kernel_calls) == 3 and info().misses == 7


_STACK_FALLBACKS = {  # -> (eo, delta); the base drives x
    "phase": lambda eo: (eo.replace(phi_x=0.3), 0.01),
    "static_transverse": lambda eo: (eo.replace(h1y=1e-3), 0.01),
    "both_axes": lambda eo: (eo.replace(sf1y=0.5 * eo.sf1x, sf2y=0.5 * eo.sf2x),
                             0.01),
    "period_not_quarters": lambda eo: (  # spin 1 at delta 0.02: P = 50
        pulse_eo("Y1", mode="static_axis").replace(tau=8.1037), 0.02),
    "under_two_periods": lambda eo: (eo.replace(tau=7.99), 0.01),
    "incommensurate": lambda eo: (eo, 0.03),
}


@pytest.mark.parametrize("case", sorted(_STACK_FALLBACKS))
def test_static_fallbacks_never_join_a_stack(case, kernel_calls):
    """A static EO that does not fold by quarter periods is integrated
    alone, even next to pulses of its drive frequency that stack."""
    base = pulse_eo("Y2", mode="static_axis").replace(tau=128.1037)
    eo, delta = _STACK_FALLBACKS[case](base)
    eo = eo.replace(delta=delta)
    partners = [pulse_eo(name, k=k, mode="static_axis")
                for name, k in (("X2", 1), ("Y2b", 2))]
    clear_propagator_cache()
    integrate([eo] + [p.replace(delta=delta) for p in partners])
    assert _fold(eo, delta) is None
    assert kernel_calls[0] == (None, 1)
    assert sum(n for _, n in kernel_calls) == 1 + len(partners)
    n_calls = len(kernel_calls)
    u = eo_propagator(eo)
    assert len(kernel_calls) == n_calls       # stored, not integrated again
    ref = chained_reference(eo, delta, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11
    del kernel_calls[:]
    clear_propagator_cache()
    integrate(partners + [eo])   # the partners at their own step
    assert kernel_calls == [("quarter", len(partners)), (None, 1)]


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
    assert kernel_calls == [("rotating", 3), ("quarter", 2)]
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


@pytest.mark.parametrize("field, bad", [
    ("delta", float("inf")), ("delta", float("nan")),
    ("tau", float("nan")), ("tau", -1.0)],
    ids=["inf", "nan", "tau_nan", "tau_negative"])
def test_bad_delta_raises_on_every_lookup_and_stores_nothing(field, bad,
                                                            kernel_calls):
    """A bad step size, or a negative or NaN duration, raises with its own
    message in a walk, in integrate and in a lookup of either propagator,
    for a pulse and a diagonal EO, every time, and nothing is integrated
    or stored: every key is checked before any is integrated."""
    match = ("delta must be positive" if field == "delta"
             else f"duration must be non-negative, got {bad!r}")
    good = pulse_eo("X1")
    clear_propagator_cache()
    for eo in (pulse_eo("Y2"), ideal_eo_params("Ip")):
        eo = eo.replace(**{field: bad})
        for _ in range(2):
            for call in (lambda: program_unitaries([Program("p", (good, eo))]),
                         lambda: integrate([good, eo]),
                         lambda: eo_propagator(eo), lambda: oracle_propagator(eo)):
                with pytest.raises(ConfigurationError, match=match):
                    call()
    assert not _cached_propagator and not kernel_calls


def test_stacked_powers_equal_matrix_power(rng):
    from conftest import random_unitary
    from nmrqc.integrator import _powers
    # matrix_power special-cases 3; 16 .. 2048 are the exponents 2q of the
    # quarter-folded static pulses of the canned tables
    ns = [0, 1, 2, 5, 6, 800, 801, 409600, 16, 32, 64, 128, 256, 512, 2048]
    base = np.stack([random_unitary(rng) for _ in ns])
    for i, u in enumerate(_powers(base, ns)):   # no EO's product is touched
        assert np.array_equal(u, np.linalg.matrix_power(base[i], ns[i])), ns[i]
