"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line at its stated tolerance (run with -s to see them inline).

Benchmark cells are compared at +-0.01 (two-decimal print precision) and
+-0.02 for the phase-sensitive duration-perturbation study.  Published
cells that fail the benchmark's own internal consistency checks are
excluded, logged, and covered by strict-xfail tests at the bottom so the
deviations stay visible.
"""
import time

import numpy as np
import pytest

import nmrqc.reference_tables as ref
from nmrqc import (RationalGamma, build_cnot, build_grover,
                   build_qa, canned_spec, commensurability_margin,
                   convergence_report, design_pulse, eo_propagator,
                   hypothetical_durations, prepare_input, qubit_values,
                   run_experiment, run_program)
from nmrqc.gates import gate_rotation
from nmrqc.harness import _qa_row_label, compare_against_reference
from nmrqc.integrator import IntegratorConfig, PRODUCT_FORMULA
from nmrqc.operators import TWO_PI


def _report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    return passed


def _qa_failures(table_name, reference, tol=ref.RESULT_TOL):
    spec = canned_spec(table_name)
    table = run_experiment(spec)
    return compare_against_reference(
        table, reference, lambda r: _qa_row_label(spec, r),
        [str(s) for s in ref.S_VALUES], tol)


# ---------------------------------------------------------------- 1
def test_criterion_1_ideal_baseline():
    start = time.monotonic()
    worst = 0.0
    for variant in (1, 2, 3):
        for inp, (_, a, b) in ref.CNOT_TRUTH.items():
            got = qubit_values(run_program(build_cnot(variant, "ideal",
                                                      input_spec=inp)))
            worst = max(worst, abs(got[0] - a), abs(got[1] - b))
        for inp in ("00", "10", "01", "11"):
            got = qubit_values(run_program(build_qa("QA1", inp,
                                                    cnot_variant=variant,
                                                    style="ideal")))
            want = ref.QA_ROTATING_CNOT1[inp][0]
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        got = qubit_values(run_program(build_qa("QA2", "singlet",
                                                cnot_variant=variant,
                                                style="ideal")))
        worst = max(worst, abs(got[0] - 1.0), abs(got[1] - 1.0))
    for item, (ideal_ab, _) in ref.GROVER_ROTATING.items():
        got = qubit_values(run_program(build_grover(item, "ideal")))
        worst = max(worst, abs(got[0] - ideal_ab[0]), abs(got[1] - ideal_ab[1]))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 1.0
    assert _report(1, ok, f"(ideal baseline, worst {worst:.2e}, {elapsed:.2f}s)")


# ---------------------------------------------------------------- 2
def test_criterion_2_rotating_cnot1_suite():
    start = time.monotonic()
    fails = _qa_failures("table5", ref.QA_ROTATING_CNOT1)
    elapsed = time.monotonic() - start
    ok = not fails and elapsed < 1800
    assert _report(2, ok,
                   f"(25 cell pairs at +-0.01, {elapsed:.0f}s)"
                   + (f" failures: {fails[:3]}" if fails else ""))


# ---------------------------------------------------------------- 3
def test_criterion_3_order_sensitivity_suites():
    fails = (_qa_failures("table6", ref.QA_ROTATING_CNOT2)
             + _qa_failures("table7", ref.QA_ROTATING_CNOT3))
    # the witness cells: same logical program, visibly different answers
    spec6, spec7 = canned_spec("table6"), canned_spec("table7")
    c2 = run_experiment(spec6).cell(_qa_row_label(spec6, "00"), 8)
    c3 = run_experiment(spec7).cell(_qa_row_label(spec7, "00"), 8)
    witness = (abs(c2[0] - 0.24) <= 0.01 and abs(c2[1] - 0.76) <= 0.01
               and abs(c3[0] - 0.23) <= 0.01 and abs(c3[1] - 0.76) <= 0.01)
    ok = not fails and witness
    assert _report(3, ok,
                   f"(witness cells ({c2[0]:.2f},{c2[1]:.2f})/"
                   f"({c3[0]:.2f},{c3[1]:.2f}) vs (0.24,0.76)/(0.23,0.76))"
                   + (f" failures: {fails[:3]}" if fails else ""))


def test_accuracy_ordering_with_pulse_length():
    # |a_s - 1| on the singlet run improves from s=32 to s=64 to s=256;
    # the s=8 result beats s=16 only by accident (its own duration
    # happens to land near a good spot), so that pair is deliberately
    # not asserted as monotone
    spec = canned_spec("table5")
    table = run_experiment(spec)
    row = _qa_row_label(spec, "singlet")
    err = {s: abs(table.cell(row, s)[0] - 1.0) for s in ref.S_VALUES}
    assert err[256] < err[64] < err[32]
    assert err[8] < err[16]  # the documented accident, pinned as-is


# ---------------------------------------------------------------- 4
def test_criterion_4_static_axis_suite():
    fails = _qa_failures("table8", ref.QA_STATIC_CNOT1)
    spec = canned_spec("table8")
    table = run_experiment(spec)
    row = _qa_row_label(spec, "singlet")
    singlet = [table.cell(row, s)[0] for s in ref.S_VALUES]
    want = [0.02, 0.45, 0.17, 0.70, 0.98]
    ok = not fails
    assert _report(4, ok,
                   "(singlet a_s " + ", ".join(f"{v:.2f}" for v in singlet)
                   + f" vs {want})" + (f" failures: {fails[:3]}" if fails else ""))


# ---------------------------------------------------------------- 5
def test_criterion_5_search_and_duration_sensitivity():
    # search suite at +-0.01; the s=256 cells of items 1 and 3 are
    # excluded as suspected entry transpositions (the values printed
    # there are each other's ideal rows; the s<=64 trend and the
    # single-axis suite both converge to the ideal answers)
    table = run_experiment(canned_spec("table9"))
    sus = {(str(i), str(s)) for i, s in ref.SUSPECT_GROVER_ROTATING}
    fails = compare_against_reference(
        table, {str(i): v for i, v in ref.GROVER_ROTATING.items()},
        lambda r: r, [str(s) for s in ref.S_VALUES], ref.RESULT_TOL, sus)
    for item, s in sorted(ref.SUSPECT_GROVER_ROTATING):
        got = table.cell(str(item), s)
        want = ref.GROVER_ROTATING[item][0]  # ideal answer
        if abs(got[0] - want[0]) > 0.01 or abs(got[1] - want[1]) > 0.01:
            fails.append((str(item), str(s), "ab", got, want))
        print(f"  note: search item {item} at s={s}: published cell excluded "
              f"(suspected transposition); computed ({got[0]:.2f},{got[1]:.2f}) "
              f"matches the ideal answer {want}")

    # duration-perturbation study at +-0.02 with five internally
    # inconsistent published cells excluded and their forced values
    # asserted instead (see reference_tables.SUSPECT_PERTURBATION)
    spec = canned_spec("table10")
    pert = run_experiment(spec)
    cols = [f"{o:+g}" for o in ref.PERTURBATION_OFFSETS]
    sus_p = {(r, f"{o:+g}") for (r, o) in ref.SUSPECT_PERTURBATION}
    fails += compare_against_reference(
        pert, ref.DURATION_PERTURBATION, lambda r: _qa_row_label(spec, r),
        cols, ref.PERTURBATION_TOL, sus_p)
    for (r, o), (comp, forced, why) in sorted(ref.SUSPECT_PERTURBATION.items()):
        got = pert.cell(_qa_row_label(spec, r), f"{o:+g}")
        g = got[0] if comp == "a" else got[1]
        print(f"  note: duration cell ({r}, {o:+g}, {comp}): published value "
              f"excluded ({why}); computed {g:.2f}, asserting {forced}")
        if abs(g - forced) > ref.PERTURBATION_TOL:
            fails.append((r, f"{o:+g}", comp, g, forced))

    ok = not fails
    assert _report(5, ok, "(search +-0.01, duration study +-0.02)"
                   + (f" failures: {fails[:4]}" if fails else ""))


# ---------------------------------------------------------------- 6
def _cell_close(got, printed):
    # printed cells carry 7 decimals but mix rounding with truncation
    # (e.g. 0.0279796 printed for 0.02797965116), so accept 1e-6
    # relative or one ulp of the print
    return abs(got - printed) <= max(1e-6 * abs(printed), 1.01e-7)


def test_criterion_6_pulse_parameter_crosscheck():
    failures = []
    for mode, sheet in (("rotating", ref.ROTATING_PULSES_K1),
                        ("static_axis", ref.STATIC_PULSES_K1)):
        for gate, row in sheet.items():
            spin, axis, direction, turns = gate_rotation(gate)
            design, eo = design_pulse(spin, TWO_PI * turns, axis, k=1,
                                      mode=mode, direction=direction,
                                      label=gate)
            if design.t_over_2pi != row[0]:
                failures.append((mode, gate, "duration", design.t_over_2pi, row[0]))
            if abs(eo.omega - row[1]) > 1e-9:
                failures.append((mode, gate, "omega", eo.omega, row[1]))
            if mode == "rotating":
                _t, _om, s1x, s2x, phx, s1y, s2y, phy = row
                amp_checks = [("sf1x", eo.sf1x, s1x), ("sf1y", eo.sf1y, s1y)]
                if gate in ref.SUSPECT_ROTATING_SPIN2:
                    forced = ref.SUSPECT_ROTATING_SPIN2[gate]
                    amp_checks += [("sf2x", eo.sf2x, np.sign(s2x) * abs(forced)),
                                   ("sf2y", eo.sf2y, np.sign(s2y) * abs(forced))]
                else:
                    amp_checks += [("sf2x", eo.sf2x, s2x), ("sf2y", eo.sf2y, s2y)]
                phase_checks = [("phi_x", eo.phi_x, phx * np.pi),
                                ("phi_y", eo.phi_y, phy * np.pi)]
            else:
                _t, _om, s1x, s2x, s1y, s2y = row
                amp_checks = [("sf1x", eo.sf1x, s1x), ("sf2x", eo.sf2x, s2x),
                              ("sf1y", eo.sf1y, s1y), ("sf2y", eo.sf2y, s2y)]
                phase_checks = [("phi_x", eo.phi_x, 0.0), ("phi_y", eo.phi_y, 0.0)]
            for name, got, want in amp_checks:
                if not _cell_close(got, want):
                    failures.append((mode, gate, name, got, want))
            for name, got, want in phase_checks:
                if abs(got - want) > 1e-12:
                    failures.append((mode, gate, name, got, want))
    ok = not failures
    assert _report(6, ok,
                   "(every sheet cell at 1e-6 relative; 4 constraint-violating "
                   "spin-2 cells asserted at their formula values)"
                   + (f" failures: {failures[:4]}" if failures else ""))


# ---------------------------------------------------------------- 7
def test_criterion_7_numerical_properties():
    # second-order convergence against the dense reference
    spin, axis, d, turns = gate_rotation("Y1")
    _, eo = design_pulse(spin, TWO_PI * turns, axis, k=1, direction=d,
                         label="Y1")
    ref_u = eo_propagator(eo, IntegratorConfig(0.001, "dense_midpoint_oracle"))
    dev = {dd: float(np.max(np.abs(
        eo_propagator(eo, IntegratorConfig(dd, PRODUCT_FORMULA)) - ref_u)))
        for dd in (0.04, 0.02)}
    ratio = dev[0.04] / dev[0.02]
    ratio_ok = 3.5 <= ratio <= 4.5

    # norm preservation across the longest program (perturbed s=256 run)
    from nmrqc.programs import with_duration_offset
    longest = with_duration_offset(
        build_qa("QA2", "singlet", 1, "rotating_sf", k=32), "Ip", -0.2)
    out = run_program(longest)
    norm_dev = abs(out.norm() - 1.0)
    norm_ok = norm_dev < 1e-10

    # two-digit agreement between delta 0.01 and 0.001 on QA2 s=8
    qa2 = build_qa("QA2", "singlet", 1, "rotating_sf", k=1)
    conv = convergence_report(list(qa2.eos), prepare_input("singlet"),
                              [0.01, 0.001])
    conv_ok = conv.two_digit_flag is False

    ok = ratio_ok and norm_ok and conv_ok
    assert _report(7, ok,
                   f"(halving ratio {ratio:.2f} in [3.5,4.5]; norm dev "
                   f"{norm_dev:.1e} < 1e-10; two-digit step agreement "
                   f"{'yes' if conv_ok else 'NO'})")


# ---------------------------------------------------------------- 8
def test_criterion_8_commensurability_utilities():
    m1, _ = commensurability_margin(RationalGamma(1, 4), 1)
    m2, _ = commensurability_margin(RationalGamma(11, 40), 1)
    durations = hypothetical_durations(RationalGamma(11, 40), 1)
    ok = (m1 == ref.MARGIN_CASES[(1, 4, 1)] and m2 == ref.MARGIN_CASES[(11, 40, 1)]
          and durations == ref.DURATION_CASES[(11, 40, 1)])
    assert _report(8, ok, f"(margins {m1}, {m2}; durations {durations})")


# ------------------------------------------------------------------
# The excluded published cells, kept visible as strict expected
# failures: if the emulator ever reproduced them, these tests would
# error and force a second look.

@pytest.mark.xfail(strict=True,
                   reason="published search cells at s=256 for items 1 and 3 "
                          "print each other's ideal rows; physics converges "
                          "to the ideal answers")
def test_published_search_s256_items_1_and_3_verbatim():
    table = run_experiment(canned_spec("table9"))
    for item in (1, 3):
        want = ref.GROVER_ROTATING[item][1][-1]
        got = table.cell(str(item), 256)
        assert got[0] == pytest.approx(want[0], abs=0.01)
        assert got[1] == pytest.approx(want[1], abs=0.01)


@pytest.mark.xfail(strict=True,
                   reason="five published duration-study cells violate the "
                          "study's own symmetries (zero-offset column, "
                          "offset-sign mirror, pi-periodic phase shift)")
def test_published_duration_cells_verbatim():
    spec = canned_spec("table10")
    table = run_experiment(spec)
    ok = True
    for (r, o), (comp, _forced, _why) in ref.SUSPECT_PERTURBATION.items():
        idx = ref.PERTURBATION_OFFSETS.index(o)
        want = ref.DURATION_PERTURBATION[r][1][idx]
        got = table.cell(_qa_row_label(spec, r), f"{o:+g}")
        w = want[0] if comp == "a" else want[1]
        g = got[0] if comp == "a" else got[1]
        ok = ok and abs(g - w) <= ref.PERTURBATION_TOL
    assert ok
