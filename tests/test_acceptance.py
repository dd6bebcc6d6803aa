"""Acceptance suite: one test per check of ``harness.CHECKS``, the list
``nmrqc verify`` runs, each printing an ``ACCEPTANCE <name>: PASS|FAIL``
line (run with -s to see them and the notes inline).

Published table cells are compared at +-0.01 (two-decimal print
precision) and at +-0.02 in the phase-sensitive duration-perturbation
study.  Published cells that fail the tables' own internal consistency
checks are left out, noted, and compared with the values their
constraints force; the strict-xfail tests at the bottom keep the
published values visible.  The ideal baseline must also finish within
one second.
"""
import time

import pytest

import nmrqc.reference_tables as ref
from nmrqc import canned_spec, run_experiment
from nmrqc.harness import CHECKS, _qa_row_label

@pytest.mark.parametrize("check", CHECKS, ids=[c.name for c in CHECKS])
def test_check(check):
    notes = []
    start = time.monotonic()
    result = check(notes)
    elapsed = time.monotonic() - start
    for note in notes:
        print(f"  note: {note}")
    wall_s = 1.0 if check.name == "ideal-baseline" else 1800.0
    ok = result.passed and elapsed < wall_s
    print(f"ACCEPTANCE {check.name}: {'PASS' if ok else 'FAIL'} "
          f"{result.detail} ({elapsed:.2f}s)")
    assert ok


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
