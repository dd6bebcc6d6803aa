"""Correctness checks on every table a benchmark run produces.

Two references:

* the published two-decimal cells, compared with
  ``harness.compare_against_reference`` using ``RESULT_TOL`` (or
  ``PERTURBATION_TOL`` for the duration study), the ``SUSPECT_*``
  exclusions and the duration-study forced values exactly as
  ``verify_suite`` applies them;
* ``golden.json``: the full-precision cells of the seed commit, for
  every request any workload seed can make.  ``drift`` is the largest
  |cell - golden| and a cell is ``flipped`` when its two-decimal display
  differs from the golden one.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from nmrqc import reference_tables as ref
from nmrqc.harness import ResultTable, compare_against_reference, round2
from nmrqc.programs import ROTATING_SF, STATIC_SF

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# A cell may move this far from its golden value before the run fails.
DRIFT_TOL = 1e-9

_QA_REFERENCE = {
    (ROTATING_SF, 1): ref.QA_ROTATING_CNOT1,
    (ROTATING_SF, 2): ref.QA_ROTATING_CNOT2,
    (ROTATING_SF, 3): ref.QA_ROTATING_CNOT3,
    (STATIC_SF, 1): ref.QA_STATIC_CNOT1,
}
_GROVER_REFERENCE = {
    ROTATING_SF: (ref.GROVER_ROTATING, ref.SUSPECT_GROVER_ROTATING),
    STATIC_SF: (ref.GROVER_STATIC, ref.SUSPECT_GROVER_STATIC),
}


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def parse_cells(text: str) -> dict[str, dict[str, list[float]]]:
    """{row label: {column: [a, b]}} of an emitted JSON table."""
    payload = json.loads(text)
    return {row["label"]: row["cells"] for row in payload["rows"]}


def _result_table(text: str) -> tuple[ResultTable, list[str]]:
    payload = json.loads(text)
    labels = [row["label"] for row in payload["rows"]]
    table = ResultTable(title=payload["title"], row_header=payload["row_header"],
                        row_labels=labels, col_labels=list(payload["columns"]))
    for row in payload["rows"]:
        for col, ab in row["cells"].items():
            table.cells[(row["label"], col)] = tuple(ab)
    return table, labels


def _published_columns(reference: dict, spec, suspects):
    """Restrict a five-column reference to the spec's durations."""
    s_list = [8 * k for k in spec.k_list if 8 * k in ref.S_VALUES]
    idx = [ref.S_VALUES.index(s) for s in s_list]
    sub = {r: (ideal, [cells[i] for i in idx]) for r, (ideal, cells) in reference.items()}
    sus = {(r, str(s)) for r, s in suspects}
    return sub, [str(s) for s in s_list], sus


def published_failures(spec, text: str) -> set[tuple[str, str]]:
    """(row label, column) of every published cell the table misses."""
    table, labels = _result_table(text)
    if spec.kind == "grover":
        if spec.style not in _GROVER_REFERENCE:
            return set()
        reference, suspects = _GROVER_REFERENCE[spec.style]
        reference = {str(i): v for i, v in reference.items()}
        suspects = {(str(i), s) for i, s in suspects}
        sub, cols, sus = _published_columns(reference, spec, suspects)
        fails = compare_against_reference(table, sub, lambda r: r, cols,
                                          ref.RESULT_TOL, sus)
        return {(r, c) for r, c, *_ in fails}

    label_of = dict(zip(spec.inputs, labels)).__getitem__
    if spec.tau_offsets is None:
        reference = _QA_REFERENCE.get((spec.style, spec.cnot_variant))
        if reference is None:
            return set()
        sub, cols, sus = _published_columns(reference, spec, ())
        fails = compare_against_reference(table, sub, label_of, cols,
                                          ref.RESULT_TOL, sus)
        return {(r, c) for r, c, *_ in fails}

    published_study = (spec.style == ROTATING_SF and spec.cnot_variant == 1
                       and spec.k_list == (32,)
                       and spec.tau_offsets == ref.PERTURBATION_OFFSETS)
    if not published_study:
        return set()
    cols = [f"{o:+g}" for o in ref.PERTURBATION_OFFSETS]
    sus = {(r, f"{o:+g}") for (r, o) in ref.SUSPECT_PERTURBATION}
    fails = compare_against_reference(table, ref.DURATION_PERTURBATION, label_of,
                                      cols, ref.PERTURBATION_TOL, sus)
    bad = {(r, c) for r, c, *_ in fails}
    for (r, o), (comp, forced, _why) in ref.SUSPECT_PERTURBATION.items():
        got = table.cell(label_of(r), f"{o:+g}")
        g = got[0] if comp == "a" else got[1]
        if abs(g - forced) > ref.PERTURBATION_TOL + 1e-9:
            bad.add((label_of(r), f"{o:+g}"))
    return bad


@dataclass
class Verdict:
    """Outcome of checking one table against both references."""

    cells: int          # cells the request should produce
    failed: int         # published misses, missing cells, or all cells on error
    drift: float        # largest |cell - golden|
    flipped: int        # cells whose two-decimal display moved


class Checker:
    """Checks request outputs; identical output text is checked once."""

    def __init__(self, golden: dict):
        self._golden = golden
        self._seen: dict[str, tuple[str, Verdict]] = {}

    def cell_count(self, name: str) -> int:
        return sum(len(cols) for cols in self._golden[name].values())

    def failed_request(self, name: str) -> Verdict:
        n = self.cell_count(name)
        return Verdict(cells=n, failed=n, drift=0.0, flipped=0)

    def check(self, name: str, spec, text: str) -> Verdict:
        hit = self._seen.get(name)
        if hit is not None and hit[0] == text:
            return hit[1]
        verdict = self._check(name, spec, text)
        self._seen[name] = (text, verdict)
        return verdict

    def _check(self, name: str, spec, text: str) -> Verdict:
        golden = self._golden[name]
        try:
            got = parse_cells(text)
            bad = published_failures(spec, text)
        except (KeyError, ValueError, TypeError):
            return self.failed_request(name)
        drift, flipped = 0.0, 0
        for label, cols in golden.items():
            for col, want in cols.items():
                have = got.get(label, {}).get(col)
                if (have is None or len(have) != 2
                        or not all(math.isfinite(h) for h in have)):
                    bad.add((label, col))
                    continue
                drift = max(drift, *(abs(h - w) for h, w in zip(have, want)))
                if any(round2(h) != round2(w) for h, w in zip(have, want)):
                    flipped += 1
        return Verdict(cells=self.cell_count(name), failed=len(bad),
                       drift=drift, flipped=flipped)
