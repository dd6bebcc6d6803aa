"""Batch experiment runner: benchmark suites, sweeps, and verification.

run_experiment executes a (program family) x (pulse duration) x (input)
grid and collects the qubit expectations into a ResultTable whose
markdown rendering mirrors the benchmark layout: ideal (a, b) first,
then one (a_s, b_s) pair per duration label s.  Machine formats (csv,
json) carry full precision; the display rounds half away from zero to
two decimals.

Rows that run the same program share it: in each column, all basis-state
rows of a QA suite run one QA1 program and the singlet row QA2, while
every search item is its own program.  Each program is built once per
column.

A table builds all of its programs before it runs any, and announces
their EO steps to the integrator (``integrator.expect``), lazily.  On a
cold table the first rotating pulse that misses the propagator cache
then integrates every rotating pulse of the table in one stack; a warm
table never expands the announcement.  One stacked walk
(``programs.program_unitaries``) then gives every program's unitary,
looking each distinct propagator up once, and one batched readout
applies each unitary (and each memoized ideal unitary) to the inputs of
its rows.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import partial

import numpy as np

from . import reference_tables as ref
from .errors import ConfigurationError
from .hamiltonian import DEFAULT_MACHINE, MachineConfig
from .integrator import IntegratorConfig, convergence_report, expect
from .programs import (CNOT_SEQUENCES, IDEAL, INPUT_SPECS, ROTATING_SF,
                       STATIC_SF, STYLES, EOStep, build_cnot, build_grover,
                       build_qa, input_amplitudes, prepare_input,
                       program_unitaries, readout, run_program,
                       with_duration_offset)
from .states import qubit_values

QA_INPUTS = ("00", "10", "01", "11", "singlet")

# The pulses drive at the spins' z-fields; delta times the fastest of
# them may not exceed this, i.e. at least two steps per drive period.
MAX_DELTA_TIMES_DRIVE = 0.5


def round2(x: float) -> float:
    """Two-decimal display rounding, halves away from zero."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"),
                                                  rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one result table."""

    kind: str = "qa"                      # 'qa' or 'grover'
    style: str = ROTATING_SF
    cnot_variant: int = 1
    inputs: tuple = QA_INPUTS             # qa only
    items: tuple = (0, 1, 2, 3)           # grover only
    k_list: tuple = (1, 2, 4, 8, 32)
    delta: float = 0.01
    final_rotation_style: str = "program"
    tau_offsets: tuple | None = None      # perturbation study when set
    perturb_label: str = "Ip"             # which EO the offsets detune
    machine: MachineConfig = DEFAULT_MACHINE
    title: str = ""

    def __post_init__(self):
        if self.kind not in ("qa", "grover"):
            raise ConfigurationError(f"kind must be 'qa' or 'grover', got {self.kind!r}")
        if self.style not in STYLES:
            raise ConfigurationError(f"style must be one of {STYLES}, got {self.style!r}")
        if self.cnot_variant not in CNOT_SEQUENCES:
            raise ConfigurationError(
                f"cnot_variant must be 1, 2 or 3, got {self.cnot_variant!r}")
        if self.final_rotation_style not in ("program", "exact"):
            raise ConfigurationError(
                "final_rotation_style must be 'program' or 'exact', "
                f"got {self.final_rotation_style!r}")
        for name in ("inputs", "items", "k_list", "tau_offsets"):
            value = getattr(self, name)
            if name == "tau_offsets" and value is None:
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"{name} must be a list, got {type(value).__name__}")
            if not value:
                raise ConfigurationError(f"{name} must be non-empty")
        for r in self.inputs:
            if r not in INPUT_SPECS:
                raise ConfigurationError(
                    f"inputs entries must be one of {INPUT_SPECS}, got {r!r}")
        for i in self.items:
            if not (_is_whole(i) and 0 <= i <= 3):
                raise ConfigurationError(
                    f"items entries must be whole numbers 0..3, got {i!r}")
        for k in self.k_list:
            if not (_is_whole(k) and k >= 1):
                raise ConfigurationError(
                    f"k_list entries must be whole numbers >= 1, got {k!r}")
        for o in self.tau_offsets or ():
            if not (isinstance(o, numbers.Real) and math.isfinite(o)):
                raise ConfigurationError(
                    f"tau_offsets entries must be finite numbers, got {o!r}")
        IntegratorConfig(delta=self.delta)  # rejects a bad step size here
        fastest = max(abs(self.machine.h1z), abs(self.machine.h2z))
        if self.delta * fastest > MAX_DELTA_TIMES_DRIVE:
            raise ConfigurationError(
                f"delta {self.delta} does not resolve the drive at frequency "
                f"{fastest:g}: need delta * {fastest:g} <= {MAX_DELTA_TIMES_DRIVE}")
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "items", tuple(int(i) for i in self.items))
        object.__setattr__(self, "k_list", tuple(int(k) for k in self.k_list))
        if self.tau_offsets is not None:
            object.__setattr__(self, "tau_offsets",
                               tuple(float(o) for o in self.tau_offsets))

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind, "style": self.style,
            "cnot_variant": self.cnot_variant, "inputs": list(self.inputs),
            "items": list(self.items), "k_list": list(self.k_list),
            "delta": self.delta,
            "final_rotation_style": self.final_rotation_style,
            "perturb_label": self.perturb_label,
            "machine": self.machine.to_dict(), "title": self.title,
        }
        if self.tau_offsets is not None:
            d["tau_offsets"] = list(self.tau_offsets)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = _known_keys(cls, d, "spec")
        if "machine" in d:
            d["machine"] = MachineConfig.from_dict(
                _known_keys(MachineConfig, d["machine"], "machine"))
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"spec is not valid JSON: {exc}") from exc
        return cls.from_dict(d)


def _is_whole(x) -> bool:
    return isinstance(x, numbers.Real) and float(x).is_integer()


def _known_keys(cls, d, what: str) -> dict:
    """Copy of the mapping d, whose keys must all be fields of cls."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{what} must be a mapping, got {type(d).__name__}")
    unknown = sorted(map(str, set(d) - {f.name for f in fields(cls)}))
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {', '.join(unknown)}")
    return dict(d)


@dataclass
class ResultTable:
    """Rows of (a, b) expectations keyed by input, columns by duration label."""

    title: str
    row_header: str
    row_labels: list[str]
    col_labels: list[str]
    ideal: dict = field(default_factory=dict)          # row -> (a, b)
    cells: dict = field(default_factory=dict)          # (row, col) -> (a, b)
    notes: list[str] = field(default_factory=list)

    def cell(self, row: str, col) -> tuple[float, float]:
        return self.cells[(row, str(col))]

    def _grid(self, fmt) -> list[list[str]]:
        """Header, then per row its label, ideal (a, b) and every column's (a, b)."""
        header = [self.row_header, "a", "b"]
        for c in self.col_labels:
            header += [f"a_{c}", f"b_{c}"]
        grid = [header]
        for r in self.row_labels:
            pairs = [self.ideal.get(r, (float("nan"),) * 2)]
            pairs += [self.cells[(r, c)] for c in self.col_labels]
            grid.append([r] + [fmt(x) for pair in pairs for x in pair])
        return grid

    def to_markdown(self) -> str:
        header, *rows = self._grid(lambda x: f"{round2(x):.2f}")
        lines = [" | ".join(header), " | ".join(["---"] * len(header))]
        lines += [" | ".join(row) for row in rows]
        lines += [f"note: {n}" for n in self.notes]
        return "\n".join(lines)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._grid(lambda x: f"{x:.12g}"))

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "row_header": self.row_header,
            "columns": self.col_labels,
            "rows": [
                {
                    "label": r,
                    "ideal": list(self.ideal.get(r, ())),
                    "cells": {c: list(self.cells[(r, c)]) for c in self.col_labels},
                }
                for r in self.row_labels
            ],
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def emit_table(table: ResultTable, fmt: str = "markdown") -> str:
    if fmt == "markdown":
        return table.to_markdown()
    if fmt == "csv":
        return table.to_csv()
    if fmt == "json":
        return table.to_json()
    raise ConfigurationError(f"unknown format {fmt!r}; expected markdown, csv or json")


def _program_groups(spec: ExperimentSpec):
    """(row keys, their input specs, k -> Program) per program the rows share.

    The basis-state rows of a QA suite all run one QA1 program and the
    singlet row runs QA2; every search item is its own program on |00>.
    """
    if spec.kind == "grover":
        return [((str(i),), ("00",),
                 partial(build_grover, i, style=spec.style, machine=spec.machine,
                         delta=spec.delta))
                for i in spec.items]
    groups = []
    for which, rows in (("QA1", tuple(r for r in spec.inputs if r != "singlet")),
                        ("QA2", tuple(r for r in spec.inputs if r == "singlet"))):
        if rows:
            groups.append((rows, rows, partial(
                build_qa, which, rows[0], cnot_variant=spec.cnot_variant,
                style=spec.style, machine=spec.machine, delta=spec.delta,
                final_rotation_style=spec.final_rotation_style)))
    return groups


def _record(table: ResultTable, labels: dict, runs) -> None:
    """Run every (column, row keys, inputs, program) of a table in one walk.

    The integrator is told of all the programs' EO steps, so a cold table
    integrates its rotating pulses in one stack.  program_unitaries then
    gives every program's unitary at once; one batched readout applies
    each to the inputs of its rows, and another gives each row's ideal
    value from the programs' ideal unitaries.
    """
    programs = [program for *_, program in runs]
    expect(s.eo for p in programs for s in p.steps if isinstance(s, EOStep))
    try:
        us = program_unitaries(programs)
    finally:
        expect()
    which, specs, cells = [], [], []           # one entry per table cell
    for p, (col, keys, inputs, _) in enumerate(runs):
        for key, spec in zip(keys, inputs):
            which.append(p)
            specs.append(spec)
            cells.append((labels[key], col))
    states = input_amplitudes(specs)
    ideals = np.array([p.ideal_unitary for p in programs])
    for cell, ab, ideal in zip(cells, readout(us[which], states),
                               readout(ideals[which], states)):
        table.cells[cell] = ab
        table.ideal.setdefault(cell[0], ideal)


def _qa_row_label(spec: ExperimentSpec, input_spec: str) -> str:
    base = f"(CNOT{spec.cnot_variant})^5|{input_spec}>"
    if input_spec == "singlet":
        return f"Y1 {base}"
    return base


def _rows(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """(row key, row label) of every table row, in table order."""
    if spec.kind == "qa":
        return [(r, _qa_row_label(spec, r)) for r in spec.inputs]
    return [(str(i), str(i)) for i in spec.items]


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute the grid and tabulate (a, b) per (row, duration)."""
    if spec.tau_offsets is not None:
        return perturb_duration_study(spec, spec.tau_offsets)

    rows = _rows(spec)
    labels = dict(rows)
    table = ResultTable(
        title=spec.title or f"{spec.kind}:{spec.style}",
        row_header="Operation" if spec.kind == "qa" else "Item position",
        row_labels=[label for _, label in rows], col_labels=[])
    groups = _program_groups(spec)
    k_list = spec.k_list if spec.style != IDEAL else spec.k_list[:1]
    runs = []
    for k in k_list:
        col = str(8 * k) if spec.style != IDEAL else "ideal"
        table.col_labels.append(col)
        runs += [(col, keys, inputs, build(k=k)) for keys, inputs, build in groups]
    _record(table, labels, runs)
    return table


def perturb_duration_study(spec: ExperimentSpec, tau_offsets) -> ResultTable:
    """Re-run a QA suite with the long phase evolution detuned by offsets.

    Offsets (in tau/2pi units) apply to every EO labeled 'Ip', i.e. the
    diagonal evolution inside each CNOT; pulse durations are untouched.
    Each k of the spec gets one block of offset columns.  A single k
    labels its columns by offset alone ('+0.05'); several label them by
    offset and duration ('+0.05@s=256').
    """
    if spec.kind != "qa":
        raise ConfigurationError("perturbation study is defined for QA suites")
    rows = _rows(spec)
    labels = dict(rows)
    offsets = [float(o) for o in tau_offsets]
    durations = ", ".join(str(8 * k) for k in spec.k_list)
    table = ResultTable(
        title=spec.title or f"duration perturbation (s={durations})",
        row_header="Operation",
        row_labels=[label for _, label in rows], col_labels=[])
    runs = []
    for k in spec.k_list:
        suffix = f"@s={8 * k}" if len(spec.k_list) > 1 else ""
        groups = [(keys, inputs, build(k=k))
                  for keys, inputs, build in _program_groups(spec)]
        for o in offsets:
            col = f"{o:+g}{suffix}"
            table.col_labels.append(col)
            runs += [(col, keys, inputs, program if o == 0.0 else
                      with_duration_offset(program, spec.perturb_label, o))
                     for keys, inputs, program in groups]
    _record(table, labels, runs)
    return table


# ----------------------------------------------------------------------
# Canned benchmark experiments.

def canned_spec(name: str) -> ExperimentSpec:
    """Named benchmark suites (table5 .. table10, plus grover_static)."""
    specs = {
        "table5": ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=1,
                                 title="five-fold CNOT1, rotating fields"),
        "table6": ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=2,
                                 title="five-fold CNOT2, rotating fields"),
        "table7": ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=3,
                                 title="five-fold CNOT3, rotating fields"),
        "table8": ExperimentSpec(kind="qa", style=STATIC_SF, cnot_variant=1,
                                 title="five-fold CNOT1, single-axis fields"),
        "table9": ExperimentSpec(kind="grover", style=ROTATING_SF,
                                 title="database search, rotating fields"),
        "table10": ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=1,
                                  k_list=(32,),
                                  tau_offsets=ref.PERTURBATION_OFFSETS,
                                  title="duration sensitivity at s=256"),
        "grover_static": ExperimentSpec(kind="grover", style=STATIC_SF,
                                        title="database search, single-axis fields"),
    }
    if name not in specs:
        raise ConfigurationError(
            f"unknown table {name!r}; available: {', '.join(sorted(specs))}")
    return specs[name]


def canned_names() -> tuple[str, ...]:
    return ("table5", "table6", "table7", "table8", "table9", "table10",
            "grover_static")


# ----------------------------------------------------------------------
# Verification.

@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, tolerance, passed, detail=""):
        self.checks.append(CheckResult(name, tolerance, bool(passed), detail))

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            tol = f" (tol {c.tolerance:g})" if c.tolerance else ""
            detail = f" -- {c.detail}" if c.detail else ""
            lines.append(f"[{status}] {c.name}{tol}{detail}")
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def compare_against_reference(table: ResultTable, reference: dict,
                              row_label_of, cols, tol: float,
                              suspects=frozenset()):
    """Yield (row, col, component, got, want) for cells outside tolerance.

    `suspects` contains (row_key, col_key) pairs excluded from comparison.
    """
    failures = []
    for row_key, (_ideal, cells) in reference.items():
        label = row_label_of(row_key)
        for col_key, want in zip(cols, cells):
            if (row_key, col_key) in suspects:
                continue
            got = table.cell(label, col_key)
            for comp, g, w in zip("ab", got, want):
                if abs(g - w) > tol + 1e-9:
                    failures.append((label, col_key, comp, g, w))
    return failures


def verify_suite(include_tables: bool = True) -> VerifyReport:
    """Run the standing checks and report one line per check.

    The ideal baseline, integration-step independence, and
    coupling-during-pulse insensitivity are quick; the benchmark-table
    comparisons dominate the runtime (under a second in all).
    """
    report = VerifyReport()

    # Ideal baseline: every program family gives the exact answers.
    worst = 0.0
    for variant in (1, 2, 3):
        for inp, (_, a, b) in ref.CNOT_TRUTH.items():
            prog = build_cnot(variant, IDEAL, input_spec=inp)
            got = qubit_values(run_program(prog))
            worst = max(worst, abs(got[0] - a), abs(got[1] - b))
        prog = build_qa("QA2", "singlet", cnot_variant=variant, style=IDEAL)
        got = qubit_values(run_program(prog))
        worst = max(worst, abs(got[0] - 1.0), abs(got[1] - 1.0))
    for item, (ideal_ab, _) in ref.GROVER_ROTATING.items():
        got = qubit_values(run_program(build_grover(item, IDEAL)))
        worst = max(worst, abs(got[0] - ideal_ab[0]), abs(got[1] - ideal_ab[1]))
    report.add("ideal baseline (CNOT variants, QA2, search items)", 1e-4,
               worst < 1e-4, f"worst deviation {worst:.2e}")

    # Step-size independence: two-digit results match at 0.01 and 0.001.
    qa2 = build_qa("QA2", "singlet", style=ROTATING_SF, k=1)
    conv = convergence_report(list(qa2.eos), prepare_input("singlet"),
                              deltas=[0.01, 0.001])
    report.add("step-size independence (QA2 s=8, delta 0.01 vs 0.001)", 0.0,
               conv.two_digit_flag is False,
               "two-digit results " + ("differ" if conv.two_digit_flag else "agree"))

    # Coupling during pulses is negligible: J=0 inside pulse EOs changes
    # nothing at two digits.
    base = qubit_values(run_program(qa2))
    stripped = replace(qa2, steps=tuple(
        s if s.eo.is_diagonal else EOStep(s.eo.replace(j=0.0)) for s in qa2.steps))
    got = qubit_values(run_program(stripped))
    same = all(round2(x) == round2(y) for x, y in zip(base, got))
    report.add("coupling off during pulses leaves results unchanged", 0.0, same,
               f"with J: {tuple(round2(v) for v in base)}, "
               f"without: {tuple(round2(v) for v in got)}")

    if include_tables:
        cases = [
            ("rotating CNOT1 suite", "table5", ref.QA_ROTATING_CNOT1),
            ("rotating CNOT2 suite", "table6", ref.QA_ROTATING_CNOT2),
            ("rotating CNOT3 suite", "table7", ref.QA_ROTATING_CNOT3),
            ("single-axis CNOT1 suite", "table8", ref.QA_STATIC_CNOT1),
        ]
        for name, spec_name, reference in cases:
            spec = canned_spec(spec_name)
            fails = compare_against_reference(
                run_experiment(spec), reference, lambda r: _qa_row_label(spec, r),
                [str(s) for s in ref.S_VALUES], ref.RESULT_TOL)
            report.add(f"benchmark: {name}", ref.RESULT_TOL, not fails,
                       "; ".join(f"{r}@{c}:{comp} got {g:.3f} want {w}"
                                 for r, c, comp, g, w in fails[:4]))

        for name, spec_name, reference, suspects in [
                ("rotating search suite", "table9", ref.GROVER_ROTATING,
                 ref.SUSPECT_GROVER_ROTATING),
                ("single-axis search suite", "grover_static", ref.GROVER_STATIC,
                 ref.SUSPECT_GROVER_STATIC)]:
            table = run_experiment(canned_spec(spec_name))
            sus = {(str(i), str(s)) for i, s in suspects}
            fails = compare_against_reference(
                table, {str(i): v for i, v in reference.items()},
                lambda r: r, [str(s) for s in ref.S_VALUES],
                ref.RESULT_TOL, sus)
            report.add(f"benchmark: {name}", ref.RESULT_TOL, not fails,
                       "; ".join(f"item {r}@{c}:{comp} got {g:.3f} want {w}"
                                 for r, c, comp, g, w in fails[:4]))
            if suspects:
                report.notes.append(
                    f"{name}: cells {sorted(suspects)} excluded as suspected "
                    "entry transpositions (values converge to the ideal answers)")

        # Duration perturbation, +-0.02 on phase-sensitive cells.
        spec = canned_spec("table10")
        table = run_experiment(spec)
        cols = [f"{o:+g}" for o in ref.PERTURBATION_OFFSETS]
        sus = {(r, f"{o:+g}") for (r, o) in ref.SUSPECT_PERTURBATION}
        fails = compare_against_reference(
            table, ref.DURATION_PERTURBATION,
            lambda r: _qa_row_label(spec, r), cols,
            ref.PERTURBATION_TOL, sus)
        # substituted expectations for the suspect cells
        sub_fails = []
        for (r, o), (comp, forced, why) in ref.SUSPECT_PERTURBATION.items():
            got = table.cell(_qa_row_label(spec, r), f"{o:+g}")
            g = got[0] if comp == "a" else got[1]
            if abs(g - forced) > ref.PERTURBATION_TOL + 1e-9:
                sub_fails.append((r, o, comp, g, forced, why))
            report.notes.append(
                f"duration study: published cell ({r}, {o:+g}, {comp}) excluded "
                f"({why}); asserting {forced} instead")
        report.add("benchmark: duration sensitivity", ref.PERTURBATION_TOL,
                   not fails and not sub_fails,
                   "; ".join(f"{r}@{c}:{comp} got {g:.3f} want {w}"
                             for r, c, comp, g, w in fails[:4]) or
                   "; ".join(f"{r}@{o:+g}:{comp} got {g:.3f} want {w}"
                             for r, o, comp, g, w, _ in sub_fails[:4]))

    return report
