"""Batch experiment runner: benchmark suites, sweeps, and verification.

run_experiment, the one table builder, executes an ExperimentSpec, which
checks each program parameter by the check the builders call
(``programs``, ``pulses.check_k``), taking a whole number such as JSON's
2.0 as the int 2.  It runs a (program family) x (column) x (input) grid
and collects the qubit expectations into a ResultTable whose markdown
rendering mirrors the benchmark layout: ideal (a, b) first, then one
(a_s, b_s) pair per column.  A column is a pulse
duration s (the spin-1 pulse length on the spec's machine, 8k at the
default field ratio 1/4), or, when the spec sets tau_offsets (a duration
study, QA suites only), a duration offset of the machine-field phase
evolution Ip at each s (``_columns``).  The markdown display rounds
half away from zero to two decimals.  CSV and JSON carry the same round-trip numbers,
each spelled as json.dumps spells it (the float's repr, NaN, Infinity)
by one function (``_json_numbers``, one call per table), so float() of
any of them gives the cell back exactly.  JSON keeps the
layout json.dumps gives the payload with an indent of 2 and sorted keys,
byte for byte, written without json's pure-Python indenting encoder.

A table row is its label, its input and its program (``_rows``, the one
map from a spec's rows to them), and rows that run the same program
share its builder: all basis-state rows of a QA suite run one QA1
program and the singlet row QA2, while every search item is its own
program.  Compiling a table calls each builder once per k, and each
offset column shifts its program once (``programs.with_duration_offset``).

A table is compiled once per spec object and run on every call.  The
first run_experiment of an ExperimentSpec compiles its table
(``_compile``) and keeps it on that object (``ExperimentSpec._compiled``,
a cached property: it goes by the object, not by equality, so a new
spec, even an equal one, compiles again).  The command line runs a
canned table's registry spec itself when no flag overrides a field, so
a process compiles each canned table once; an override makes a new
spec, which compiles its own table.  A
compiled table is what the spec alone decides: the title, header and
labels; the (row, column) key and the input row of every cell, a cell
being its row, its column and the program the two give; each row's
ideal output row, its memoized ideal unitary applied to its first
cell's input, all rows in one batched product; and the walk of every
cell through its program in compiled form (``programs.compile_walk``,
which reads each distinct program once).  It keeps no propagator, cell
or text, so clearing the propagator store leaves it valid.  Every run
does what the store decides (``programs.run_walk``): it has the
table's EOs integrated if missing, looks each distinct propagator up
once (on a cold table every rotating pulse is integrated in one stack,
and every static single-axis pulse of each drive frequency in stacks
capped in size), and carries the input row of every cell through its
program's steps; one readout of those rows and the ideal rows then
fills a new ResultTable, whose lists and dicts are its own.  No
program's unitary is formed: a unitary is the same walk started from
the identity.

A canned table is one registry entry (``_CANNED``): its spec, its
published rows keyed by row key, and the substitutes for published
cells left out as inconsistent.  Verification is one list, CHECKS, of
named checks, each judged with the tolerance it prints: the ideal
baseline, the integrator's numerical properties, coupling off during
pulses, one check per canned table against its published cells, at
the table's own column labels, and ideal pairs (at PERTURBATION_TOL for
a duration study and RESULT_TOL otherwise, as its spec says), the two
pulse parameter sheets, the idealized-hardware EO sheet and the
commensurability cases.
verify_suite (``nmrqc verify``) runs them in order, and the acceptance
suite runs each as a test.
"""
from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial
from itertools import islice

import numpy as np

from . import reference_tables as ref
from .errors import ConfigurationError, check_choice, shown
from .hamiltonian import (DEFAULT_MACHINE, EOParams, MachineConfig, check_machine,
                          is_finite_number)
from .integrator import check_delta, eo_propagator, oracle_propagator
from .programs import (CNOT_VARIANTS, IDEAL, INPUT_SPECS, ROTATING_SF, SEARCH_ITEMS,
                       STATIC_SF, _gate_step, build_cnot, build_grover, build_qa,
                       check_final_rotation_style, check_input, check_item,
                       check_offset, check_style, check_variant, compile_walk,
                       convergence_report, input_amplitudes, readout, round2,
                       run_inputs, run_program, run_walk, with_duration_offset)
from .pulses import (PULSE_DELTA, ROTATING, STATIC_AXIS, RationalGamma, check_k,
                     commensurability_margin, hypothetical_durations)

KINDS = ("qa", "grover")   # a QA suite or a search table


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one result table."""

    kind: str = "qa"                      # 'qa' or 'grover'
    style: str = ROTATING_SF
    cnot_variant: int = 1
    inputs: tuple = INPUT_SPECS           # qa only
    items: tuple = SEARCH_ITEMS           # grover only
    k_list: tuple = (1, 2, 4, 8, 32)
    delta: float = PULSE_DELTA
    final_rotation_style: str = "program"
    tau_offsets: tuple | None = None      # duration study (qa only): detunes Ip
    machine: MachineConfig = DEFAULT_MACHINE
    title: str = ""

    def __post_init__(self):
        """Check every field by the rule the builders apply (``programs``,
        ``pulses.check_k`` and ``hamiltonian.check_machine``), a whole
        number such as JSON's 2.0 taken as the int 2, and store each as
        its check returns it; a repeated k is named by the label it
        prints (``_durations``).  A field the table does not read keeps
        its default: inputs, cnot_variant and final_rotation_style on a
        search, items on a QA suite."""
        check_choice(self.kind, "kind", KINDS)
        if self.kind != "qa" and self.tau_offsets is not None:
            raise ConfigurationError("perturbation study is defined for QA suites")
        check_style(self.style)
        check_machine(self.machine)
        object.__setattr__(self, "cnot_variant", check_variant(_as_int(self.cnot_variant)))
        check_final_rotation_style(self.final_rotation_style)
        if not isinstance(self.title, str):
            raise ConfigurationError(f"title must be a string, got {type(self.title).__name__}")
        for name, (check, what, axis, label) in _ENTRIES.items():
            value = getattr(self, name)
            if name == "tau_offsets" and value is None:
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"{name} must be a list, got {type(value).__name__}")
            if not value:
                raise ConfigurationError(f"{name} must be non-empty")
            entries = []
            for v in value:
                try:
                    entries.append(check(v))
                except ConfigurationError:
                    raise ConfigurationError(
                        f"{name} entries must be {what}, got {shown(v)}") from None
            object.__setattr__(self, name, tuple(entries))
            labels = [label(v) for v in entries]
            shared = {c for c in labels if labels.count(c) > 1}
            if shared:
                if name == "k_list" and self.style == IDEAL:   # it prints no k
                    raise ConfigurationError(
                        f"k_list repeats k {', '.join(map(str, sorted(shared)))}")
                if name == "k_list":   # a k prints as its duration (_durations)
                    shared = {_durations(self)[k] for k in shared}
                raise ConfigurationError(
                    f"{name} share the {axis} label {', '.join(sorted(shared))}: "
                    "each entry needs a label of its own")
        check_delta(self.delta, self.machine)
        unread = {"items": "in a QA suite"} if self.kind == "qa" else dict.fromkeys(
            ("inputs", "cnot_variant", "final_rotation_style"), "in a search table")
        for f in fields(self):
            if f.name in unread and getattr(self, f.name) != f.default:
                raise ConfigurationError(f"{f.name} changes nothing {unread[f.name]}: "
                                         "leave it at its default")

    @cached_property
    def _compiled(self) -> "_CompiledTable":
        """The spec's table, compiled on the first run of this object
        (``_compile``); a new object, even an equal one, compiles again."""
        return _compile(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        d = _known_keys(cls, d, "spec")
        if "machine" in d:
            d["machine"] = MachineConfig(**_known_keys(MachineConfig, d["machine"], "machine"))
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            d = json.loads(text)
        except ValueError as exc:   # JSONDecodeError, or an int too long to read
            raise ConfigurationError(f"spec is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigurationError("spec is nested too deeply to parse") from exc
        return cls.from_dict(d)


def _offset_label(offset: float) -> str:
    """The column label of a duration offset, e.g. '+0.05'."""
    return f"{offset:+g}"


def _as_int(x):
    """A whole number such as JSON's 2.0 as the int 2; anything else as is."""
    return int(x) if is_finite_number(x) and float(x).is_integer() else x


# List fields of ExperimentSpec: (the check that gives an entry as stored,
# what an entry must be, whether an entry labels a table row or a column,
# a key two entries share when they print as one label).  No two entries
# of a field may.
_ENTRIES = {
    "inputs": (check_input, f"one of {INPUT_SPECS}", "row", str),
    "items": (lambda i: check_item(_as_int(i)), f"one of {SEARCH_ITEMS}", "row", str),
    "k_list": (lambda k: check_k(_as_int(k)), "whole numbers >= 1", "column", int),
    "tau_offsets": (check_offset, "finite numbers", "column", _offset_label),
}


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

    def cell(self, row: str, col) -> tuple[float, float]:
        return self.cells[(row, str(col))]

    def _grid(self, spell) -> list[list[str]]:
        """Header, then per row its label, ideal (a, b) and every column's
        (a, b); spell turns the numbers of all rows into their text in one
        call."""
        header = [self.row_header, "a", "b"]
        for c in self.col_labels:
            header += [f"a_{c}", f"b_{c}"]
        rows = [[x for values in (self.ideal.get(r, (float("nan"),) * 2),
                                  *(self.cells[(r, c)] for c in self.col_labels))
                 for x in values] for r in self.row_labels]
        words = iter(spell([x for row in rows for x in row]))
        return [header] + [[r, *islice(words, len(row))]
                           for r, row in zip(self.row_labels, rows)]

    def to_markdown(self) -> str:
        header, *rows = ([cell.replace("|", "\\|") for cell in row]   # a pipe in a label
                         for row in self._grid(lambda xs: [f"{round2(x):.2f}" for x in xs]))
        lines = [" | ".join(header), " | ".join(["---"] * len(header))]
        lines += [" | ".join(row) for row in rows]
        return "\n".join(lines)

    def to_csv(self) -> str:
        return "\n".join(",".join(row) for row in self._grid(_json_numbers))

    def to_json(self) -> str:
        """The table as JSON, byte for byte what json.dumps writes, with
        an indent of 2 and sorted keys, for the payload {title,
        row_header, columns, rows: [{label, ideal, cells: {column:
        values}}], notes: []}; written directly, since json.dumps runs its
        pure-Python encoder whenever it indents.  Keys come in string
        order, so column "128" sorts before "16".  The text around the
        numbers is the table shape's layout (``_json_layout``), and the
        numbers fill it in one formatting."""
        cols = sorted(set(self.col_labels))
        blocks = []                # each row's values per column, then its ideal
        for r in self.row_labels:
            blocks += [self.cells[(r, c)] for c in cols]
            blocks.append(self.ideal.get(r, ()))
        layout = _json_layout(self.title, self.row_header, tuple(self.row_labels),
                              tuple(self.col_labels), tuple(map(len, blocks)))
        return layout % tuple(_json_numbers([x for values in blocks for x in values]))


_json_string = json.encoder.encode_basestring_ascii   # json.dumps' C string encoder

# Line breaks with the indent of each depth the table payload nests to,
# and the same after an item's comma.
_JSON_PADS = tuple("\n" + "  " * depth for depth in range(6))
_JSON_SEPS = tuple("," + pad for pad in _JSON_PADS)
# Exactly the types whose repr is json.dumps' spelling of a finite value:
# not bool ("True"), nor a float subclass such as np.float64, whose repr
# names its type.
_REPR_TYPES = frozenset({float, int})


def _json_numbers(values: list) -> list[str]:
    """Each number as json.dumps spells it (float repr, NaN, Infinity,
    -Infinity).  Finite floats and ints of exactly those types are one
    repr of the list, which takes half the time of json.dumps' C encoder;
    anything else is one call of that encoder."""
    if not values:
        return []
    if set(map(type, values)) <= _REPR_TYPES:
        text = repr(values)
        if "n" not in text:        # no nan, inf or -inf
            return text[1:-1].split(", ")
    return json.dumps(values)[1:-1].split(", ")


@lru_cache
def _json_layout(title: str, row_header: str, row_labels: tuple, col_labels: tuple,
                 sizes: tuple) -> str:
    """The JSON text of a table with these labels whose value blocks (per
    row, each column in key order, then the ideal) hold sizes[i] numbers,
    with "%s" in place of each number and every "%" of the labels
    doubled: a %-format of the table.  Memoized (the last 128 shapes), so
    a table shape rendered before costs one lookup."""
    counts = iter(sizes)

    def text(s):
        return _json_string(s).replace("%", "%%")

    def numbers(depth):
        return _json_block("[]", ["%s"] * next(counts), depth)

    keys = [text(c) + ": " for c in sorted(set(col_labels))]
    row_texts = [_json_block("{}", [
        '"cells": ' + _json_block("{}", [key + numbers(4) for key in keys], 3),
        '"ideal": ' + numbers(3),
        '"label": ' + text(r)], 2) for r in row_labels]
    return _json_block("{}", [
        '"columns": ' + _json_block("[]", list(map(text, col_labels)), 1),
        '"notes": []',
        '"row_header": ' + text(row_header),
        '"rows": ' + _json_block("[]", row_texts, 1),
        '"title": ' + text(title)], 0)


def _json_block(brackets: str, items: list[str], depth: int) -> str:
    """Encoded items inside brackets ("[]" or "{}"), laid out as
    json.dumps with an indent of 2 lays out a container nested depth
    levels deep."""
    if not items:
        return brackets
    return (brackets[0] + _JSON_PADS[depth + 1] + _JSON_SEPS[depth + 1].join(items)
            + _JSON_PADS[depth] + brackets[1])


_RENDER = {"markdown": ResultTable.to_markdown, "csv": ResultTable.to_csv,
           "json": ResultTable.to_json}
FORMATS = tuple(_RENDER)


def emit_table(table: ResultTable, fmt: str = "markdown") -> str:
    return _RENDER[check_choice(fmt, "format", FORMATS)](table)


def _qa_row_label(spec: ExperimentSpec, input_spec: str) -> str:
    base = f"(CNOT{spec.cnot_variant})^5|{input_spec}>"
    if input_spec == "singlet":
        return f"Y1 {base}"
    return base


def _rows(spec: ExperimentSpec) -> list[tuple]:
    """(row key, row label, input, k -> Program) of every table row, in
    table order.

    Rows that run one program share one builder: a QA program follows
    from its input (``build_qa``), so the basis-state rows of a QA suite
    all run the QA1 program of the first of them, and the singlet row
    runs QA2; every search item is its own program on |00>.
    """
    options = dict(style=spec.style, machine=spec.machine, delta=spec.delta)
    if spec.kind == "grover":
        return [(str(i), str(i), "00", partial(build_grover, i, **options))
                for i in spec.items]
    qa = partial(build_qa, cnot_variant=spec.cnot_variant,
                 final_rotation_style=spec.final_rotation_style, **options)
    first = {r == "singlet": r for r in reversed(spec.inputs)}   # each kind's first input
    builders = {singlet: partial(qa, r) for singlet, r in first.items()}
    return [(r, _qa_row_label(spec, r), r, builders[r == "singlet"])
            for r in spec.inputs]


def _durations(spec: ExperimentSpec) -> dict[int, str]:
    """The printed pulse duration s of each k: the spin-1 pulse length
    t1 = 2kMN^2 on the spec's machine ('256' for k=32 at the default
    ratio 1/4).  The ideal style designs no pulse, so it keeps the first
    k alone, printed as 'ideal'."""
    if spec.style == IDEAL:
        return {spec.k_list[0]: "ideal"}
    gamma = RationalGamma.from_machine(spec.machine)
    return {k: str(hypothetical_durations(gamma, k)[0]) for k in spec.k_list}


def _columns(spec: ExperimentSpec, s: dict[int, str]) -> list[tuple[str, int, float]]:
    """(label, k, duration offset) of every table column, in table order:
    one per k of s (``_durations``), labeled by its duration s[k]
    ('256'), or in a duration study one block of offsets (tau/2pi) per k,
    labeled by offset ('+0.05') or, for several k, by offset and
    duration ('+0.05@s=256')."""
    if spec.tau_offsets is not None:
        suffix = len(s) > 1
        return [(_offset_label(o) + (f"@s={s[k]}" if suffix else ""), k, o)
                for k in s for o in spec.tau_offsets]
    return [(label, k, 0.0) for k, label in s.items()]


@dataclass(frozen=True)
class _CompiledTable:
    """What a spec's table is before any propagator is looked up
    (``_compile``): its text, the (row, column) key and input row of
    every cell, in column then row order, each row's ideal output row,
    and the walk of every cell's input through its program
    (``programs.compile_walk``).  Its arrays are read-only."""

    title: str
    row_header: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    keys: tuple[tuple[str, str], ...]
    inputs: np.ndarray           # (C, 4, 1)
    ideal: np.ndarray            # (R, 4)
    eos: tuple[EOParams, ...]
    gather: np.ndarray           # (step position, C)


def _compile(spec: ExperimentSpec) -> _CompiledTable:
    """The spec's table, compiled.

    Each distinct builder of the rows (``_rows``) is called once per k,
    and each offset column shifts its programs once; a cell is its row,
    its column and the program the two give, and the cells' programs go
    to compile_walk as they are: it reads each distinct program once, so
    the walk's work stays per program.  Each row's ideal output is its
    memoized ideal unitary applied to the input of its first cell, all
    rows in one batched product.
    """
    rows = _rows(spec)
    s = _durations(spec)
    columns = _columns(spec, s)
    title = (f"{spec.kind}:{spec.style}" if spec.tau_offsets is None
             else "duration perturbation (ideal)" if spec.style == IDEAL
             else f"duration perturbation (s={', '.join(s.values())})")
    builders = dict.fromkeys(row[-1] for row in rows)   # distinct, in row order
    built, programs = {}, []   # k -> {builder: Program}; one program per cell
    for _, k, offset in columns:
        if k not in built:
            built[k] = {build: build(k=k) for build in builders}
        column = built[k] if offset == 0.0 else {
            build: with_duration_offset(p, "Ip", offset)
            for build, p in built[k].items()}
        programs += [column[row[-1]] for row in rows]
    eos, gather = compile_walk(programs)
    inputs = input_amplitudes([row[2] for row in rows] * len(columns))[..., None]
    ideals = np.array([p.ideal_unitary for p in programs[:len(rows)]])
    ideal = (ideals @ inputs[:len(rows)])[..., 0]   # the first column's cells
    for a in (inputs, ideal):
        a.setflags(write=False)
    row_labels = tuple(row[1] for row in rows)
    col_labels = tuple(col for col, _, _ in columns)
    return _CompiledTable(
        title=spec.title or title,
        row_header="Operation" if spec.kind == "qa" else "Item position",
        row_labels=row_labels, col_labels=col_labels,
        keys=tuple((r, c) for c in col_labels for r in row_labels),
        inputs=inputs, ideal=ideal, eos=eos, gather=gather)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Execute the grid and tabulate (a, b) per (row, column).

    The spec object's compiled table (``ExperimentSpec._compiled``) is
    walked on the propagator store as it stands: its EOs integrated if
    missing and each looked up once, every cell's input carried through
    its program, and one readout of the cells and the rows' ideal rows
    fills a new table.
    """
    t = spec._compiled
    values = readout(np.concatenate([run_walk(t.eos, t.gather, t.inputs)[..., 0],
                                     t.ideal]))
    return ResultTable(title=t.title, row_header=t.row_header,
                       row_labels=list(t.row_labels), col_labels=list(t.col_labels),
                       ideal=dict(zip(t.row_labels, values[len(t.keys):])),
                       cells=dict(zip(t.keys, values)))


# ----------------------------------------------------------------------
# Canned benchmark experiments.

def _search_reference(published: dict, suspects) -> tuple[dict, dict]:
    """A search table's published rows keyed by row key ('0'..'3'), and
    its suspect cells, each asserted at its row's ideal pair."""
    why = "suspected entry transposition; values converge to the ideal answer"
    return ({str(i): row for i, row in published.items()},
            {(str(i), str(s)): ("ab", published[i][0], why) for i, s in suspects})


# Named benchmark suites, in table order, built once.  Each is its spec,
# its published rows, keyed by row key as ``_rows`` gives them, each
# (ideal pair, one cell per column), and the substitutes for published
# cells left out as inconsistent: (row key, column) -> (components, the
# values asserted, why).
_CANNED = {
    "table5": (ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=1,
                              title="five-fold CNOT1, rotating fields"),
               ref.QA_ROTATING_CNOT1, {}),
    "table6": (ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=2,
                              title="five-fold CNOT2, rotating fields"),
               ref.QA_ROTATING_CNOT2, {}),
    "table7": (ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=3,
                              title="five-fold CNOT3, rotating fields"),
               ref.QA_ROTATING_CNOT3, {}),
    "table8": (ExperimentSpec(kind="qa", style=STATIC_SF, cnot_variant=1,
                              title="five-fold CNOT1, single-axis fields"),
               ref.QA_STATIC_CNOT1, {}),
    "table9": (ExperimentSpec(kind="grover", style=ROTATING_SF,
                              title="database search, rotating fields"),
               *_search_reference(ref.GROVER_ROTATING, ref.SUSPECT_GROVER_ROTATING)),
    "table10": (ExperimentSpec(kind="qa", style=ROTATING_SF, cnot_variant=1,
                               k_list=(32,), tau_offsets=ref.PERTURBATION_OFFSETS,
                               title="duration sensitivity at s=256"),
                ref.DURATION_PERTURBATION,
                {(r, _offset_label(o)): (comp, (forced,), why)
                 for (r, o), (comp, forced, why) in ref.SUSPECT_PERTURBATION.items()}),
    "grover_static": (ExperimentSpec(kind="grover", style=STATIC_SF,
                                     title="database search, single-axis fields"),
                      *_search_reference(ref.GROVER_STATIC, ref.SUSPECT_GROVER_STATIC)),
}


def canned_spec(name: str) -> ExperimentSpec:
    """The spec of a named benchmark suite, one of canned_names()
    (``check_choice``, with a message of its own)."""
    try:
        return _CANNED[check_choice(name, "table", canned_names())][0]
    except ConfigurationError:
        raise ConfigurationError(f"unknown table {shown(name)}; available: "
                                 f"{', '.join(sorted(_CANNED))}") from None


def canned_names() -> tuple[str, ...]:
    return tuple(_CANNED)


# ----------------------------------------------------------------------
# Verification: one list of checks, run by verify_suite and, one test
# per check, by the acceptance suite.

@dataclass(frozen=True)
class CheckResult:
    name: str
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """A named check; measure(tolerance, notes) judges with the check's
    own tolerance (a check of tolerance 0 is exact and reads none), gives
    (passed, detail) and may append notes (e.g. on published cells it
    leaves out)."""

    name: str
    tolerance: float
    measure: Callable[[float, list], tuple[bool, str]]

    def __call__(self, notes: list) -> CheckResult:
        passed, detail = self.measure(self.tolerance, notes)
        return CheckResult(self.name, self.tolerance, bool(passed), detail)


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
                 + (f" (tol {c.tolerance:g})" if c.tolerance else "")
                 + (f" -- {c.detail}" if c.detail else "") for c in self.checks]
        lines += [f"note: {n}" for n in self.notes]
        lines.append("verification " + ("PASSED" if self.passed else "FAILED"))
        return "\n".join(lines)


def compare_against_reference(table: ResultTable, reference: dict,
                              row_label_of, cols, tol: float,
                              suspects=frozenset()):
    """The list of (row, col, component, got, want) of the cells outside
    tolerance.

    `suspects` contains (row_key, col_key) pairs excluded from comparison.
    A cell passes when |got - want| <= tol, with no rounding slack.  The
    published ideal pairs are not compared here (``_published_failures``
    compares them).
    """
    failures = []
    for row_key, (_ideal, cells) in reference.items():
        label = row_label_of(row_key)
        for col_key, want in zip(cols, cells):
            if (row_key, col_key) in suspects:
                continue
            got = table.cell(label, col_key)
            for comp, g, w in zip("ab", got, want):
                if abs(g - w) > tol:
                    failures.append((label, col_key, comp, g, w))
    return failures


def _published_failures(name: str, tol: float, notes: list) -> tuple[bool, str]:
    """Run a canned table and compare every cell, at the table's own
    column labels, and every row's ideal pair with its published value.

    A published cell left out as inconsistent is compared with its
    substitute instead, at the same tolerance, and noted.
    """
    spec, published, substitutes = _CANNED[name]
    table = run_experiment(spec)
    label = {key: label for key, label, *_ in _rows(spec)}
    fails = compare_against_reference(table, published, label.__getitem__,
                                      table.col_labels, tol, substitutes.keys())
    fails += [(label[key], "ideal", comp, g, w) for key, (ideal, _) in published.items()
              for comp, g, w in zip("ab", table.ideal[label[key]], ideal)
              if abs(g - w) > tol]
    for (key, col), (comps, want, why) in sorted(substitutes.items()):
        got = dict(zip("ab", table.cell(label[key], col)))
        fails += [(label[key], col, comp, got[comp], w)
                  for comp, w in zip(comps, want) if abs(got[comp] - w) > tol]
        notes.append(f"{name}: published cell ({key}, {col}, {comps}) excluded "
                     f"({why}); asserting {', '.join(map(str, want))} instead")
    return not fails, "; ".join(f"{r}@{c}:{comp} got {g:.3f} want {w}"
                                for r, c, comp, g, w in fails[:4]) or (
        f"{spec.title}: all cells match")


def _g(x: float) -> str:
    """x as a check's detail prints a bound: 1e-6, 1e-10, 0.5."""
    return f"{x:g}".replace("e-0", "e-")


def _ideal_baseline(tol, notes):
    """Every program family gives the exact answers in the ideal style."""
    cases = [(run_inputs(build_grover(item, IDEAL), ["00"])[0], ab)
             for item, (ab, _) in ref.GROVER_ROTATING.items()]
    for v in CNOT_VARIANTS:   # one program, every truth-table input
        cases += zip(run_inputs(build_cnot(v, IDEAL), list(ref.CNOT_TRUTH)),
                     ref.CNOT_TRUTH.values())
        cases += [(run_inputs(build_qa(inp, cnot_variant=v, style=IDEAL), [inp])[0],
                   ref.QA_ROTATING_CNOT1[inp][0]) for inp in INPUT_SPECS]
    worst = max(abs(g - w) for got, want in cases for g, w in zip(got, want))
    return worst < tol, f"CNOT, QA1, QA2, search: worst deviation {worst:.2e}"


def _halving_ratio(tol, notes):
    """Second order: halving the step cuts the deviation from the dense
    oracle by a factor of 4 +- tol, for the Y1 pulse the s=8 rotating
    tables run."""
    eo = _gate_step("Y1", ROTATING_SF, 1, DEFAULT_MACHINE, PULSE_DELTA)
    oracle = oracle_propagator(eo.replace(delta=0.001))
    dev = [np.max(np.abs(eo_propagator(eo.replace(delta=d)) - oracle))
           for d in (0.04, 0.02)]
    ratio = dev[0] / dev[1]
    return abs(ratio - 4.0) <= tol, f"Y1 s=8, delta 0.04/0.02: ratio {ratio:.2f}"


def _norm_preservation(tol, notes):
    """The longest program (QA2 at s=256, Ip detuned by -0.2) stays normalized.

    A pass prints the bound, not the deviation: that is rounding noise,
    which moves with the last bits of every propagator.
    """
    longest = with_duration_offset(
        build_qa("singlet", style=ROTATING_SF, k=32), "Ip", -0.2)
    dev = abs(float(np.linalg.norm(run_program(longest))) - 1.0)
    if dev < tol:
        return True, f"perturbed QA2 s=256: norm within {_g(tol)} of 1"
    return False, f"perturbed QA2 s=256: norm deviation {dev:.1e}"


def _step_size_independence(tol, notes):
    """Two-digit results of QA2 at s=8 match at delta 0.01 and 0.001: the
    rows of its convergence report (coarsest first) print alike by
    round2, as the tables print."""
    qa2 = build_qa("singlet", style=ROTATING_SF, k=1)
    coarse, fine = (tuple(map(round2, row.expectations)) for row in
                    convergence_report(qa2.steps, "singlet", deltas=[0.01, 0.001]).rows)
    verdict = "agree" if coarse == fine else "differ"
    return verdict == "agree", f"QA2 s=8, delta 0.01/0.001: two digits {verdict}"


def _coupling_off_during_pulses(tol, notes):
    """J=0 inside the pulse EOs changes nothing at two digits."""
    qa2 = build_qa("singlet", style=ROTATING_SF, k=1)
    stripped = replace(qa2, steps=tuple(
        s if s.is_diagonal else s.replace(j=0.0) for s in qa2.steps))
    base, got = (tuple(round2(v) for v in run_inputs(p, ["singlet"])[0])
                 for p in (qa2, stripped))
    return base == got, f"QA2 s=8 with J: {base}, without: {got}"


def _pulse_sheet(mode: str, tol: float, notes) -> tuple[bool, str]:
    """Every cell of a k=1 pulse parameter sheet, amplitudes at tol
    relative, against each gate's
    EO as the s=8 tables of that mode run it: the builders' own memoized
    object (``programs._gate_step``), whose tau is the pulse duration.

    Four published rotating spin-2 amplitudes break sf2 = gamma * sf1;
    their constraint values are asserted instead, and noted.
    """
    sheet, style = ((ref.ROTATING_PULSES_K1, ROTATING_SF) if mode == ROTATING
                    else (ref.STATIC_PULSES_K1, STATIC_SF))
    fails = []
    for gate, row in sheet.items():
        eo = _gate_step(gate, style, 1, DEFAULT_MACHINE, PULSE_DELTA)
        if mode == ROTATING:
            t, omega, s1x, s2x, phx, s1y, s2y, phy = row
            phases = (phx * np.pi, phy * np.pi)
            if gate in ref.SUSPECT_ROTATING_SPIN2:
                forced = abs(ref.SUSPECT_ROTATING_SPIN2[gate])
                s2x, s2y = np.sign(s2x) * forced, np.sign(s2y) * forced
                notes.append(f"{mode} sheet: published spin-2 amplitudes of {gate} "
                             f"excluded (break sf2 = gamma*sf1); asserting "
                             f"{s2x:+.7f}, {s2y:+.7f} instead")
        else:
            t, omega, s1x, s2x, s1y, s2y = row
            phases = (0.0, 0.0)
        values = [("tau/2pi", eo.tau, t, 0.0),
                  ("omega", eo.omega, omega, 1e-9), ("phi_x", eo.phi_x, phases[0], 1e-12),
                  ("phi_y", eo.phi_y, phases[1], 1e-12)]
        # printed amplitudes carry 7 decimals but mix rounding with
        # truncation (0.0279796 for 0.02797965116): tol relative or one
        # ulp of the print
        values += [(n, g, w, max(tol * abs(w), 1.01e-7)) for n, g, w in zip(
            ("sf1x", "sf2x", "sf1y", "sf2y"), (eo.sf1x, eo.sf2x, eo.sf1y, eo.sf2y),
            (s1x, s2x, s1y, s2y))]
        fails += [f"{gate} {n} got {g!r} want {w!r}" for n, g, w, tol in values
                  if abs(g - w) > tol]
    return not fails, "; ".join(fails[:4]) or (
        f"{len(sheet)} rows: amplitudes at {_g(tol)} relative, phases at 1e-12")


def _ideal_eo_sheet(tol, notes):
    """The idealized-hardware EO sheet, against each gate's EO as the
    ideal-style tables run it: the duration exactly, the one field and
    the phase evolution Ip's duration at the sheet's 4 decimals."""
    eos = {g: _gate_step(g, IDEAL, 1, DEFAULT_MACHINE, PULSE_DELTA)
           for g in (*ref.IDEAL_EO_FIELDS, "Ip")}
    cases = [(f"{g} tau/2pi", eos[g].tau, tau)
             for g, (tau, _, _) in ref.IDEAL_EO_FIELDS.items()]
    cases += [(f"{g} {f}", round(getattr(eos[g], f), 4), value)
              for g, (_, f, value) in ref.IDEAL_EO_FIELDS.items()]
    cases.append(("Ip tau/2pi", round(eos["Ip"].tau, 4), ref.IP_DURATION))
    fails = [f"{what} got {got!r} want {want!r}"
             for what, got, want in cases if got != want]
    return not fails, "; ".join(fails[:4]) or f"{len(cases)} cells match"


def _commensurability(tol, notes):
    """The stored commensurability margins and pulse durations."""
    cases = [("margin", key, commensurability_margin(RationalGamma(*key[:2]), key[2]),
              want) for key, want in ref.MARGIN_CASES.items()]
    cases += [("durations", key, hypothetical_durations(RationalGamma(*key[:2]), key[2]),
               want) for key, want in ref.DURATION_CASES.items()]
    fails = [f"{what}{key} got {got} want {want}" for what, key, got, want in cases
             if got != want]
    return not fails, "; ".join(fails) or f"{len(cases)} stored cases match"


CHECKS = (
    Check("ideal-baseline", 1e-4, _ideal_baseline),
    Check("halving-ratio", 0.5, _halving_ratio),
    Check("norm-preservation", 1e-10, _norm_preservation),
    Check("step-size-independence", 0.0, _step_size_independence),
    Check("coupling-off-during-pulses", 0.0, _coupling_off_during_pulses),
    *(Check(name, ref.RESULT_TOL if spec.tau_offsets is None else ref.PERTURBATION_TOL,
            partial(_published_failures, name))
      for name, (spec, *_) in _CANNED.items()),
    Check("rotating-pulse-sheet", 1e-6, partial(_pulse_sheet, ROTATING)),
    Check("static-pulse-sheet", 1e-6, partial(_pulse_sheet, STATIC_AXIS)),
    Check("ideal-eo-sheet", 0.0, _ideal_eo_sheet),
    Check("commensurability", 0.0, _commensurability),
)


def verify_suite() -> VerifyReport:
    """Run CHECKS in order and report one line per check, then the notes."""
    report = VerifyReport()
    for check in CHECKS:
        report.checks.append(check(report.notes))
    return report
