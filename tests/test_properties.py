"""Property-based tests: spec serialization, the batched harness, the
spec and the builders taking one domain per program parameter, table
JSON against json.dumps, the folded pulse propagators (static pulses
folded by quarter periods among them), the stacked rotating and
static kernels, the quarter fold's block in the eigenbasis of S^x and
the powers by a stack's plan."""
import argparse
import json
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nmrqc import (ConfigurationError, ExperimentSpec, MachineConfig, build_cnot,
                   build_grover, build_program, build_qa, canned_spec, compose,
                   design_pulse, eo_propagator, run_experiment, with_duration_offset)
import nmrqc.integrator
from nmrqc.cli import build_parser
from nmrqc.harness import FORMATS, KINDS, ResultTable, _offset_label
from nmrqc.integrator import (_BLOCK, _Drives, _layout, _plan, _powers,
                              _product_formula_block, _quarter_block, _substeps,
                              _z_class, clear_propagator_cache)
from nmrqc.operators import TWO_PI
from nmrqc.programs import (CNOT_VARIANTS, FINAL_ROTATION_STYLES, G_EXPANSION, INPUT_SPECS,
                            STYLES, Program, program_unitaries)

from conftest import (BLOCKS, PROPAGATORS, chained_reference, json_reference,
                      per_row_reference, stacked)

# list entries whose row or column labels differ, as ExperimentSpec requires
_offsets = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4,
                    unique_by=_offset_label)


def _spec(kind, tau_offsets, **fields):
    """A spec; a duration study (tau_offsets set) is defined for QA suites
    only, and a field the spec's table does not read keeps its default."""
    tau_offsets = tau_offsets if kind == "qa" else None
    unread = ({"items"} if kind == "qa"
              else {"inputs", "cnot_variant", "final_rotation_style"})
    return ExperimentSpec(kind=kind, tau_offsets=tau_offsets,
                          **{k: v for k, v in fields.items() if k not in unread})


specs = st.builds(
    _spec,
    kind=st.sampled_from(["qa", "grover"]),
    tau_offsets=st.none() | _offsets,
    style=st.sampled_from(STYLES),
    cnot_variant=st.sampled_from([1, 2, 3]),
    inputs=st.lists(st.sampled_from(INPUT_SPECS), min_size=1, max_size=5,
                    unique=True),
    items=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    k_list=st.lists(st.integers(1, 64), min_size=1, max_size=5, unique=True),
    delta=st.floats(1e-4, 0.25),
    final_rotation_style=st.sampled_from(["program", "exact"]),
    machine=st.sampled_from([MachineConfig(), MachineConfig(h1z=2.0, h2z=0.5)]),
    title=st.text(max_size=20),
)


@settings(max_examples=60, deadline=None)
@given(specs)
def test_spec_dict_and_json_round_trip(spec):
    assert ExperimentSpec.from_dict(asdict(spec)) == spec
    assert ExperimentSpec.from_json(json.dumps(asdict(spec))) == spec


@settings(max_examples=12, deadline=None)
@given(inputs=st.lists(st.sampled_from(INPUT_SPECS), min_size=1, max_size=5,
                      unique=True),
       k=st.sampled_from([1, 2]),
       variant=st.sampled_from([1, 2, 3]),
       style=st.sampled_from(["rotating_sf", "static_sf"]))
def test_batched_qa_table_equals_per_row_reference(inputs, k, variant, style):
    spec = ExperimentSpec(inputs=tuple(inputs), k_list=(k,), cnot_variant=variant,
                          style=style)
    table = run_experiment(spec)
    rows, cols, cells, ideal = per_row_reference(spec)
    assert (table.row_labels, table.col_labels) == (rows, cols)
    assert table.cells == cells
    assert table.ideal == ideal


# specs of short pulses, so that every example runs in milliseconds
short_specs = st.builds(
    _spec,
    kind=st.sampled_from(["qa", "grover"]),
    tau_offsets=st.none() | st.lists(st.sampled_from([-0.1, 0.0, 0.05]), min_size=1,
                                     max_size=2, unique=True),
    style=st.sampled_from(STYLES),
    cnot_variant=st.sampled_from([1, 2, 3]),
    inputs=st.lists(st.sampled_from(INPUT_SPECS), min_size=1, max_size=5,
                    unique=True),
    items=st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
    k_list=st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2, unique=True),
    delta=st.sampled_from([0.01, 0.02]),
    final_rotation_style=st.sampled_from(["program", "exact"]),
    machine=st.sampled_from([MachineConfig(), MachineConfig(h1z=2.0, h2z=0.5)]),
)


@settings(max_examples=15, deadline=None)
@given(short_specs)
def test_a_spec_run_twice_equals_per_row_reference(spec):
    """The first run of a spec object compiles its table and the second
    reuses it; both equal the table built and run row by row."""
    rows, cols, cells, ideal = per_row_reference(spec)
    for _ in range(2):
        table = run_experiment(spec)
        assert (table.row_labels, table.col_labels) == (rows, cols)
        assert (table.cells, table.ideal) == (cells, ideal)


# A machine whose fastest drive, at 2.0, refuses every delta above 0.25.
_FAST = MachineConfig(h1z=2.0, h2z=0.5)

# Each program parameter: the spec field holding it, the spec's stored
# value, and a library call that takes it.
_PARAMETERS = {
    "cnot_variant": (lambda v: ExperimentSpec(cnot_variant=v),
                     lambda spec: spec.cnot_variant,
                     lambda v: build_qa("00", cnot_variant=v)),
    "items": (lambda v: ExperimentSpec(kind="grover", items=(v,)),
              lambda spec: spec.items[0], build_grover),
    "k_list": (lambda v: ExperimentSpec(k_list=(v,)), lambda spec: spec.k_list[0],
               lambda v: build_qa("00", k=v)),
    "style": (lambda v: ExperimentSpec(style=v), lambda spec: spec.style,
              lambda v: build_qa("00", style=v)),
    "final_rotation_style": (lambda v: ExperimentSpec(final_rotation_style=v),
                             lambda spec: spec.final_rotation_style,
                             lambda v: build_qa("singlet", final_rotation_style=v)),
    "delta": (lambda v: ExperimentSpec(delta=v, machine=_FAST), lambda spec: spec.delta,
              lambda v: build_qa("00", style="rotating_sf", machine=_FAST, delta=v)),
    "machine": (lambda v: ExperimentSpec(machine=v), lambda spec: spec.machine,
                lambda v: build_qa("00", machine=v)),
    "tau_offsets": (lambda v: ExperimentSpec(tau_offsets=(v,)),
                    lambda spec: spec.tau_offsets[0],
                    lambda v: with_duration_offset(build_qa("00"), "Ip", v)),
}

# Values in and out of every domain: integers, whole and fractional
# floats, bools and strings, the domains' own among them.
_values = (st.integers(-2, 6) | st.integers(-2, 6).map(float) | st.floats(-2.0, 6.0)
           | st.booleans() | st.text(max_size=3)
           | st.sampled_from(STYLES + FINAL_ROTATION_STYLES + INPUT_SPECS))


def _accepted(call, value):
    """(True, the result) if call(value) accepts the value, else (False, None)."""
    try:
        return True, call(value)
    except ConfigurationError:
        return False, None


@settings(max_examples=200, deadline=None)
@given(parameter=st.sampled_from(sorted(_PARAMETERS)), value=_values)
@example(parameter="cnot_variant", value=True)
@example(parameter="cnot_variant", value=2.0)
@example(parameter="items", value=True)
@example(parameter="items", value=2.0)
@example(parameter="k_list", value=1.5)
@example(parameter="k_list", value=True)
@example(parameter="delta", value=-0.01)
@example(parameter="delta", value=float("nan"))
@example(parameter="delta", value=True)
@example(parameter="delta", value=0.25)
@example(parameter="delta", value=0.3)    # too coarse for the drive at 2.0
@example(parameter="machine", value=None)
@example(parameter="machine", value={"h1z": 1.0})
@example(parameter="tau_offsets", value=True)
@example(parameter="tau_offsets", value=float("nan"))
@example(parameter="tau_offsets", value="0.1")
@example(parameter="tau_offsets", value=2)
def test_the_spec_and_the_builders_agree(parameter, value):
    """The spec accepts a value exactly when the library accepts the
    value the spec stores (a whole float as its int, an offset as its
    float); the library accepts nothing the spec refuses, and the spec
    stores what it accepts from the library unchanged, an offset as a
    float."""
    make_spec, stored, build = _PARAMETERS[parameter]
    spec_ok, spec = _accepted(make_spec, value)
    built_ok, _ = _accepted(build, value)
    if spec_ok:
        assert type(stored(spec)) in (int, float, str) and stored(spec) == value
        assert _accepted(build, stored(spec))[0]
    assert spec_ok or not built_ok
    if built_ok:
        assert type(stored(spec)) in (type(value), float)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), style=st.sampled_from(STYLES), k=st.integers(1, 3))
def test_build_program_realizes_each_gate_as_the_builders_do(data, style, k):
    """A list of the gates the builders' programs realize in a style
    (rotations, Ip and G) has each gate's steps in those programs as its
    steps, object for object ('G' is G_EXPANSION in the pulse styles),
    and the product of its ideal gates as its ideal unitary."""
    realized = {step.label: step for p in [build_cnot(v, style, k) for v in CNOT_VARIANTS]
                + [build_grover(item, style, k) for item in range(4)] for step in p.steps}
    names = sorted(set(realized) - {"Gcore"} | {"G"})
    gates = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=12))
    want = [realized[name] for gate in gates
            for name in (G_EXPANSION if gate == "G" and style != "ideal" else (gate,))]
    program = build_program(gates, style, k)
    assert len(program.steps) == len(want)
    assert all(got is step for got, step in zip(program.steps, want))
    assert np.max(np.abs(program.ideal_unitary - compose(reversed(gates)))) < 1e-12


def test_the_cli_choices_are_the_domains():
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    domains = {"format": FORMATS, "final_rotation_style": FINAL_ROTATION_STYLES,
               "kind": KINDS, "variant": CNOT_VARIANTS}
    seen = set()
    for command in ("run", "tables", "sweep"):
        for action in commands[command]._actions:
            if action.dest in domains:
                assert tuple(action.choices) == domains[action.dest]
                seen.add(action.dest)
    assert seen == set(domains)


# Table text: quotes, backslashes, control characters, non-ASCII text
# (one character outside the BMP) and any other character.
_texts = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f,é☃\U0001d11e') | st.characters(),
                 max_size=6)
# Column labels whose string order is not their numeric order.
_labels = st.sampled_from(["8", "16", "128", "+0.05", "-0.1", "ideal"]) | _texts
# Bools and np.float64 are numbers whose repr is not json.dumps' spelling.
_numbers = (st.floats() | st.integers() | st.booleans() | st.floats().map(np.float64)
            | st.sampled_from([5e-324, 1e-300, 1.5e308, -0.0, float("nan"),
                               float("inf"), float("-inf")]))


@st.composite
def result_tables(draw):
    """A table of any shape; a row may have no ideal, and any list may be
    empty."""
    rows = draw(st.lists(_texts, max_size=4))
    cols = draw(st.lists(_labels, max_size=5))
    values = st.lists(_numbers, max_size=3).map(tuple)
    return ResultTable(
        title=draw(_texts), row_header=draw(_texts), row_labels=rows,
        col_labels=cols,
        ideal={r: draw(values) for r in rows if draw(st.booleans())},
        cells={(r, c): draw(values) for r in rows for c in cols})


@settings(max_examples=100, deadline=None)
@given(result_tables())
@example(ResultTable(
    title='a "quoted" \\ title\x01', row_header="Operation",
    row_labels=["(CNOT1)^5|00>", "Ψ", "no ideal"],
    col_labels=["8", "16", "128", "+0.05", "-0.1"],
    ideal={"(CNOT1)^5|00>": (1, -0.0), "Ψ": (float("nan"), float("inf"))},
    cells={(r, c): (5e-324, -float("inf")) if c == "16" else (0.1, 1.5e308)
           for r in ["(CNOT1)^5|00>", "Ψ", "no ideal"]
           for c in ["8", "16", "128", "+0.05", "-0.1"]}))
@example(ResultTable(title="", row_header="", row_labels=[], col_labels=[]))
@example(ResultTable(title="", row_header="", row_labels=["r"], col_labels=[]))
@example(ResultTable(  # format directives in the text around the numbers
    title="100% {} %s", row_header="%d {0}", row_labels=["%", "%%s"],
    col_labels=["%s", "{}"], ideal={"%": (0.5, 1)},
    cells={(r, c): (0.25, np.float64(0.75)) for r in ["%", "%%s"] for c in ["%s", "{}"]}))
def test_table_json_is_json_dumps_byte_for_byte(table):
    assert table.to_json() == json_reference(table)


def _csv_reference(table) -> str:
    """The table's CSV with each number spelled by its own json.dumps."""
    lines = [",".join([table.row_header, "a", "b",
                       *(f"{ab}_{c}" for c in table.col_labels for ab in "ab")])]
    for r in table.row_labels:
        values = [*table.ideal.get(r, (float("nan"),) * 2)]
        values += [x for c in table.col_labels for x in table.cells[(r, c)]]
        lines.append(",".join([r, *map(json.dumps, values)]))
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(result_tables())
@example(ResultTable(
    title="t", row_header="Operation", row_labels=["r", "no ideal"],
    col_labels=["8", "16"], ideal={"r": (True, np.float64(0.1))},
    cells={(r, c): (float("nan"), -0.0, float("inf"), np.float64(-0.0), False)
           for r in ["r", "no ideal"] for c in ["8", "16"]}))
def test_table_csv_spells_each_number_as_json_dumps(table):
    """One spelling call per table gives every number the text json.dumps
    gives it alone, whatever the number's type or the cell's length."""
    assert table.to_csv() == _csv_reference(table)


_TABLE = dict(title="t", row_header="Operation", row_labels=["00", "11"],
              col_labels=["8", "16"], ideal={"00": (0.0, 0.0), "11": (1.0, 1.0)},
              cells={(r, c): (0.5, 0.25) for r in ["00", "11"] for c in ["8", "16"]})


@pytest.mark.parametrize("change", [
    dict(row_labels=["00", "10"],
         cells={(r, c): (0.5, 0.25) for r in ["00", "10"] for c in ["8", "16"]}),
    dict(col_labels=["8", "32"],
         cells={(r, c): (0.5, 0.25) for r in ["00", "11"] for c in ["8", "32"]}),
    dict(cells={**_TABLE["cells"], ("11", "16"): (0.125, 0.25)}),
    dict(cells={**_TABLE["cells"], ("11", "16"): (0.125, 0.25, 1.0)}),
], ids=["row_label", "column_label", "cell", "cell_length"])
def test_table_json_of_a_changed_table_is_its_own(change):
    """A table rendered after one of the same title whose label or cell
    differs prints its own JSON, not the text of the first."""
    first = ResultTable(**_TABLE)
    assert first.to_json() == json_reference(first)
    second = ResultTable(**{**_TABLE, **change})
    assert second.to_json() == json_reference(second)


@settings(max_examples=16, deadline=None)
@given(spin=st.sampled_from([1, 2]), axis=st.sampled_from(["x", "y"]),
       direction=st.sampled_from([1, -1]), k=st.integers(1, 4),
       turns=st.sampled_from([0.25, 0.5, 0.75]),
       mode=st.sampled_from(["rotating", "static_axis"]),
       offset=st.floats(-0.5, 0.5))
def test_folded_pulse_equals_stepped(spin, axis, direction, k, turns, mode,
                                     offset):
    eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                      direction=direction)
    assert eo.is_rotating == (mode == "rotating")
    eo = eo.replace(tau=eo.tau + offset)
    u = eo_propagator(eo)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    ref = chained_reference(eo, eo.delta, BLOCKS["product_formula"])
    assert np.max(np.abs(u - ref)) < 1e-11


@settings(max_examples=16, deadline=None)
@given(spin=st.sampled_from([1, 2]), axis=st.sampled_from(["x", "y"]),
       direction=st.sampled_from([1, -1]), k=st.integers(1, 3),
       turns=st.sampled_from([0.25, 0.5, 0.75]), offset=st.floats(-0.5, 0.5),
       method=st.sampled_from(sorted(BLOCKS)))
def test_quarter_folded_static_pulse_equals_stepped(spin, axis, direction, k,
                                                    turns, offset, method):
    # a designed static pulse drives one axis with phi = 0, its period is
    # 100 or 400 steps and it spans at least two: it folds by quarters
    eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                      direction=direction)
    eo = eo.replace(tau=eo.tau + offset)
    u = PROPAGATORS[method](eo)
    ref = chained_reference(eo, eo.delta, BLOCKS[method])
    assert np.max(np.abs(u - ref)) < 1e-11


rotating_pulses = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from(["x", "y"]), st.sampled_from([1, -1]),
    st.sampled_from([0.25, 0.5, 0.75]), st.integers(1, 4),
    st.sampled_from([0.0, -0.1, 0.1037]) | st.floats(-0.5, 0.5))  # remainders


@settings(max_examples=12, deadline=None)
@given(st.lists(rotating_pulses, min_size=1, max_size=5))
def test_stacked_rotating_kernel(pulses):
    eos = []
    for spin, axis, direction, turns, k, offset in pulses:
        eo = design_pulse(spin, TWO_PI * turns, axis, k=k, direction=direction)
        eos.append(eo.replace(tau=eo.tau + offset))
    delta = eos[0].delta
    stack = stacked(eos)
    for eo, u in zip(eos, stack):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        ref = chained_reference(eo, delta, BLOCKS["product_formula"])
        assert np.max(np.abs(u - ref)) < 1e-11
        assert np.array_equal(u, stacked((eo,))[0])   # whatever shares its stack


def _check_quarter_block(d, fold="quarter"):
    """The eigenbasis block of stack d, of the fold given, is the product
    of the general block over its first m substeps (P/4 for the quarter
    fold, P for the x period fold), each row is that of its EO as a stack
    of one, and built 16 substeps at a time it is the same product, with
    no chain of more than 16 factors."""
    assert d.fold == fold
    n, m = len(d.eos), d.period // 4 if fold == "quarter" else d.period
    got = _quarter_block(d)
    ref = _substeps(d, np.zeros(n, dtype=int), np.full(n, m), _product_formula_block)
    assert np.max(np.abs(got - ref)) < 1e-13
    for e in range(n):   # whatever shares its stack
        assert np.array_equal(got[e], _quarter_block(_Drives([_plan(d.eos[e])]))[0]), e
    chains, chain = [], nmrqc.integrator._chain

    def counting(mats):
        chains.append(mats.shape[1])
        return chain(mats)

    with mock.patch.object(nmrqc.integrator, "_BLOCK", 16), \
            mock.patch.object(nmrqc.integrator, "_chain", counting):
        chunked = _quarter_block(d)
    assert len(chains) == -(-m // 16) and max(chains) <= 16
    assert np.max(np.abs(chunked - got)) < 1e-13


def test_the_quarter_block_of_table8():
    stacks = [d for d in _layout(canned_spec("table8")._compiled.eos).groups
              if d.fold == "quarter"]
    assert sorted((len(d.eos), d.period // 4) for d in stacks) == [(10, 25), (10, 100)]
    for d in stacks:
        _check_quarter_block(d)


# members of a quarter stack: axis, sign, turns and k of a designed pulse
quarter_members = st.tuples(st.sampled_from(["x", "y"]), st.sampled_from([1, -1]),
                            st.sampled_from([0.25, 0.5, 0.75]), st.integers(1, 32))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(1, 40),
       st.lists(quarter_members, min_size=1, max_size=10))
@example(1, 1, [("x", 1, 0.25, 1)])   # P = 4: a quarter of one substep
def test_the_quarter_block_is_the_general_blocks_first_quarter(spin, n, members):
    """Designed static pulses at delta = 1/(4n) (P = 4n steps for spin 1,
    16n for spin 2), each as its class, in one quarter stack."""
    delta = 1.0 / (4 * n)
    plans = [_plan(design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                                direction=direction, delta=delta))
             for axis, direction, turns, k in members]
    _check_quarter_block(_Drives(plans))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(2, 100).filter(lambda n: n % 4),
       st.lists(quarter_members, min_size=1, max_size=10))
@example(1, 2, [("x", 1, 0.25, 1)])   # P = 2 at delta = 0.5, the coarsest step
@example(2, 99, [("y", -1, 0.75, 3), ("x", 1, 0.5, 1)])
def test_the_x_period_block_is_the_general_blocks_first_period(spin, n, members):
    """Designed static pulses at delta = 1/(n omega), so P = n steps, not
    a multiple of 4, each as its class, in one x period stack: the
    eigenbasis block builds the whole period."""
    omega = design_pulse(spin, TWO_PI / 4.0, "x", mode="static_axis").omega
    delta = 1.0 / (n * omega)
    assume(delta <= 0.5)   # spin 1's drive, the fastest (omega = 1), resolved
    plans = [_plan(design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                                direction=direction, delta=delta))
             for axis, direction, turns, k in members]
    assert {plan.key for plan in plans} == {(delta, "x period", omega)}
    _check_quarter_block(_Drives(plans), "x period")


# exponent shapes the squaring pass gathers: 0, 1, all bits set (2^b - 1),
# one bit (2^b) and the designed 25 * 2^s
_EXPONENTS = sorted({0, 1} | {n for b in range(1, 20) for n in (2 ** b - 1, 2 ** b)}
                    | {25 * 2 ** s for s in range(12)})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_EXPONENTS), min_size=1, max_size=12)
       .filter(any).flatmap(st.permutations), st.integers(0, 2 ** 32 - 1))
def test_powers_by_the_plan_a_stack_holds(ns, seed):
    """A rotating stack of durations n * delta raises each block to its
    own n by the plan the stack holds: np.linalg.matrix_power (b (b b)
    for n = 3) per row, and each row as it is alone."""
    from conftest import random_unitary
    rng = np.random.default_rng(seed)
    pulse = design_pulse(1, TWO_PI / 4.0, "x")
    eos = [pulse.replace(tau=n * pulse.delta) for n in ns]
    d = _Drives([_plan(eo) for eo in eos])
    assert d.schedule[0].tolist() == ns
    base = np.stack([random_unitary(rng) for _ in ns])
    stacked = _powers(base, d.powers)
    for i, (eo, n) in enumerate(zip(eos, ns)):
        want = np.linalg.matrix_power(base[i], n)
        if n == 3:   # which matrix_power multiplies as (b b) b
            want = base[i] @ (base[i] @ base[i])
        assert np.array_equal(stacked[i], want), n
        if n:   # a stack of one needs an n >= 1
            alone = _powers(base[i:i + 1], _Drives((_plan(eo),)).powers)
            assert np.array_equal(alone[0], want), n


# how a designed static pulse is changed: not at all (quarter fold); its
# drive turned by a phase, or spin 1 at delta 0.02 (P = 50): a whole
# period; or cut under two periods: every substep
_STATIC_VARIANTS = {
    "designed": lambda eo: eo,
    "phase": lambda eo: eo.replace(phi_x=eo.phi_x + 0.3, phi_y=eo.phi_y + 0.3),
    "coarse": lambda eo: eo.replace(delta=0.02),
    "short": lambda eo: eo.replace(tau=1.25 / eo.omega),
}

static_pulses = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from(["x", "y"]), st.sampled_from([1, -1]),
    st.sampled_from([0.25, 0.5, 0.75]), st.integers(1, 32),
    st.sampled_from([0.0, 0.0, 0.0, -0.1, 0.1037, 0.5]),  # tails, remainders
    st.sampled_from(["designed"] * 3 + sorted(set(_STATIC_VARIANTS) - {"designed"})))


@settings(max_examples=15, deadline=None)
@given(st.lists(static_pulses, min_size=1, max_size=30).flatmap(st.permutations))
@example([(2, "x", 1, 0.5, k, 0.0, "designed") for k in range(1, 12)])  # split by the cap
@example([(1, "y", 1, 0.5, k, 0.1037, v) for k in (1, 2, 3)  # one stack per fold
          for v in ("phase", "coarse", "short")])
def test_stacked_static_kernel(pulses):
    """Static pulses, shuffled and mixed in one cold walk, are integrated by
    class (``_z_class``) in stacks of one step size, fold and drive
    frequency, split so that no block holds more than _BLOCK substeps;
    each equals its class integrated alone at its own fold, conjugated."""
    eos = []
    for spin, axis, direction, turns, k, offset, variant in pulses:
        eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                          direction=direction)
        eo = _STATIC_VARIANTS[variant](eo)
        eos.append(eo.replace(tau=eo.tau + offset))
    blocks, stacks = [], []
    kernel = nmrqc.integrator._stepped_propagator

    def block(d, mids, dt):
        blocks.append(mids.size)
        return _product_formula_block(d, mids, dt)

    def counting(d, _block):
        stacks.append(len(d.eos))
        return kernel(d, block)

    clear_propagator_cache()
    with mock.patch.object(nmrqc.integrator, "_stepped_propagator", counting):
        program_unitaries([Program("p", tuple(eos))])
    classes = {_z_class(eo)[0] for eo in eos}
    assert sum(stacks) == len(classes)                # each class integrated once
    assert max(blocks) <= _BLOCK
    for eo in eos:
        u = eo_propagator(eo)
        alone = stacked((eo,), block)[0]   # the stack's own kernel
        assert np.array_equal(u, alone)    # whatever shares its stack
