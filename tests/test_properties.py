"""Property-based tests: spec serialization, the batched harness, table
JSON against json.dumps, the folded pulse propagators (static pulses
folded by quarter periods among them) and the stacked rotating and
static kernels."""
import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmrqc import (ExperimentSpec, MachineConfig, design_pulse, eo_propagator,
                   run_experiment)
import nmrqc.integrator
from nmrqc.harness import ResultTable, _offset_label
from nmrqc.integrator import (_BLOCK, _conjugated, _Drives, _fold,
                              _product_formula_block, _stepped_propagator,
                              _z_class, clear_propagator_cache)
from nmrqc.operators import TWO_PI
from nmrqc.programs import INPUT_SPECS, STYLES, Program, program_unitaries

from conftest import (BLOCKS, PROPAGATORS, chained_reference, json_reference,
                      per_row_reference)

# list entries whose row or column labels differ, as ExperimentSpec requires
_offsets = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4,
                    unique_by=_offset_label)


def _spec(kind, tau_offsets, **fields):
    """A spec; a duration study (tau_offsets set) is defined for QA suites only."""
    return ExperimentSpec(kind=kind, tau_offsets=tau_offsets if kind == "qa" else None,
                          **fields)


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
    perturb_label=st.sampled_from(["Ip", "Y2"]),
    machine=st.sampled_from([MachineConfig(), MachineConfig(h1z=2.0, h2z=0.5)]),
    title=st.text(max_size=20),
)


@settings(max_examples=60, deadline=None)
@given(specs)
def test_spec_dict_and_json_round_trip(spec):
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    assert ExperimentSpec.from_json(json.dumps(spec.to_dict())) == spec


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


# Table text: quotes, backslashes, control characters, non-ASCII text
# (one character outside the BMP) and any other character.
_texts = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f,é☃\U0001d11e') | st.characters(),
                 max_size=6)
# Column labels whose string order is not their numeric order.
_labels = st.sampled_from(["8", "16", "128", "+0.05", "-0.1", "ideal"]) | _texts
_numbers = (st.floats() | st.integers()
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
        cells={(r, c): draw(values) for r in rows for c in cols},
        notes=draw(st.lists(_texts, max_size=3)))


@settings(max_examples=100, deadline=None)
@given(result_tables())
@example(ResultTable(
    title='a "quoted" \\ title\x01', row_header="Operation",
    row_labels=["(CNOT1)^5|00>", "Ψ", "no ideal"],
    col_labels=["8", "16", "128", "+0.05", "-0.1"],
    ideal={"(CNOT1)^5|00>": (1, -0.0), "Ψ": (float("nan"), float("inf"))},
    cells={(r, c): (5e-324, -float("inf")) if c == "16" else (0.1, 1.5e308)
           for r in ["(CNOT1)^5|00>", "Ψ", "no ideal"]
           for c in ["8", "16", "128", "+0.05", "-0.1"]},
    notes=["ü\n"]))
@example(ResultTable(title="", row_header="", row_labels=[], col_labels=[]))
@example(ResultTable(title="", row_header="", row_labels=["r"], col_labels=[]))
def test_table_json_is_json_dumps_byte_for_byte(table):
    assert table.to_json() == json_reference(table)


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
    stack = _stepped_propagator(_Drives(eos, "rotating"), delta,
                                _product_formula_block)
    for eo, u in zip(eos, stack):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        ref = chained_reference(eo, delta, BLOCKS["product_formula"])
        assert np.max(np.abs(u - ref)) < 1e-11
        alone = _stepped_propagator(_Drives((eo,), "rotating"), delta,
                                    _product_formula_block)
        assert np.array_equal(u, alone[0])   # whatever shares its stack


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

    def counting(d, delta, _block):
        stacks.append(len(d.eos))
        return kernel(d, delta, block)

    clear_propagator_cache()
    with mock.patch.object(nmrqc.integrator, "_stepped_propagator", counting):
        program_unitaries([Program("p", tuple(eos))])
    classes = {_z_class(eo)[0] for eo in eos}
    assert sum(stacks) == len(classes)                # each class integrated once
    assert max(blocks) <= _BLOCK
    for eo in eos:
        u = eo_propagator(eo)
        eo0, q = _z_class(eo)
        alone = _stepped_propagator(_Drives((eo0,), _fold(eo0, eo.delta)),
                                    eo.delta, _product_formula_block)
        assert np.array_equal(u, _conjugated(alone, [q])[0])  # whatever shares its stack
