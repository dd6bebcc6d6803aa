"""Property-based tests: spec serialization, the batched harness, the
folded pulse propagators (static pulses folded by quarter periods among
them) and the stacked rotating and static kernels."""
import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmrqc import (ExperimentSpec, IntegratorConfig, MachineConfig, design_pulse,
                   eo_propagator, run_experiment)
import nmrqc.integrator
from nmrqc.integrator import (_STACK_SUBSTEPS, _Drives, _product_formula_block,
                              _stepped_propagator, clear_propagator_cache, expect)
from nmrqc.operators import TWO_PI
from nmrqc.programs import INPUT_SPECS, STYLES

from conftest import BLOCKS, chained_reference, per_row_reference

_offsets = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4)

specs = st.builds(
    ExperimentSpec,
    kind=st.sampled_from(["qa", "grover"]),
    style=st.sampled_from(STYLES),
    cnot_variant=st.sampled_from([1, 2, 3]),
    inputs=st.lists(st.sampled_from(INPUT_SPECS), min_size=1, max_size=6),
    items=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    k_list=st.lists(st.integers(1, 64), min_size=1, max_size=5),
    delta=st.floats(1e-4, 0.25),
    final_rotation_style=st.sampled_from(["program", "exact"]),
    tau_offsets=st.none() | _offsets,
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
@given(inputs=st.lists(st.sampled_from(INPUT_SPECS), min_size=1, max_size=5),
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


@settings(max_examples=16, deadline=None)
@given(spin=st.sampled_from([1, 2]), axis=st.sampled_from(["x", "y"]),
       direction=st.sampled_from([1, -1]), k=st.integers(1, 4),
       turns=st.sampled_from([0.25, 0.5, 0.75]),
       mode=st.sampled_from(["rotating", "static_axis"]),
       offset=st.floats(-0.5, 0.5), t0=st.floats(0.0, 10.0))
def test_folded_pulse_equals_stepped(spin, axis, direction, k, turns, mode,
                                     offset, t0):
    _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode=mode,
                         direction=direction)
    assert eo.is_rotating == (mode == "rotating")
    eo = eo.replace(tau=eo.tau + offset)
    u = eo_propagator(eo, t0=TWO_PI * t0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
    ref = chained_reference(eo, eo.delta, TWO_PI * t0, BLOCKS["product_formula"])
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
    _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                         direction=direction)
    eo = eo.replace(tau=eo.tau + offset)
    u = eo_propagator(eo, IntegratorConfig(eo.delta, method))
    ref = chained_reference(eo, eo.delta, 0.0, BLOCKS[method])
    assert np.max(np.abs(u - ref)) < 1e-11


rotating_pulses = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from(["x", "y"]), st.sampled_from([1, -1]),
    st.sampled_from([0.25, 0.5, 0.75]), st.integers(1, 4),
    st.sampled_from([0.0, -0.1, 0.1037]) | st.floats(-0.5, 0.5),  # remainders
    st.floats(0.0, 10.0))


@settings(max_examples=12, deadline=None)
@given(st.lists(rotating_pulses, min_size=1, max_size=5))
def test_stacked_rotating_kernel(pulses):
    eos, t0s = [], []
    for spin, axis, direction, turns, k, offset, t0 in pulses:
        _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, direction=direction)
        eos.append(eo.replace(tau=eo.tau + offset))
        t0s.append(TWO_PI * t0)
    delta = eos[0].delta
    stack = _stepped_propagator(_Drives(eos, t0s, "rotating"), delta,
                                _product_formula_block)
    for eo, t0, u in zip(eos, t0s, stack):
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
        ref = chained_reference(eo, delta, t0, BLOCKS["product_formula"])
        assert np.max(np.abs(u - ref)) < 1e-11
        alone = _stepped_propagator(_Drives((eo,), (t0,), "rotating"), delta,
                                    _product_formula_block)
        assert np.array_equal(u, alone[0])   # whatever shares its stack


static_pulses = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from(["x", "y"]), st.sampled_from([1, -1]),
    st.sampled_from([0.25, 0.5, 0.75]), st.integers(1, 32),
    st.sampled_from([0.0, 0.0, 0.0, -0.1, 0.1037, 0.5]))  # tails, remainders


@settings(max_examples=15, deadline=None)
@given(st.lists(static_pulses, min_size=1, max_size=30).flatmap(st.permutations))
@example([(2, "x", 1, 0.5, k, 0.0) for k in range(1, 8)])  # split by the cap
def test_stacked_static_kernel(pulses):
    """Announced static pulses, shuffled and mixed, are integrated in stacks
    of one drive frequency, split so that no block holds more than
    _STACK_SUBSTEPS substeps; each equals the pulse integrated alone."""
    eos = []
    for spin, axis, direction, turns, k, offset in pulses:
        _, eo = design_pulse(spin, TWO_PI * turns, axis, k=k, mode="static_axis",
                             direction=direction)
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
    expect(eos)
    with mock.patch.object(nmrqc.integrator, "_stepped_propagator", counting):
        us = [eo_propagator(eo) for eo in eos]
    expect()
    assert sum(stacks) == len(set(eos))               # each pulse integrated once
    assert max(blocks) <= _STACK_SUBSTEPS
    for eo, u in zip(eos, us):
        alone = _stepped_propagator(_Drives((eo,), (0.0,), "quarter"), eo.delta,
                                    _product_formula_block)
        assert np.array_equal(u, alone[0])   # whatever shares its stack
