import re
from dataclasses import asdict, replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqc import (DEFAULT_MACHINE, ConfigurationError, EOParams, ExperimentSpec,
                   MachineConfig, NumericalIntegrityError, Program,
                   build_cnot, build_grover, build_program, build_qa, design_pulse,
                   eo_propagator, grover_sequence, ideal_eo_params, ideal_gate,
                   convergence_report, input_amplitudes, program_unitary, readout,
                   run_program, with_duration_offset)
from nmrqc.integrator import _cached_propagator, clear_propagator_cache
from nmrqc.gates import compose, coupling_pi_duration
from nmrqc.operators import global_phase_distance, state_phase_distance
from nmrqc.programs import (_INPUTS, CNOT_SEQUENCES, G_EXPANSION, IDEAL, INPUT_SPECS,
                            STYLES, _expand, compile_walk, program_states,
                            program_unitaries, run_inputs)
from nmrqc.pulses import check_k


def read_row(amps):
    """(a, b) of one amplitude row."""
    (ab,) = readout(amps[None])
    return ab


def test_ideal_cnot_variants_match_exact_gate():
    cnot = ideal_gate("CNOT")
    mats = []
    for variant in (1, 2, 3):
        u = program_unitary(build_cnot(variant, "ideal"))
        assert global_phase_distance(cnot, u) < 1e-6
        mats.append(u)
    # the coupling stays on during the idealized rotations (parameter
    # sheet contract), contributing ~7e-7 per construction
    assert global_phase_distance(mats[0], mats[1]) < 2e-6
    assert global_phase_distance(mats[1], mats[2]) < 2e-6


def test_cnot_program_shape_rotating():
    p = build_cnot(1, "rotating_sf", k=1)
    assert len(p.steps) == 7
    # reading order of the written sequence = reversed application order
    f = coupling_pi_duration()
    assert tuple(reversed([eo.tau for eo in p.steps])) == pytest.approx(
        (8, 8, 8, 128, 128, f, 128))
    labels = [s.label for s in p.steps]
    assert labels == ["Y2", "Ip", "Y2b", "X2p", "Y1b", "X1p", "Y1"]


def test_cnot_sequences_registry():
    assert CNOT_SEQUENCES[2] == ("Y2", "Ip", "Y2b", "Y1b", "X2p", "X1p", "Y1")
    with pytest.raises(ConfigurationError):
        build_cnot(4, "ideal")


def test_qa1_ideal_truth_table():
    for inp, want in [("00", (0.0, 0.0)), ("10", (1.0, 1.0)),
                      ("01", (0.0, 1.0)), ("11", (1.0, 0.0))]:
        p = build_qa(inp, style="ideal")
        got = read_row(run_program(p))
        assert got == pytest.approx(want, abs=1e-6)
        assert p.ideal_expectations == pytest.approx(want, abs=1e-12)


def test_ideal_unitary_is_memoized_and_read_only():
    a = build_qa("00", 1, "rotating_sf", k=1)
    b = build_qa("11", 1, "static_sf", k=2)
    assert a.ideal_unitary is b.ideal_unitary
    assert not a.ideal_unitary.flags.writeable
    assert build_qa("00", 2).ideal_unitary is not a.ideal_unitary
    names = list(reversed(CNOT_SEQUENCES[1] * 5))
    want = read_row(compose(names) @ input_amplitudes(["11"])[0])
    assert b.ideal_expectations == want
    assert Program("p", (ideal_eo_params("X1"),)).ideal_expectations is None
    # each distinct gate looked up once, folded as compose folds the names
    for variant, names in CNOT_SEQUENCES.items():
        for program, seq in ((build_cnot(variant, "ideal"), names),
                             (build_qa("00", variant), names * 5),
                             (build_qa("singlet", variant), names * 5 + ("Y1",))):
            assert np.array_equal(program.ideal_unitary, compose(reversed(seq)))
    for item in range(4):
        program = build_grover(item, "static_sf", k=2)
        assert np.array_equal(program.ideal_unitary, compose(grover_sequence(item)))


def test_input_states_are_memoized_and_read_only():
    """Every input row is a copy of one read-only constant row."""
    assert not _INPUTS.flags.writeable
    rows = input_amplitudes(INPUT_SPECS)
    assert np.array_equal(rows, _INPUTS)
    rows[0, 0] = 0.0   # writable, so a copy of the read-only constant
    assert np.array_equal(input_amplitudes(["00", "00"]), _INPUTS[[0, 0]])
    assert np.array_equal(input_amplitudes(["10"]), [[0, 1, 0, 0]])
    for bad in ("2", "0 0", ["00"], None):
        with pytest.raises(ConfigurationError, match="input_spec must be one of"):
            input_amplitudes([bad])


def test_qa2_ideal_gives_definite_answer():
    p = build_qa("singlet", style="ideal")
    out = run_program(p)
    assert read_row(out) == pytest.approx((1.0, 1.0), abs=1e-6)
    # final state is |11> up to a global phase (36 EOs' worth of
    # coupling-during-rotation residue stays below 1e-5)
    target = input_amplitudes(["11"])[0]
    assert state_phase_distance(out, target) < 1e-5


def test_five_cnots_equal_one_on_ideal_hardware():
    single = replace(build_cnot(1, "ideal"), input_spec="10")
    five = build_qa("10", style="ideal")
    a = run_program(single)
    b = run_program(five)
    assert state_phase_distance(a, b) < 1e-5


def test_qa_input_validation():
    """The input picks the program (QA1 on a basis state, QA2 on the
    singlet), and an unknown input name is rejected where it is declared,
    by build_qa and a bare Program alike, not when the program runs."""
    assert build_qa("11").name == "QA1[CNOT1,ideal,k=1]"
    assert build_qa("singlet", 3).name == "QA2[CNOT3,ideal,k=1]"
    for bad in ("xx", "02", "QA1", "Singlet", "", None):
        with pytest.raises(ConfigurationError, match="input_spec must be one of"):
            build_qa(bad)
        with pytest.raises(ConfigurationError, match="input_spec must be one of"):
            Program("p", build_qa("00").steps, input_spec=bad)


def test_grover_ideal_answers():
    want = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)}
    for item in range(4):
        p = build_grover(item, "ideal")
        got = read_row(run_program(p))
        assert got == pytest.approx(want[item], abs=1e-6), item
    # item 3 lands on |11> up to a global phase
    out = run_program(build_grover(3, "ideal"))
    assert state_phase_distance(out, input_amplitudes(["11"])[0]) < 1e-6


def test_grover_sequence_listing():
    seq = grover_sequence(0)
    assert len(seq) == 16 and seq.count("G") == 2
    with pytest.raises(ConfigurationError):
        build_grover(4)


def test_grover_sf_expands_conditional_phase():
    p = build_grover(0, "rotating_sf", k=1)
    labels = [s.label for s in p.steps]
    assert labels.count("Gcore") == 2
    assert labels.count("X1pp") == 2 and labels.count("X2pp") == 2
    # ideal style realizes G as one EO
    p_ideal = build_grover(0, "ideal")
    assert [s.label for s in p_ideal.steps].count("G") == 2


def test_program_unitary_identity_for_empty():
    empty = Program(name="empty", steps=(), input_spec="00")
    assert np.allclose(program_unitary(empty), np.eye(4))


@pytest.mark.parametrize("style", STYLES)
def test_every_program_step_is_an_eo(style):
    """Builders give programs of EOs only, the conditional phase gate
    and the exact final rotation included."""
    programs = [build_cnot(v, style) for v in CNOT_SEQUENCES]
    programs += [build_qa("00", v, style) for v in CNOT_SEQUENCES]
    programs += [build_qa("singlet", v, style, final_rotation_style=f)
                 for v in CNOT_SEQUENCES for f in ("program", "exact")]
    programs += [build_grover(item, style) for item in range(4)]
    programs.append(build_program(["G"], style))
    for p in programs:
        assert p.steps and all(type(s) is EOParams for s in p.steps), p.name


def _stepwise(program, amps=None):
    """Reference: carry the input state (or the given amplitudes, e.g. the
    identity for the unitary) across each step's propagator in turn."""
    if amps is None:
        (amps,) = input_amplitudes([program.input_spec])
    for step in program.steps:
        amps = eo_propagator(step) @ amps
    return amps


def _at_delta(program, delta):
    """The program with every EO at the step size `delta`, or as it is
    for None."""
    if delta is None:
        return program
    return replace(program, steps=tuple(s.replace(delta=delta)
                                        for s in program.steps))


_PROGRAMS = {
    "qa1": lambda style: build_qa("10", 1, style, k=1),
    "qa2_program": lambda style: build_qa("singlet", 2, style, k=1),
    "qa2_exact": lambda style: build_qa("singlet", 3, style, k=1,
                                        final_rotation_style="exact"),
    "grover": lambda style: build_grover(1, style, k=1),
}


@pytest.mark.parametrize("delta, cold", [(None, False), (0.02, False), (None, True)],
                         ids=["own_delta", "delta_0.02", "cold_cache"])
@pytest.mark.parametrize("program", sorted(_PROGRAMS))
@pytest.mark.parametrize("style", STYLES)
def test_run_program_matches_stepwise_reference(style, program, delta, cold):
    """run_program equals the steps applied one by one, with every EO at
    its own step size or, rebuilt by eo.replace, at another.  From a cold
    cache, where the walk integrates its pulses in stacks and the
    reference one at a time, the program's unitary is the product of the
    steps' bit for bit."""
    p = _at_delta(_PROGRAMS[program](style), delta)
    if not cold:
        got = run_program(p)
        assert np.max(np.abs(got - _stepwise(p))) < 1e-12
        return
    clear_propagator_cache()
    want = _stepwise(p, amps=np.eye(4, dtype=complex))
    clear_propagator_cache()
    assert np.array_equal(program_unitary(p), want)


@pytest.mark.parametrize("style", STYLES)
def test_run_inputs_equals_run_program_per_input(style):
    for inputs in (("00", "10", "01", "11"), ("singlet",)):
        program = build_qa(inputs[0], 2, style, k=1)
        want = [read_row(run_program(replace(program, input_spec=s)))
                for s in inputs]
        assert run_inputs(program, inputs) == want
        out = run_program(program)
        assert out.shape == (4,) and not out.flags.writeable


def _lookups():
    info = _cached_propagator.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_one_propagator_lookup_per_eo_step(program, monkeypatch):
    """Every walk, from a unitary or from input rows, looks each distinct
    EO step up once in the store, and through the programs module's
    eo_propagator (the name the benchmark traces), however often the
    program repeats it and however many inputs or programs share it."""
    import nmrqc.programs
    looked_up = []
    lookup = nmrqc.programs.eo_propagator
    monkeypatch.setattr(nmrqc.programs, "eo_propagator",
                        lambda eo: looked_up.append(eo) or lookup(eo))
    p = _PROGRAMS[program]("rotating_sf")
    distinct = len(set(p.steps))
    assert distinct < len(p.steps)             # five CNOTs repeat their steps
    copy = Program(name="copy",                # equal EOs, distinct objects
                   steps=tuple(s.replace() for s in p.steps))
    walks = (lambda: program_unitary(p),
             lambda: run_inputs(p, INPUT_SPECS),
             lambda: run_program(p),
             lambda: program_unitaries([p, _PROGRAMS[program]("rotating_sf"),
                                        copy, p]),
             lambda: program_states([copy, p, copy, copy],
                                    input_amplitudes(INPUT_SPECS[:4])))
    for walk in walks:
        looked_up.clear()
        before = _lookups()
        walk()
        assert _lookups() - before == len(looked_up) == len(set(looked_up)) == distinct


def _unitary_stack():
    """Steps shared between programs, equal EOs in distinct step objects,
    the ideal G and exact Y1 EOs and a diagonal evolution; each a
    separate choice."""
    cnot = build_cnot(1, "rotating_sf", k=1).steps
    static = build_cnot(3, "static_sf", k=1).steps
    return st.sampled_from(
        cnot[:3] + static[3:5]
        + (cnot[0].replace(), static[3].replace(),
           ideal_eo_params("G"), ideal_eo_params("Y1").replace(j=0.0),
           cnot[1].replace(label="diagonal", tau=3.25)))


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.lists(_unitary_stack(), max_size=9), max_size=5),
       delta=st.sampled_from([None, 0.02]), cold=st.booleans(),
       rows=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(INPUT_SPECS)),
                     max_size=8))
def test_program_unitaries_equal_the_sequential_walk(steps, delta, cold, rows):
    """Bit for bit, the unitaries and the input rows carried through the
    walk; from a cold cache, the reference integrates each step alone and
    the walk in stacks."""
    programs = [_at_delta(Program(name=f"p{i}", steps=tuple(s)), delta)
                for i, s in enumerate(steps)]
    rows = [(i, spec) for i, spec in rows if i < len(programs)]
    which = [i for i, _ in rows]
    states = input_amplitudes([spec for _, spec in rows])
    if cold:
        clear_propagator_cache()
    want = [_stepwise(p, amps=np.eye(4, dtype=complex)) for p in programs]
    want_rows = [_stepwise(programs[i], amps=s) for i, s in zip(which, states)]
    if cold:
        clear_propagator_cache()
    us = program_unitaries(programs)
    assert us.shape == (len(programs), 4, 4)
    for u, w in zip(us, want):
        assert np.array_equal(u, w)
    if cold:
        clear_propagator_cache()
    got = program_states([programs[i] for i in which], states)
    assert got.shape == (len(rows), 4)
    for g, w in zip(got, want_rows):
        assert np.array_equal(g, w)
    assert readout(got) == [read_row(w) for w in want_rows]


def test_readout_rejects_an_unnormalized_row():
    amps = input_amplitudes(["10", "singlet"]) @ ideal_gate("CNOT").T
    assert readout(amps) == [read_row(a) for a in amps]
    for scale in (1.5, 1.0 + 1e-6, np.nan):
        bad = amps.copy()
        bad[1] *= scale
        with pytest.raises(NumericalIntegrityError, match="deviates from 1"):
            readout(bad)
    # the first bad row's norm as a plain float, not np.float64(nan)
    for scale, norm in ((1.5, "1.5"), (np.nan, "nan")):
        with pytest.raises(NumericalIntegrityError,
                           match=f"^state norm {re.escape(norm)} deviates from 1$"):
            readout(amps * scale)
    assert readout(amps[:0]) == []


@pytest.mark.parametrize("shape", [(4,), (), (2, 3), (2, 4, 1), (1, 4, 4)])
def test_readout_refuses_any_shape_but_rows_of_four(shape):
    """A lone (4,) row raised IndexError; every shape but (R, 4) is
    refused in one line, as program_states refuses its input rows."""
    amps = np.zeros(shape, dtype=complex)
    with pytest.raises(ConfigurationError, match=re.escape(f"shape {shape}: need (R, 4)")):
        readout(amps)
    with pytest.raises(ConfigurationError, match="need"):
        readout(input_amplitudes(["00"])[0])


@pytest.mark.parametrize("deltas", ["0.01", 0.01, None, {0.01}, np.array([0.01])])
def test_convergence_report_refuses_deltas_that_are_no_list(deltas):
    """A string was read as the step sizes '0', '.', ... ("delta ... got
    '0'"); deltas must be a list or a tuple, as the gates of a list must."""
    with pytest.raises(ConfigurationError, match="^deltas must be a list, got "):
        convergence_report(ideal_eo_params("Ip"), "00", deltas)


def test_duration_offset_copies_each_distinct_step_once():
    p = build_qa("00", 1, "rotating_sf", k=1)
    q = with_duration_offset(p, "Ip", 0.1)
    ip = [s for s in q.steps if s.label == "Ip"]
    assert len(ip) == 5 and len({id(s) for s in ip}) == 1
    assert [s for s in q.steps if s.label != "Ip"] == \
        [s for s in p.steps if s.label != "Ip"]


def test_shifted_steps_are_memoized_across_rebuilds():
    """A program rebuilt and shifted again gets the same shifted step
    objects, and the same unitary as a fresh shift."""
    shifted = [with_duration_offset(build_qa("00", 1, "rotating_sf", k=1),
                                    "Ip", 0.1) for _ in range(2)]
    first, again = ([s for s in q.steps if s.label == "Ip"][0] for q in shifted)
    assert first is again
    p = build_qa("00", 1, "rotating_sf", k=1)
    fresh = Program("fresh", tuple(
        s.replace(tau=s.tau + 0.1) if s.label == "Ip" else s for s in p.steps))
    assert first == [s for s in fresh.steps if s.label == "Ip"][0]
    assert np.array_equal(program_unitary(shifted[1]), program_unitary(fresh))


def test_negative_diagonal_duration_is_rejected():
    """A negative or NaN duration is refused when the EO is made, by
    replace or by a duration offset, every time, so no program holds it
    and nothing is integrated or stored."""
    clear_propagator_cache()
    ip = ideal_eo_params("Ip")
    qa = build_qa("00", 1, "rotating_sf", k=1)
    for tau, match in ((-3.0, "duration must be non-negative"),
                       (float("nan"), "duration is not a finite number")):
        for _ in range(2):  # nothing is cached for a bad EO
            with pytest.raises(ConfigurationError, match=f"^EO 'Ip': {match}, got "):
                ip.replace(tau=tau)
    for _ in range(2):
        with pytest.raises(ConfigurationError,
                           match="^EO 'Ip': duration must be non-negative, got "):
            with_duration_offset(qa, "Ip", -1e12)
    assert not _cached_propagator and _cached_propagator.cache_info().misses == 0
    assert run_program(Program("p", (ip.replace(tau=0.0),)))[0] == 1.0


@pytest.mark.parametrize("call", [lambda: input_amplitudes("00"),
                                  lambda: run_inputs(build_qa("00"), "singlet")],
                         ids=["input_amplitudes", "run_inputs"])
def test_a_bare_input_name_is_no_list_of_names(call):
    """A string was read as the names '0', '0' or 's', 'i', ... ("got 's'");
    the input names are a list, as the gates of a list are."""
    with pytest.raises(ConfigurationError) as err:
        call()
    assert len(str(err.value).splitlines()) == 1
    assert re.fullmatch(r"input_specs must be a list, got '(00|singlet)'", str(err.value))


@pytest.mark.parametrize("walk", [lambda p: program_states(p, input_amplitudes(["00"])),
                                  program_unitaries, compile_walk],
                         ids=["program_states", "program_unitaries", "compile_walk"])
def test_a_lone_program_is_no_walk(walk):
    """A lone Program raised TypeError ("not iterable"); a walk takes a
    list of programs and refuses one alone in one line."""
    with pytest.raises(ConfigurationError) as err:
        walk(build_qa("00"))
    assert str(err.value) == "programs must be a list, got one Program"


def test_program_unitary_long_pulse_close_to_ideal():
    u = program_unitary(build_cnot(1, "rotating_sf", k=32))
    assert global_phase_distance(ideal_gate("CNOT"), u) < 0.05


def test_qpp_witness_at_shortest_pulses():
    # logically identical constructions give visibly different answers
    got1 = read_row(run_program(build_qa("00", 1, "rotating_sf", k=1)))
    got2 = read_row(run_program(build_qa("00", 2, "rotating_sf", k=1)))
    got3 = read_row(run_program(build_qa("00", 3, "rotating_sf", k=1)))
    assert max(abs(got2[0] - got1[0]), abs(got2[1] - got1[1])) > 0.1
    assert max(abs(got3[0] - got1[0]), abs(got3[1] - got1[1])) > 0.1


def test_basis_correct_but_superposition_wrong():
    # the first construction at the shortest pulses: every basis input
    # answers correctly to 0.01, yet the singlet input deviates
    for inp, want in [("00", (0.0, 0.0)), ("10", (1.0, 1.0)),
                      ("01", (0.0, 1.0)), ("11", (1.0, 0.0))]:
        got = read_row(run_program(build_qa(inp, 1, "rotating_sf", k=1)))
        assert got == pytest.approx(want, abs=0.01)
    singlet = read_row(run_program(build_qa("singlet", 1,
                                            "rotating_sf", k=1)))
    assert singlet[0] == pytest.approx(0.90, abs=0.01)
    assert abs(singlet[0] - 1.0) > 0.05


def test_final_rotation_style_switch():
    exact = build_qa("singlet", 1, "rotating_sf", k=1,
                     final_rotation_style="exact")
    # the ideal Y1 EO without coupling is the exact gate to rounding
    assert exact.steps[-1] == ideal_eo_params("Y1").replace(j=0.0)
    assert np.max(np.abs(eo_propagator(exact.steps[-1])
                         - ideal_gate("Y1"))) < 1e-15
    pulse = build_qa("singlet", 1, "rotating_sf", k=1)
    assert pulse.steps[-1].label == "Y1" and pulse.steps[-1].is_rotating
    # rotating pulses turn the target exactly; both stylings agree closely
    a = read_row(run_program(exact))
    b = read_row(run_program(pulse))
    assert a == pytest.approx(b, abs=5e-3)


def test_duration_offset_applies_to_every_labeled_eo():
    p = build_qa("00", 1, "rotating_sf", k=1)
    q = with_duration_offset(p, "Ip", 0.1)
    offsets = [s.tau for s in q.steps if s.label == "Ip"]
    assert len(offsets) == 5
    f = coupling_pi_duration()
    assert all(t == pytest.approx(f + 0.1, abs=1e-9) for t in offsets)
    with pytest.raises(ConfigurationError):
        with_duration_offset(p, "nope", 0.1)
    # no finite number is no offset: True used to shift by 1, and NaN was
    # refused only when the shifted program was integrated
    for bad in (True, "0.1", float("nan"), float("inf"), None):
        with pytest.raises(ConfigurationError, match="duration offset"):
            with_duration_offset(p, "Ip", bad)


@pytest.mark.parametrize("call", [
    lambda: run_inputs(build_qa("00", style="rotating_sf", delta=0.9), ["00", "10"]),
    lambda: build_cnot(1, "ideal", delta=-0.01),
    lambda: build_grover(0, "static_sf", delta=True),
    lambda: build_program(["X1"], "rotating_sf", delta=2.0),
    lambda: build_program(["X1"], delta=float("nan")),
    lambda: design_pulse(1, np.pi / 2, "x", delta=float("nan")),
    lambda: design_pulse(1, np.pi / 2, "x", delta=0.51),
])
def test_the_library_refuses_the_step_sizes_the_spec_refuses(call):
    """delta must be a positive finite number that resolves the drive
    (delta * max |z-field| <= 1/2), in every builder and design_pulse:
    rotating QA1 at delta 0.9 used to print (0.02,
    0.51) for |00> and (0.98, 0.47) for |10>, without an error."""
    with pytest.raises(ConfigurationError, match="delta"):
        call()


@pytest.mark.parametrize("call", [
    lambda: ExperimentSpec(machine={"h1z": 1.0}),
    lambda: ExperimentSpec(machine=None),
    lambda: build_qa("00", machine=None),
    lambda: build_cnot(1, "rotating_sf", machine=asdict(DEFAULT_MACHINE)),
    lambda: build_grover(0, machine=None),
    lambda: design_pulse(1, 1.0, "x", machine=None),
    lambda: build_program(["X1"], machine=None),
])
def test_the_library_refuses_a_machine_the_spec_refuses(call):
    """A machine must be a MachineConfig, in the spec, every builder and
    design_pulse: these raised AttributeError, and a spec with
    machine=None failed only when it ran."""
    with pytest.raises(ConfigurationError, match="machine must be a MachineConfig"):
        call()


_HUGE = 10 ** 5000   # more digits than Python turns into text (4300)


@pytest.mark.parametrize("call, name", [
    (lambda: check_k(-_HUGE), "k must"),
    (lambda: build_cnot(1, "rotating_sf", k=-_HUGE), "k must"),
    (lambda: build_cnot(_HUGE, "ideal"), "cnot_variant"),
    (lambda: ExperimentSpec(k_list=(-_HUGE,)), "k_list"),
    (lambda: build_program(["X1"], k=_HUGE), "k is"),
    (lambda: build_qa("00", k=_HUGE), "k is"),
    (lambda: ExperimentSpec(kind="grover", items=(_HUGE,)), "items"),
    (lambda: build_grover(_HUGE), "item"),
    (lambda: build_qa(_HUGE), "input_spec"),
    (lambda: build_program(_HUGE), "gates"),
    (lambda: build_program([_HUGE]), "gate"),
    (lambda: build_program(["X1"], delta=_HUGE), "delta"),
    (lambda: MachineConfig(h2z=-_HUGE), "machine h2z"),
    (lambda: design_pulse(1, _HUGE, "x"), "angle"),
    (lambda: with_duration_offset(build_qa("00"), "Ip", _HUGE), "duration offset"),
])
def test_the_library_names_a_huge_integer_without_its_digits(call, name):
    """Each raised Python's ValueError "Exceeds the limit (4300 digits)
    for integer string conversion" while writing its message (the ideal
    style while naming the program by its k); now one ConfigurationError
    line names the parameter, and not the integer's digits.  No command
    line reaches these: argparse and the spec reader refuse such an
    integer first."""
    with pytest.raises(ConfigurationError, match=name) as info:
        call()
    message = str(info.value)
    assert "an integer too long to print" in message
    assert "\n" not in message and "0000" not in message


@pytest.mark.parametrize("style", [s for s in STYLES if s != IDEAL])
def test_a_pulse_style_refuses_the_equal_field_evolution(style):
    """I failed inside gates.gate_rotation ("'I' is not a single-spin
    rotation gate"); now the builder refuses it, before any gate is
    expanded, and says why.  The ideal style realizes it."""
    expanded = _expand.cache_info()
    with pytest.raises(ConfigurationError) as info:
        build_program(["X1", "I"], style, k=3)
    assert str(info.value) == (
        f"gate I has no {style} realization: the equal-field evolution has none on "
        "spins of different static fields; pulse styles run Ip, at the machine's fields")
    assert _expand.cache_info() == expanded
    assert build_program(["I"]).steps == (ideal_eo_params("I"),)


_TWO = [build_qa("00"), build_qa("singlet")]
_ROWS = input_amplitudes(["00", "10"])


@pytest.mark.parametrize("programs, rows", [
    ([_TWO[0]], _ROWS), (_TWO, _ROWS[:1]), ([_TWO[0]] * 3, np.ones((4, 3))),
    ([_TWO[0], 0], _ROWS),                                  # no program
])
def test_program_states_refuses_a_bad_walk(programs, rows):
    """One input row of 4 amplitudes per program, and every entry a
    Program: one program used to carry two rows by broadcasting, and
    four rows of 3 were read as three rows of 4."""
    with pytest.raises(ConfigurationError, match="walk"):
        program_states(programs, rows)


def test_program_states_takes_the_empty_walk():
    assert program_states([], np.empty((0, 4))).shape == (0, 4)


def test_build_program_runs_a_gate_list():
    """CNOT1's gate list on |10> flips qubit 2, and its program is the
    builder's, step for step."""
    p = build_program(CNOT_SEQUENCES[1], input_spec="10")
    assert p.name == "custom[ideal,k=1]" and p.input_spec == "10"
    assert read_row(run_program(p)) == pytest.approx((1.0, 1.0), abs=1e-5)
    assert p.steps == build_cnot(1, "ideal").steps
    assert p.ideal_unitary is build_cnot(1, "ideal").ideal_unitary


@pytest.mark.parametrize("gates", [
    "X1",                 # a bare string is no list
    [], (),               # nothing to run
    [1], ["X1", None],    # no name
    [["X1"]],             # a list is no name
    ["Z1"], ["Gcore"],    # no gate of the library
    ["CNOT"],             # a gate with no EO
    None, {"X1": 1},
])
def test_build_program_refuses_a_malformed_gate_list(gates):
    """Each raised TypeError or AttributeError from deep inside the
    builder (the empty list from the ideal product), or built a program
    of the characters of a string; now one line names what is wrong."""
    with pytest.raises(ConfigurationError, match="gate") as info:
        build_program(gates)
    assert "\n" not in str(info.value)


def test_build_program_checks_its_settings_first():
    """Style, k, machine and delta are checked as the builders check
    them, before the list; a k whose pulses are too long still names the
    pulse duration, not the digits of k."""
    for call, match in [(lambda: build_program(["X1"], "pulsed"), "style"),
                        (lambda: build_program(["X1"], k=0), "k must be"),
                        (lambda: build_program([], machine=None), "machine"),
                        (lambda: build_program([], delta=0), "delta"),
                        (lambda: build_program(["X1"], input_spec="2"), "input_spec"),
                        (lambda: build_program(["X1"], "rotating_sf", 10 ** 5000),
                         "pulse duration")]:
        with pytest.raises(ConfigurationError, match=match):
            call()


def test_program_refuses_a_step_that_is_no_eo():
    """A step that is no EO used to fail deep in the walk
    (AttributeError: 'int' object has no attribute 'delta'); now the
    Program names it, and keeps its steps as a tuple."""
    for steps in ((1, 2), [ideal_eo_params("X1"), "Y1"], "ab"):
        with pytest.raises(ConfigurationError, match="is no EOParams"):
            Program("p", steps)
    eos = [ideal_eo_params("X1"), design_pulse(1, np.pi / 2, "y")]
    p = Program("p", eos)
    assert type(p.steps) is tuple and p.steps == tuple(eos)
    assert p == Program("p", tuple(eos)) and hash(p) == hash(Program("p", tuple(eos)))


@pytest.mark.parametrize("style", STYLES)
def test_build_program_gate_expands_per_style(style):
    """`G` is the conditional phase gate as the builders realize it: its
    exact matrix in ideal style, G_EXPANSION in the pulse styles."""
    p = build_program(["G"], style)
    if style == "ideal":
        assert np.array_equal(program_unitary(p), ideal_gate("G"))
        return
    expansion = build_program(G_EXPANSION[1:], style)
    assert [s.label for s in p.steps] == list(G_EXPANSION)
    assert p.steps[1:] == expansion.steps
    assert p.steps == build_grover(0, style).steps[6:13]


def test_a_designed_pulse_is_a_step_of_its_own():
    """A hand-made EO goes into a Program as it is: the pulse of
    design_pulse runs as one step, the EO of the gate it realizes but
    for its label."""
    eo = design_pulse(1, np.pi / 2, "y", k=1, mode="rotating")
    p = Program("pulse", (eo,))
    (step,) = p.steps
    assert step is eo and eo.tau == 8 and eo.sf1x == pytest.approx(0.03125)
    assert step.replace(label="Y1") == build_program(["Y1"], "rotating_sf").steps[0]


def _interleavings(a, b):
    """Every merge of the sequences a and b that keeps each one's order."""
    n = len(a) + len(b)
    for spots in combinations(range(n), len(b)):
        ia, ib = iter(a), iter(b)
        yield tuple(next(ib) if i in spots else next(ia) for i in range(n))


def test_the_commutation_class_of_cnot_is_one_unitary():
    """After Y2 and Ip, ideal gates on different spins commute: each of
    the 10 interleavings of (Y1b, X1p, Y1) with (Y2b, X2p), and of the 10
    of (X1, Y1p, X1b) with (Y2b, X2p), is CNOT1's ideal unitary up to a
    global phase, and CNOT1, CNOT2 and CNOT3 are three of them."""
    lists = [("Y2", "Ip") + order for spin1 in (("Y1b", "X1p", "Y1"), ("X1", "Y1p", "X1b"))
             for order in _interleavings(spin1, ("Y2b", "X2p"))]
    assert len(set(lists)) == 20
    assert set(CNOT_SEQUENCES.values()) <= set(lists)
    want = build_cnot(1, "ideal").ideal_unitary
    for gates in lists:
        assert global_phase_distance(build_program(gates).ideal_unitary, want) < 1e-12


def _closed_form_rotating_pulse(name, k):
    """Independent oracle: the rotating-field pulse solved exactly.

    In the frame rotating at the drive frequency the Hamiltonian is
    constant, so the pulse factorizes into an exact target rotation and
    an exact spectator rotation about (transverse share, detuning); the
    frame-return factor is the identity because every pulse spans whole
    periods of the drive.  (Coupling during the pulse is neglected,
    which is separately shown to be invisible at two digits.)
    """
    from nmrqc.gates import gate_rotation
    from nmrqc.operators import TWO_PI, exp_i_dot_s, embed, rotation
    machine_h = {"h1z": 1.0, "h2z": 0.25, "gamma": 0.25}
    spin, axis, direction, turns = gate_rotation(name)
    t = TWO_PI * (8 * k if spin == 1 else 128 * k)
    theta = direction * TWO_PI * turns
    target = rotation(axis, theta)
    if spin == 1:
        c_spec = machine_h["gamma"] * theta / t
        detuning = machine_h["h2z"] - machine_h["h1z"]
    else:
        c_spec = (theta / t) / machine_h["gamma"]
        detuning = machine_h["h1z"] - machine_h["h2z"]
    spec = exp_i_dot_s(t * c_spec if axis == "x" else 0.0,
                       t * c_spec if axis == "y" else 0.0,
                       t * detuning)
    other = 2 if spin == 1 else 1
    return embed(spin, target) @ embed(other, spec)


def test_pulse_programs_agree_with_closed_form_oracle():
    # third route to the headline numbers: exact rotating-frame algebra
    # (no numerical integration anywhere) reproduces the integrated
    # five-fold CNOT results to the integrator's own step error
    from nmrqc.gates import ideal_gate

    for variant, inp in ((1, "singlet"), (2, "00"), (3, "00")):
        mats = {}
        for name in set(CNOT_SEQUENCES[variant]) - {"Ip"}:
            mats[name] = _closed_form_rotating_pulse(name, k=1)
        mats["Ip"] = ideal_gate("Ip")
        (amps,) = input_amplitudes([inp])
        for _ in range(5):
            for name in CNOT_SEQUENCES[variant]:
                amps = mats[name] @ amps
        if inp == "singlet":
            amps = _closed_form_rotating_pulse("Y1", 1) @ amps
        a = abs(amps[1]) ** 2 + abs(amps[3]) ** 2
        b = abs(amps[2]) ** 2 + abs(amps[3]) ** 2

        integrated = read_row(run_program(
            build_qa(inp, cnot_variant=variant, style="rotating_sf", k=1)))
        assert integrated[0] == pytest.approx(a, abs=0.01)
        assert integrated[1] == pytest.approx(b, abs=0.01)


def test_a_first_build_checks_nothing_twice(monkeypatch):
    """A builder checks its gate list, machine, style, k and step size
    once; realizing the gates (``_gate_step``) and composing their ideal
    unitary call none of the gate layer's or the pulse designer's checks
    again, even with every memo of a build empty."""
    import nmrqc.gates
    import nmrqc.pulses
    from nmrqc.gates import _ideal_gate
    from nmrqc.programs import _gate_step, _ideal_unitary
    checked = []

    def recorded(name):
        return lambda value, *args: checked.append(name) or value
    for module, names in ((nmrqc.gates, ("check_gate", "check_machine")),
                          (nmrqc.pulses, ("check_k", "check_machine", "check_delta",
                                          "parse_axis", "check_choice"))):
        for name in names:
            monkeypatch.setattr(module, name, recorded(f"{module.__name__}.{name}"))
    for memo in (_gate_step, _expand, _ideal_unitary, _ideal_gate):
        memo.cache_clear()
    for style in STYLES:
        for variant in CNOT_SEQUENCES:
            build_qa("singlet", variant, style, final_rotation_style="exact")
        for item in range(4):
            build_grover(item, style, k=2)
    assert checked == []
    ideal_gate("X1")   # the public functions do check
    assert checked == ["nmrqc.gates.check_gate", "nmrqc.gates.check_machine"]
