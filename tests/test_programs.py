import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqc import (ConfigurationError, NumericalIntegrityError, Program,
                   build_cnot, build_grover, build_qa, eo_propagator,
                   grover_sequence, ideal_gate, parse_program_text,
                   prepare_basis_state, prepare_input, program_unitary,
                   qubit_values, run_program, with_duration_offset)
from nmrqc.integrator import _cached_propagator, clear_propagator_cache
from nmrqc.gates import compose, coupling_pi_duration
from nmrqc.operators import global_phase_distance, state_phase_distance
from nmrqc.programs import (CNOT_SEQUENCES, INPUT_SPECS, STYLES, EOStep,
                            MatrixStep, input_amplitudes, program_unitaries,
                            readout, run_inputs)
from nmrqc.states import StateVector


def test_ideal_cnot_variants_match_exact_gate():
    cnot = ideal_gate("CNOT").matrix
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
    assert tuple(reversed(p.durations())) == pytest.approx(
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
        p = build_qa("QA1", inp, style="ideal")
        got = qubit_values(run_program(p))
        assert got == pytest.approx(want, abs=1e-6)
        assert p.ideal_expectations == pytest.approx(want, abs=1e-12)


def test_ideal_unitary_is_memoized_and_read_only():
    a = build_qa("QA1", "00", 1, "rotating_sf", k=1)
    b = build_qa("QA1", "11", 1, "static_sf", k=2)
    assert a.ideal_unitary is b.ideal_unitary
    assert not a.ideal_unitary.flags.writeable
    assert build_qa("QA1", "00", 2).ideal_unitary is not a.ideal_unitary
    names = list(reversed(CNOT_SEQUENCES[1] * 5))
    want = qubit_values(StateVector(compose(names) @ prepare_input("11").amplitudes))
    assert b.ideal_expectations == want
    assert parse_program_text("gate X1").ideal_expectations is None


def test_input_states_are_memoized_and_read_only():
    for spec in INPUT_SPECS:
        state = prepare_input(spec)
        assert prepare_input(spec) is state
        assert not state.amplitudes.flags.writeable
    assert np.array_equal(prepare_input("10").amplitudes,
                          prepare_basis_state(2, [1, 0]).amplitudes)
    for bad in ("2", "0 0", ["00"], None):
        for _ in range(2):  # nothing is cached for an unknown spec
            with pytest.raises(ConfigurationError, match="unknown input spec"):
                prepare_input(bad)


def test_qa2_ideal_gives_definite_answer():
    p = build_qa("QA2", "singlet", style="ideal")
    out = run_program(p)
    assert qubit_values(out) == pytest.approx((1.0, 1.0), abs=1e-6)
    # final state is |11> up to a global phase (36 EOs' worth of
    # coupling-during-rotation residue stays below 1e-5)
    target = prepare_basis_state(2, [1, 1]).amplitudes
    assert state_phase_distance(out.amplitudes, target) < 1e-5


def test_five_cnots_equal_one_on_ideal_hardware():
    single = build_cnot(1, "ideal", input_spec="10")
    five = build_qa("QA1", "10", style="ideal")
    a = run_program(single).amplitudes
    b = run_program(five).amplitudes
    assert state_phase_distance(a, b) < 1e-5


def test_qa_input_validation():
    with pytest.raises(ConfigurationError):
        build_qa("QA1", "singlet")
    with pytest.raises(ConfigurationError):
        build_qa("QA2", "00")
    with pytest.raises(ConfigurationError):
        build_qa("QA3", "00")


def test_grover_ideal_answers():
    want = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, 1.0)}
    for item in range(4):
        p = build_grover(item, "ideal")
        got = qubit_values(run_program(p))
        assert got == pytest.approx(want[item], abs=1e-6), item
    # item 3 lands on |11> up to a global phase
    out = run_program(build_grover(3, "ideal"))
    assert state_phase_distance(out.amplitudes,
                                prepare_basis_state(2, [1, 1]).amplitudes) < 1e-6


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
    assert all(isinstance(s, EOStep) for s in p.steps)
    # ideal style keeps the exact conditional-phase matrix
    p_ideal = build_grover(0, "ideal")
    kinds = [type(s) for s in p_ideal.steps]
    assert kinds.count(MatrixStep) == 2


def test_program_unitary_identity_for_empty():
    empty = Program(name="empty", steps=(), input_spec="00")
    assert np.allclose(program_unitary(empty), np.eye(4))


def test_matrix_step_rejects_non_unitary_at_construction():
    with pytest.raises(NumericalIntegrityError):
        MatrixStep("bad", np.eye(4) * 1.5)
    step = MatrixStep("G", ideal_gate("G").matrix)
    with pytest.raises(ValueError):
        step.matrix[0, 0] = 0.0


def _stepwise(program, delta=None, amps=None):
    """Reference: carry the input state (or the given amplitudes, e.g. the
    identity for the unitary) across each step's propagator in turn."""
    if amps is None:
        amps = prepare_input(program.input_spec).amplitudes
    for step in program.steps:
        if isinstance(step, MatrixStep):
            amps = step.matrix @ amps
            continue
        eo = step.eo if delta is None else step.eo.replace(delta=delta)
        amps = eo_propagator(eo) @ amps
    return amps


_PROGRAMS = {
    "qa1": lambda style: build_qa("QA1", "10", 1, style, k=1),
    "qa2_program": lambda style: build_qa("QA2", "singlet", 2, style, k=1),
    "qa2_exact": lambda style: build_qa("QA2", "singlet", 3, style, k=1,
                                        final_rotation_style="exact"),
    "grover": lambda style: build_grover(1, style, k=1),
}


@pytest.mark.parametrize("options", [{}, {"delta": 0.02}, None],
                         ids=["own_delta", "delta_0.02", "cold_cache"])
@pytest.mark.parametrize("program", sorted(_PROGRAMS))
@pytest.mark.parametrize("style", STYLES)
def test_run_program_matches_stepwise_reference(style, program, options):
    """run_program equals the steps applied one by one.  From a cold cache,
    where the walk integrates its pulses in stacks and the reference one
    at a time, the program's unitary is the product of the steps' bit for
    bit."""
    p = _PROGRAMS[program](style)
    if options is not None:
        got = run_program(p, **options).amplitudes
        assert np.max(np.abs(got - _stepwise(p, **options))) < 1e-12
        return
    clear_propagator_cache()
    want = _stepwise(p, amps=np.eye(4, dtype=complex))
    clear_propagator_cache()
    assert np.array_equal(program_unitary(p), want)


@pytest.mark.parametrize("style", STYLES)
def test_run_inputs_equals_run_program_per_input(style):
    for which, inputs in (("QA1", ("00", "10", "01", "11")), ("QA2", ("singlet",))):
        program = build_qa(which, inputs[0], 2, style, k=1)
        want = [qubit_values(run_program(program, prepare_input(s)))
                for s in inputs]
        assert run_inputs(program, inputs) == want


def _lookups():
    info = _cached_propagator.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("program", sorted(_PROGRAMS))
def test_one_propagator_lookup_per_eo_step(program):
    """One cache lookup per distinct EO step, however often the program
    repeats it and however many inputs share the unitary."""
    p = _PROGRAMS[program]("rotating_sf")
    distinct = len(set(p.eos))
    assert distinct < len(p.eos)               # five CNOTs repeat their steps
    before = _lookups()
    program_unitary(p)
    assert _lookups() - before == distinct
    before = _lookups()
    run_inputs(p, INPUT_SPECS)
    assert _lookups() - before == distinct
    copy = Program(name="copy", steps=tuple(
        EOStep(s.eo) if isinstance(s, EOStep) else s for s in p.steps))
    before = _lookups()
    program_unitaries([p, _PROGRAMS[program]("rotating_sf"), copy, p])
    assert _lookups() - before == distinct


def _unitary_stack():
    """Steps shared between programs, equal EOs in distinct step objects,
    exact matrices and a diagonal evolution; each a separate choice."""
    cnot = build_cnot(1, "rotating_sf", k=1).steps
    static = build_cnot(3, "static_sf", k=1).steps
    return st.sampled_from(
        cnot[:3] + static[3:5]
        + (EOStep(cnot[0].eo), EOStep(static[3].eo),
           MatrixStep("G", ideal_gate("G").matrix),
           MatrixStep("Y1", ideal_gate("Y1").matrix),
           EOStep(cnot[1].eo.replace(label="diagonal", tau=3.25))))


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.lists(_unitary_stack(), max_size=9), max_size=5),
       delta=st.sampled_from([None, 0.02]), cold=st.booleans(),
       rows=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(INPUT_SPECS)),
                     max_size=8))
def test_program_unitaries_equal_the_sequential_walk(steps, delta, cold, rows):
    """Bit for bit; from a cold cache, the reference integrates each step
    alone and the walk in stacks."""
    programs = [Program(name=f"p{i}", steps=tuple(s)) for i, s in enumerate(steps)]
    if cold:
        clear_propagator_cache()
    want = [_stepwise(p, delta, amps=np.eye(4, dtype=complex)) for p in programs]
    if cold:
        clear_propagator_cache()
    us = program_unitaries(programs, delta)
    assert us.shape == (len(programs), 4, 4)
    for u, w in zip(us, want):
        assert np.array_equal(u, w)
    rows = [(i, spec) for i, spec in rows if i < len(programs)]
    which = [i for i, _ in rows]
    states = input_amplitudes([spec for _, spec in rows])
    assert readout(us[which], states) == [
        qubit_values(StateVector(us[i] @ prepare_input(spec).amplitudes))
        for i, spec in rows]


def test_readout_rejects_an_unnormalized_row():
    us = np.stack([ideal_gate("CNOT").matrix, np.eye(4)])
    states = input_amplitudes(["10", "singlet"])
    assert readout(us, states) == [
        qubit_values(StateVector(u @ a)) for u, a in zip(us, states)]
    for scale in (1.5, 1.0 + 1e-6, np.nan):
        bad = states.copy()
        bad[1] *= scale
        with pytest.raises(NumericalIntegrityError, match="deviates from 1"):
            readout(us, bad)
    assert readout(us[:0], states[:0]) == []


def test_duration_offset_copies_each_distinct_step_once():
    p = build_qa("QA1", "00", 1, "rotating_sf", k=1)
    q = with_duration_offset(p, "Ip", 0.1)
    ip = [s for s in q.steps if s.label == "Ip"]
    assert len(ip) == 5 and len({id(s) for s in ip}) == 1
    assert [s for s in q.steps if s.label != "Ip"] == \
        [s for s in p.steps if s.label != "Ip"]


def test_shifted_steps_are_memoized_across_rebuilds():
    """A program rebuilt and shifted again gets the same shifted step
    objects, and the same unitary as a fresh shift."""
    shifted = [with_duration_offset(build_qa("QA1", "00", 1, "rotating_sf", k=1),
                                    "Ip", 0.1) for _ in range(2)]
    first, again = ([s for s in q.steps if s.label == "Ip"][0] for q in shifted)
    assert first is again
    p = build_qa("QA1", "00", 1, "rotating_sf", k=1)
    fresh = Program("fresh", tuple(
        EOStep(s.eo.replace(tau=s.eo.tau + 0.1)) if s.label == "Ip" else s
        for s in p.steps))
    assert first.eo == [s for s in fresh.steps if s.label == "Ip"][0].eo
    assert np.array_equal(program_unitary(shifted[1]), program_unitary(fresh))


def test_negative_diagonal_duration_is_rejected():
    p = parse_program_text("diagonal -3")
    for _ in range(2):  # nothing is cached for a bad key
        with pytest.raises(ConfigurationError, match="must be non-negative"):
            run_program(p)
    assert run_program(parse_program_text("diagonal 0")).amplitudes[0] == 1.0


@pytest.mark.parametrize("which", ["QA1", "qa1", "Qa1", "1", 1])
def test_qa_name_accepts_exact_forms(which):
    assert build_qa(which, "00").name.startswith("QA1[")
    assert build_qa(str(which).replace("1", "2"), "singlet").name.startswith("QA2[")


@pytest.mark.parametrize("which", ["AQ1", "qaqa2", "QAQ1", "Q1", "A1", "QA", "",
                                   "QA12", "qa 1", "QA01", 3, None])
def test_qa_name_rejects_other_forms(which):
    with pytest.raises(ConfigurationError, match="which must be QA1 or QA2"):
        build_qa(which, "singlet")


def test_program_unitary_long_pulse_close_to_ideal():
    u = program_unitary(build_cnot(1, "rotating_sf", k=32))
    assert global_phase_distance(ideal_gate("CNOT").matrix, u) < 0.05


def test_qpp_witness_at_shortest_pulses():
    # logically identical constructions give visibly different answers
    got1 = qubit_values(run_program(build_qa("QA1", "00", 1, "rotating_sf", k=1)))
    got2 = qubit_values(run_program(build_qa("QA1", "00", 2, "rotating_sf", k=1)))
    got3 = qubit_values(run_program(build_qa("QA1", "00", 3, "rotating_sf", k=1)))
    assert max(abs(got2[0] - got1[0]), abs(got2[1] - got1[1])) > 0.1
    assert max(abs(got3[0] - got1[0]), abs(got3[1] - got1[1])) > 0.1


def test_basis_correct_but_superposition_wrong():
    # the first construction at the shortest pulses: every basis input
    # answers correctly to 0.01, yet the singlet input deviates
    for inp, want in [("00", (0.0, 0.0)), ("10", (1.0, 1.0)),
                      ("01", (0.0, 1.0)), ("11", (1.0, 0.0))]:
        got = qubit_values(run_program(build_qa("QA1", inp, 1, "rotating_sf", k=1)))
        assert got == pytest.approx(want, abs=0.01)
    singlet = qubit_values(run_program(build_qa("QA2", "singlet", 1,
                                                "rotating_sf", k=1)))
    assert singlet[0] == pytest.approx(0.90, abs=0.01)
    assert abs(singlet[0] - 1.0) > 0.05


def test_final_rotation_style_switch():
    exact = build_qa("QA2", "singlet", 1, "rotating_sf", k=1,
                     final_rotation_style="exact")
    assert isinstance(exact.steps[-1], MatrixStep)
    pulse = build_qa("QA2", "singlet", 1, "rotating_sf", k=1)
    assert isinstance(pulse.steps[-1], EOStep)
    # rotating pulses turn the target exactly; both stylings agree closely
    a = qubit_values(run_program(exact))
    b = qubit_values(run_program(pulse))
    assert a == pytest.approx(b, abs=5e-3)


def test_duration_offset_applies_to_every_labeled_eo():
    p = build_qa("QA1", "00", 1, "rotating_sf", k=1)
    q = with_duration_offset(p, "Ip", 0.1)
    offsets = [s.eo.tau for s in q.steps if s.label == "Ip"]
    assert len(offsets) == 5
    f = coupling_pi_duration()
    assert all(t == pytest.approx(f + 0.1, abs=1e-9) for t in offsets)
    with pytest.raises(ConfigurationError):
        with_duration_offset(p, "nope", 0.1)


def test_parse_program_text_round_trip_semantics():
    text = """
    # flip qubit 2 conditioned on qubit 1
    input 10
    gate Y2
    diagonal 1162790.6976744186
    gate Y2b
    gate X2p
    gate Y1b
    gate X1p
    gate Y1
    """
    p = parse_program_text(text, style="ideal")
    got = qubit_values(run_program(p))
    assert got == pytest.approx((1.0, 1.0), abs=1e-5)

    with pytest.raises(ConfigurationError):
        parse_program_text("warp 9")
    with pytest.raises(ConfigurationError):
        parse_program_text("pulse 1 x y z")


def test_parse_program_pulse_line():
    p = parse_program_text("pulse 1 1.5707963267948966 y rotating 1",
                           style="rotating_sf")
    assert len(p.steps) == 1
    eo = p.steps[0].eo
    assert eo.tau == 8 and eo.sf1x == pytest.approx(0.03125)


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
    from nmrqc import prepare_singlet
    from nmrqc.gates import ideal_gate

    for variant, inp, prep in ((1, "singlet", prepare_singlet()),
                               (2, "00", prepare_basis_state(2, [0, 0])),
                               (3, "00", prepare_basis_state(2, [0, 0]))):
        mats = {}
        for name in set(CNOT_SEQUENCES[variant]) - {"Ip"}:
            mats[name] = _closed_form_rotating_pulse(name, k=1)
        mats["Ip"] = ideal_gate("Ip").matrix
        amps = prep.amplitudes
        for _ in range(5):
            for name in CNOT_SEQUENCES[variant]:
                amps = mats[name] @ amps
        if inp == "singlet":
            amps = _closed_form_rotating_pulse("Y1", 1) @ amps
        a = abs(amps[1]) ** 2 + abs(amps[3]) ** 2
        b = abs(amps[2]) ** 2 + abs(amps[3]) ** 2

        which, arg = ("QA2", "singlet") if inp == "singlet" else ("QA1", inp)
        integrated = qubit_values(run_program(
            build_qa(which, arg, cnot_variant=variant, style="rotating_sf", k=1)))
        assert integrated[0] == pytest.approx(a, abs=0.01)
        assert integrated[1] == pytest.approx(b, abs=0.01)
