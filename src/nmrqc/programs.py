"""Executable gate-sequence programs in three implementation styles.

``ideal`` realizes each gate as its idealized-hardware EO (one exactly
solvable evolution per gate, the conditional phase gate G included),
``rotating_sf`` and ``static_sf`` replace every single-spin gate by a
designed pulse of the corresponding field geometry.  The equal-z-field
conditional evolution is not available on hardware whose spins see
different static fields, so every CNOT uses the machine-field phase
evolution "Ip" plus compensating primed rotations, and the pulse styles
expand G the same way (G_EXPANSION).

A Program's steps are EOs (``EOParams``, each an evolution carrying its
own label and step size) in application order (element 0 acts first);
there is no other kind of step, and Program refuses any other.
Rewriting a program's EOs (``with_duration_offset``, another step size
by ``eo.replace(delta=d)``) gives another program of EOs.

There is one walk over program steps, and it walks a whole stack of
programs at once, one program per start block (a program may repeat),
in two parts.  compile_walk reads the programs alone, each distinct one
once: their distinct EOs in first-use order and, per step position,
which of them each start block takes.  run_walk does what depends on the
propagator store: it has the integrator integrate those EOs
(``integrator.integrate``), so that the cold ones are integrated in
stacks, looks each one up once, and carries the start blocks through
the steps, one batched product per step position.  A compiled walk
holds no propagator, so it may be run again after the store is
cleared.  program_states compiles and runs it from input rows, one
per program, each carried step by step through its program;
program_unitaries is the same walk started from the identity.

A state is a row of four complex amplitudes, and a stack of states is
an (R, 4) array.  input_amplitudes gives the exact rows of the named
input states, and readout, the only code that knows the qubit
convention, reads the qubit values of every row of a stack.
program_unitary, run_inputs and run_program are the one-program calls.
convergence_report runs one program of EOs per step size, and the
reference at a tenth of the finest, in one walk, and reports each step
size's qubit values and amplitude deviation; it checks each step size
as a builder does, on the z-fields its pulse EOs carry.  Judging the
rows (the verify check compares their round2 prints, the rounding
every table prints with) is left to the reader of the report.

A program is a gate list, and one builder, build_program, realizes
any list of gate names, taking a style name, k and a machine, whose
field ratio sets the duration of every pulse.  It alone checks style,
k, the machine and the list, expands the gates and attaches the list's
ideal unitary.  build_cnot, build_qa and build_grover each state their
list, their name and their input and call it; build_qa swaps QA2's
final rotation for its exact EO when asked.  An EO no gate names (a
pulse of design_pulse, an EO of ideal_eo_params rewritten) goes into a
Program by hand.

Each parameter that picks a program has one domain here (STYLES,
CNOT_VARIANTS, SEARCH_ITEMS, INPUT_SPECS, FINAL_ROTATION_STYLES, the
gates of a list) and one check (check_style, check_variant, check_item,
check_input, check_final_rotation_style, check_gates; k's is
pulses.check_k, the step size's integrator.check_delta and the
machine's hamiltonian.check_machine), which every builder and
harness.ExperimentSpec call: a bool or a float is no variant, item or
k, a step size too coarse for the machine's drive is refused, and so
is a machine that is no MachineConfig.  A duration offset has one check
too (check_offset), and a walk entry must be a Program (compile_walk).
Gate steps, duration-shifted steps, whole gate-sequence expansions,
gate matrices and each gate sequence's ideal unitary are memoized, so
rebuilding a program re-designs no pulse, re-shifts no duration and
recomposes no gate.  A sequence's first expansion realizes each distinct
gate name once and its first ideal unitary looks each distinct gate
matrix up once, so a fresh process pays per distinct gate; neither
checks again what the builder checked (they call gates' private
functions and pulses._pulse_eo).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache, partial, reduce
from itertools import chain

import numpy as np

from .errors import TOO_LONG, ConfigurationError, NumericalIntegrityError, check_choice, shown
from .gates import GATE_NAMES, _ideal_eo, _ideal_gate, _rotation
from .hamiltonian import (DEFAULT_MACHINE, EOParams, MachineConfig, check_machine,
                          is_finite_number)
from . import integrator
from .integrator import check_delta, eo_propagator, integrate
from .operators import TWO_PI, frozen_unitary
from .pulses import PULSE_DELTA, ROTATING, STATIC_AXIS, _pulse_eo, check_k

IDEAL = "ideal"
STATIC_SF = "static_sf"
ROTATING_SF = "rotating_sf"
STYLES = (IDEAL, STATIC_SF, ROTATING_SF)

_STYLE_MODE = {STATIC_SF: STATIC_AXIS, ROTATING_SF: ROTATING}

INPUT_SPECS = ("00", "10", "01", "11", "singlet")

# How QA2 runs its final rotation: in the program's style, or exactly.
FINAL_ROTATION_STYLES = ("program", "exact")

# The exact input states, one row per INPUT_SPECS entry.  Basis state
# |b1 b2> sits at index b1 + 2*b2 (qubit 1 is the fast index), and the
# singlet is (|01> - |10>)/sqrt(2).  Exact amplitudes are the matrix-form
# analogue of error-free preparation, so any deviation seen later comes
# from the executed sequence alone.
_INPUTS = np.eye(5, 4, dtype=complex)
_INPUTS[4] = (0.0, -1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0)
_INPUTS.setflags(write=False)

# Guard against outright unnormalized rows; precision contracts are
# asserted separately at the working step sizes (norm drift there is
# ~1e-11, but microstep reference runs with millions of factors can
# accumulate a few 1e-9 of benign roundoff).
NORM_TOL = 1e-8

_EYE = np.eye(4, dtype=complex)

# Application-order gate lists (first entry acts first on the state).
#
# CNOT3 places X1 directly after Y2b: the grouping with X1 and Y2b
# interchanged is logically identical (they act on different spins) but
# shifts the short-pulse results by a few percent, and the benchmark
# values correspond to this grouping.
CNOT_SEQUENCES = {
    1: ("Y2", "Ip", "Y2b", "X2p", "Y1b", "X1p", "Y1"),
    2: ("Y2", "Ip", "Y2b", "Y1b", "X2p", "X1p", "Y1"),
    3: ("Y2", "Ip", "Y2b", "X1", "X2p", "Y1p", "X1b"),
}
CNOT_VARIANTS = tuple(CNOT_SEQUENCES)

# Conditional phase gate as an evolution: diagonal core plus the
# double-primed rotations absorbing the bare precession phases.
G_EXPANSION = ("Gcore", "Y1b", "X1pp", "Y1", "Y2b", "X2pp", "Y2")

# Search sequences U_item, written in operator-product order (rightmost
# acts first); 'G' expands per style in the builder.
_GROVER_MIDDLE = {
    0: ("X1", "Y1b", "X2", "Y2b"),
    1: ("X1", "Y1b", "X2b", "Y2b"),
    2: ("X1b", "Y1b", "X2", "Y2b"),
    3: ("X1b", "Y1b", "X2b", "Y2b"),
}
SEARCH_ITEMS = tuple(_GROVER_MIDDLE)

# The gates a program may list: every gate but CNOT, which has no EO.
_EO_GATES = tuple(name for name in GATE_NAMES if name != "CNOT")

# The checks of the domains above; each returns the domain's own entry.
check_style = partial(check_choice, name="style", domain=STYLES)
check_variant = partial(check_choice, name="cnot_variant", domain=CNOT_VARIANTS)
check_item = partial(check_choice, name="item", domain=SEARCH_ITEMS)
check_input = partial(check_choice, name="input_spec", domain=INPUT_SPECS)
check_final_rotation_style = partial(check_choice, name="final_rotation_style",
                                     domain=FINAL_ROTATION_STYLES)


def grover_sequence(item: int) -> tuple[str, ...]:
    """U_item in operator-product order (apply right to left)."""
    return (("X1", "Y1b", "X2", "Y2b", "G") + _GROVER_MIDDLE[check_item(item)]
            + ("G", "X1b", "X1b", "Y1b", "X2b", "X2b", "Y2b"))


@dataclass(frozen=True)
class Program:
    """A named sequence of EOs, the input it declares (one of
    INPUT_SPECS, checked when the program is built) and, when built from
    gates, the ideal unitary of its gate sequence."""

    name: str
    steps: tuple[EOParams, ...]   # in application order
    input_spec: str = "00"
    ideal_unitary: np.ndarray | None = field(default=None, repr=False,
                                             compare=False)  # read-only

    def __post_init__(self):
        check_input(self.input_spec)
        object.__setattr__(self, "steps", tuple(self.steps))
        for step in self.steps:
            if not isinstance(step, EOParams):
                raise ConfigurationError(f"program step {step!r} is no EOParams")

    @property
    def ideal_expectations(self) -> tuple[float, float] | None:
        """(a, b) of the declared input under the ideal gates, if known."""
        if self.ideal_unitary is None:
            return None
        states = input_amplitudes([self.input_spec])
        (ab,) = readout((self.ideal_unitary[None] @ states[..., None])[..., 0])
        return ab


@lru_cache(maxsize=1024)
def _gate_step(name: str, style: str, k: int, machine: MachineConfig,
               delta: float) -> EOParams:
    """The EO realizing a named gate in the given style, with pulses of
    length k: design_pulse's EO, designed without checking again the
    gate, style, k, machine and step size the builder checked."""
    if name == "Gcore":
        return _ideal_eo("Ip", machine).replace(label="Gcore", delta=1.0)
    if name == "Ip" or style == IDEAL:
        return _ideal_eo(name, machine)
    spin, axis, direction, turns = _rotation(name, machine)
    return _pulse_eo(spin, TWO_PI * turns, axis, direction, k, _STYLE_MODE[style],
                     machine, name, delta)


@lru_cache(maxsize=1024)
def _expand(names: tuple[str, ...], style: str, k: int, machine: MachineConfig,
            delta: float) -> tuple[EOParams, ...]:
    """The EOs of a gate sequence, names in application order; 'G' is
    one EO in ideal style and G_EXPANSION otherwise.  Each distinct name
    is realized once."""
    steps = {name: tuple(_gate_step(n, style, k, machine, delta) for n in
                         (G_EXPANSION if name == "G" and style != IDEAL else (name,)))
             for name in dict.fromkeys(names)}
    return tuple(chain.from_iterable(map(steps.__getitem__, names)))


@lru_cache(maxsize=256)
def _ideal_unitary(names: tuple[str, ...], machine: MachineConfig) -> np.ndarray:
    """Read-only product of the ideal gates, names in application order,
    each distinct gate's matrix looked up once: the products of compose,
    left to right from the last gate applied, each by ndarray.dot, which
    gives np.matmul's product of two 4x4 matrices with less dispatch."""
    gates = {name: _ideal_gate(name, machine) for name in dict.fromkeys(names)}
    return frozen_unitary(reduce(np.ndarray.dot, map(gates.__getitem__, reversed(names))))


def build_program(gates, style: str = IDEAL, k: int = 1,
                  machine: MachineConfig = DEFAULT_MACHINE, delta: float = PULSE_DELTA,
                  input_spec: str = "00", name: str = "custom[") -> Program:
    """The program of a gate list, names in application order (element 0
    acts first), with the ideal unitary of the list, named by `name`
    followed by its style and k ('QA1[CNOT1,' gives
    'QA1[CNOT1,ideal,k=1]').  Each gate is realized as in every builder:
    its ideal EO in ideal style, a designed pulse otherwise, 'Ip' as its
    ideal EO and 'G' per style (G_EXPANSION).  It is the one place that
    checks style, k, the machine, the step size on it
    (``integrator.check_delta``) and the gate list (``check_gates``), and
    expands gates."""
    machine = check_machine(machine)
    style, k, delta = check_style(style), check_k(k), check_delta(delta, machine)
    names = check_gates(gates, style)
    steps = _expand(names, style, k, machine, delta)
    if shown(k) == TOO_LONG:   # a pulse style names its pulse duration first
        raise ConfigurationError(f"k is {TOO_LONG} in the program name")
    return Program(name=f"{name}{style},k={k}]", steps=steps, input_spec=input_spec,
                   ideal_unitary=_ideal_unitary(names, machine))


def check_gates(gates, style: str) -> tuple[str, ...]:
    """The gate list as a tuple: a non-empty list or tuple of gate names,
    each one of GATE_NAMES as spelled there but CNOT, which has no EO,
    and I only in the ideal style."""
    if not isinstance(gates, (list, tuple)) or not gates:
        raise ConfigurationError(f"gates must be a non-empty list, got {shown(gates)}")
    for gate in gates:
        if not (isinstance(gate, str) and gate in _EO_GATES):
            raise ConfigurationError(f"gate {shown(gate)} has no EO: not one of {_EO_GATES}")
        if style != IDEAL and gate == "I":
            raise ConfigurationError(f"gate I has no {style} realization: the equal-field "
                                     "evolution has none on spins of different static "
                                     "fields; pulse styles run Ip, at the machine's fields")
    return tuple(gates)


def build_cnot(variant: int, style: str, k: int = 1,
               machine: MachineConfig = DEFAULT_MACHINE,
               delta: float = PULSE_DELTA) -> Program:
    """One controlled-NOT realization (variant one of CNOT_VARIANTS) on
    |00>; run_inputs carries any other input through it."""
    variant = check_variant(variant)
    return build_program(CNOT_SEQUENCES[variant], style, k, machine, delta,
                         name=f"CNOT{variant}[")


def build_qa(input_spec: str, cnot_variant: int = 1, style: str = IDEAL,
             k: int = 1, machine: MachineConfig = DEFAULT_MACHINE,
             delta: float = PULSE_DELTA,
             final_rotation_style: str = "program") -> Program:
    """The five-fold CNOT test program of an input: QA1 or QA2.

    A basis state runs QA1, (CNOT)^5.  The singlet runs QA2, (CNOT)^5
    followed by a pi/2 rotation of spin 1 that turns the surviving
    entangled state into a definite readout; by default that rotation is
    executed in the program's own style, `final_rotation_style="exact"`
    substitutes the ideal EO without coupling, which is exact to rounding.
    """
    variant = check_variant(cnot_variant)
    exact = check_final_rotation_style(final_rotation_style) == "exact"
    singlet = input_spec == "singlet"
    program = build_program(CNOT_SEQUENCES[variant] * 5 + ("Y1",) * singlet, style, k,
                            machine, delta, input_spec, f"QA{1 + singlet}[CNOT{variant},")
    if exact and singlet:   # the ideal Y1 without coupling: exact to rounding
        final = _ideal_eo("Y1", machine).replace(j=0.0)
        program = replace(program, steps=program.steps[:-1] + (final,))
    return program


def build_grover(item: int, style: str = IDEAL, k: int = 1,
                 machine: MachineConfig = DEFAULT_MACHINE,
                 delta: float = PULSE_DELTA) -> Program:
    """Four-item database search for the given item position; input |00>."""
    names = tuple(reversed(grover_sequence(item)))  # application order
    return build_program(names, style, k, machine, delta, name=f"Grover{item}[")


def input_amplitudes(input_specs) -> np.ndarray:
    """The named input states stacked as rows, shape (R, 4).

    Every name must be one of INPUT_SPECS; each row is a copy of the
    exact row in _INPUTS.
    """
    return _INPUTS[[INPUT_SPECS.index(check_input(spec)) for spec in input_specs]]


def readout(amps: np.ndarray) -> list[tuple[float, float]]:
    """Qubit values (a, b) of each row of amplitudes, shape (R, 4).

    Qubit j reads 0 when its spin points up, so its value is
    <Q_j> = <1/2 - S_j^z>, the weight of the basis states whose j-th bit
    is 1: with w = |amplitude|^2, a = w1 + w3 and b = w2 + w3.  A row
    whose norm is off by more than NORM_TOL raises NumericalIntegrityError,
    and any other shape ConfigurationError.
    """
    if np.shape(amps)[1:] != (4,):
        raise ConfigurationError(f"amplitude rows of shape {np.shape(amps)}: need (R, 4)")
    w = np.abs(amps) ** 2
    norms = np.sqrt(w.sum(axis=-1))
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)   # NaN counts as off
    if off.any():
        raise NumericalIntegrityError(f"state norm {float(norms[off][0])} deviates from 1")
    return list(zip((w[:, 1] + w[:, 3]).tolist(), (w[:, 2] + w[:, 3]).tolist()))


def round2(x: float) -> float:
    """Two-decimal display rounding, halves away from zero."""
    return float(Decimal(repr(float(x))).quantize(Decimal("0.01"),
                                                  rounding=ROUND_HALF_UP))


def run_inputs(program: Program, input_specs) -> list[tuple[float, float]]:
    """Qubit values of each named input carried through the program."""
    states = input_amplitudes(input_specs)
    return readout(program_states([program] * len(states), states))


def run_program(program: Program) -> np.ndarray:
    """The output amplitudes of the program's declared input, a read-only
    (4,) row."""
    (amps,) = program_states([program], input_amplitudes([program.input_spec]))
    amps.setflags(write=False)
    return amps


def program_unitary(program: Program) -> np.ndarray:
    """The full 4x4 matrix of the program (product of step propagators)."""
    return program_unitaries([program])[0]


def program_unitaries(programs) -> np.ndarray:
    """The 4x4 unitary of each program, stacked (P, 4, 4): the walk of
    program_states started from the identity, one walk for all.  Each
    unitary is bit-identical to multiplying its program's propagators
    one by one."""
    eos, gather = compile_walk(programs)
    return run_walk(eos, gather, np.broadcast_to(_EYE, (gather.shape[1], 4, 4)))


def program_states(programs, rows) -> np.ndarray:
    """Each input row carried through its program, stacked (C, 4): row c
    through the steps of programs[c], in one walk for all; rows must be
    (C, 4), one row per program.  Each output row is bit-identical to
    applying the program's propagators to its input one by one."""
    eos, gather = compile_walk(programs)
    if np.shape(rows) != (gather.shape[1], 4):
        raise ConfigurationError(f"input rows of shape {np.shape(rows)} for "
                                 f"{gather.shape[1]} walk entries: need (entries, 4)")
    return run_walk(eos, gather, np.reshape(rows, (-1, 4, 1)))[..., 0]


def compile_walk(programs) -> tuple[tuple[EOParams, ...], np.ndarray]:
    """The walk of block c through programs[c], in the form run_walk
    takes: the distinct EOs of the programs, in first-use order (each
    program read once, keyed by its id, and each step object once), and
    a read-only (step position, c) index into them, counted from 1, with
    0 for the identity that pads a shorter program.  Each entry must be
    a Program, and one may repeat."""
    programs = list(programs)   # the list keeps every step alive
    for p in programs:
        if not isinstance(p, Program):
            raise ConfigurationError(
                f"walk entries must be Programs, got {type(p).__name__}")
    distinct = {}               # id -> (index, program) of a distinct program
    which = [distinct.setdefault(id(p), (len(distinct), p))[0] for p in programs]
    by_step, by_eo = {}, {}     # EO indices from 1; 0 is the identity
    rows = []
    for _, program in distinct.values():
        row = []
        for step in program.steps:
            i = by_step.get(id(step))
            if i is None:
                i = by_step[id(step)] = by_eo.setdefault(step, len(by_eo) + 1)
            row.append(i)
        rows.append(row)
    width = max(map(len, rows), default=0)
    index = np.array([row + [0] * (width - len(row)) for row in rows],
                     dtype=np.intp).reshape(len(rows), width)
    gather = index[np.asarray(which, dtype=np.intp)].T
    gather.setflags(write=False)
    return tuple(by_eo), gather


def run_walk(eos, gather, starts) -> np.ndarray:
    """starts[c], a (4, K) block, carried through the steps gather[:, c]
    indexes (``compile_walk``).

    In chunks of at most the store's size, so that no chunk evicts its
    own EOs, it has those not stored yet integrated in stacks, each at
    its own step size, in one call to ``integrate``, then looks each one
    up once, through eo_propagator.  The blocks are carried through
    their steps in application order, one batched product per step
    position.
    """
    mats = [_EYE]
    size = integrator._CACHE_SIZE
    for lo in range(0, len(eos), size):
        integrate(eos[lo:lo + size])
        mats += [eo_propagator(eo) for eo in eos[lo:lo + size]]
    out = np.array(starts, dtype=complex)
    spare = np.empty_like(out)    # two buffers, so no product allocates
    for factors in np.array(mats)[gather]:
        np.matmul(factors, out, out=spare)   # (C, 4, 4) @ (C, 4, K)
        out, spare = spare, out
    return out


def with_duration_offset(program: Program, label: str, offset: float) -> Program:
    """Copy of the program with `offset` (``check_offset``) added to tau
    of every EO named `label`.

    Each distinct EO gets one shifted copy, shared by all its places and
    by every program shifted by the same offset (``_shifted_step``).
    """
    offset = check_offset(offset)
    if all(s.label != label for s in program.steps):
        raise ConfigurationError(f"no EO labeled {label!r} in program {program.name}")
    return replace(program, steps=tuple(_shifted_step(s, offset) if s.label == label
                                        else s for s in program.steps),
                   name=f"{program.name}(d{label}={offset:+g})")


def check_offset(offset) -> float:
    """A duration offset, which must be a finite number (not a bool), as
    a float; with_duration_offset and the spec's tau_offsets take it by
    this one rule."""
    if not is_finite_number(offset):
        raise ConfigurationError(f"duration offset {shown(offset)} is not a finite number")
    return float(offset)


@lru_cache(maxsize=1024)
def _shifted_step(eo: EOParams, offset: float) -> EOParams:
    """The EO with `offset` added to its tau, memoized so that a program
    rebuilt and shifted again reuses the shifted EO."""
    return eo.replace(tau=eo.tau + offset)


@dataclass(frozen=True)
class ConvergenceRow:
    delta: float
    expectations: tuple[float, ...]
    max_amplitude_deviation: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]

    def __str__(self):
        lines = [f"{'delta':>10}  {'expectations':<24} max amp deviation"]
        for r in self.rows:
            exps = " ".join(f"{v:.6f}" for v in r.expectations)
            lines.append(f"{r.delta:>10g}  {exps:<24} {r.max_amplitude_deviation:.3e}")
        return "\n".join(lines)


def convergence_report(eos, input_spec: str, deltas) -> ConvergenceReport:
    """Re-run an EO sequence at several step sizes and tabulate deviations.

    Each step size d, coarsest first, runs the EOs on the named input as
    one program, of the EOs ``eo.replace(delta=d)``; so does the
    reference step min(deltas)/10, and all of them run in one walk
    (``program_states``), so that a cold call integrates the EOs of
    every step size together (``run_walk``).  A row holds d, its qubit
    values and the largest amplitude deviation from the reference run.
    Diagonal EOs keep the exact propagator throughout, so only pulse
    steps are swept, and each d must resolve the drive of every pulse EO
    as a builder's step size must (``integrator.check_delta`` on the
    EO's own z-fields); deltas must be a list or a tuple.
    """
    if not isinstance(deltas, (list, tuple)):
        raise ConfigurationError(f"deltas must be a list, got {shown(deltas)}")
    eos = (eos,) if isinstance(eos, EOParams) else tuple(eos)
    # each d is checked on the z-fields of every pulse EO (alone if none)
    pulses = [eo for eo in eos if not eo.is_diagonal] or [None]
    deltas = sorted({float(check_delta(d, eo)) for d in deltas for eo in pulses},
                    reverse=True)
    if not deltas:
        raise ConfigurationError("need at least one delta")
    programs = [Program("convergence", tuple(eo.replace(delta=d) for eo in eos),
                        input_spec) for d in (*deltas, min(deltas) / 10.0)]
    states = program_states(programs, input_amplitudes([input_spec] * len(programs)))
    outs, ref = states[:-1], states[-1]
    return ConvergenceReport(tuple(
        ConvergenceRow(d, ab, float(np.max(np.abs(out - ref))))
        for d, out, ab in zip(deltas, outs, readout(outs))))
