import json
import os
import re
import stat
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import nmrqc.reference_tables as ref
from nmrqc import (ConfigurationError, ExperimentSpec, MachineConfig, build_grover,
                   build_qa, canned_names, canned_spec, emit_table,
                   program_unitaries, round2, run_experiment, verify_suite)
from nmrqc.cli import main, parse_angle
from nmrqc.harness import _CANNED, CHECKS, _qa_row_label, _rows
from nmrqc.programs import INPUT_SPECS

from conftest import json_reference, per_row_reference


@pytest.fixture(scope="module")
def small_spec():
    return ExperimentSpec(kind="qa", style="rotating_sf", cnot_variant=1,
                          inputs=("00", "singlet"), k_list=(1,),
                          title="smoke")


@pytest.fixture(scope="module")
def small_table(small_spec):
    return run_experiment(small_spec)


def test_round2_is_half_away_from_zero():
    assert round2(0.005) == 0.01
    assert round2(0.025) == 0.03   # banker's rounding would give 0.02
    assert round2(0.024999) == 0.02
    assert round2(0.995) == 1.0


def test_run_experiment_reproduces_known_cells(small_table, small_spec):
    row00 = _qa_row_label(small_spec, "00")
    rows = _qa_row_label(small_spec, "singlet")
    a, b = small_table.cell(row00, 8)
    assert (round2(a), round2(b)) == (0.0, 0.0)
    a, b = small_table.cell(rows, 8)
    assert a == pytest.approx(0.90, abs=0.01)
    assert b == pytest.approx(1.00, abs=0.01)


def test_markdown_layout_contract(small_table):
    md = emit_table(small_table, "markdown")
    header = md.splitlines()[0]
    assert header.startswith("Operation | a | b | a_8 | b_8")


def test_csv_full_precision(small_table):
    """float() of every CSV number gives its table value back exactly, and
    the CSV spells each number as the JSON does."""
    _, *lines = emit_table(small_table, "csv").splitlines()
    json_lines = {line.strip().rstrip(",")
                  for line in emit_table(small_table, "json").splitlines()}
    assert [line.split(",")[0] for line in lines] == small_table.row_labels
    for line, r in zip(lines, small_table.row_labels):
        numbers = line.split(",")[1:]
        want = [*small_table.ideal[r]]
        for c in small_table.col_labels:
            want += small_table.cells[(r, c)]
        assert [float(x) for x in numbers] == want
        assert set(numbers) <= json_lines


def test_json_round_trip(small_table):
    payload = json.loads(emit_table(small_table, "json"))
    assert payload["columns"] == ["8"]
    assert len(payload["rows"]) == 2


def test_emit_empty_table():
    from nmrqc.harness import ResultTable
    t = ResultTable(title="empty", row_header="Operation",
                    row_labels=[], col_labels=[])
    assert emit_table(t, "markdown").splitlines()[0] == "Operation | a | b"
    with pytest.raises(ConfigurationError):
        emit_table(t, "yaml")


def test_determinism(small_spec):
    t1 = run_experiment(small_spec)
    t2 = run_experiment(small_spec)
    assert emit_table(t1, "json") == emit_table(t2, "json")


def test_spec_json_round_trip(small_spec):
    spec2 = ExperimentSpec.from_json(json.dumps(asdict(small_spec)))
    assert spec2 == small_spec


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        ExperimentSpec(kind="bogus")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(style="bogus")
    with pytest.raises(ConfigurationError):
        ExperimentSpec(k_list=())
    for k_list in ((1.5,), (0,), ("2",), (float("inf"),)):
        with pytest.raises(ConfigurationError, match="whole numbers"):
            ExperimentSpec(k_list=k_list)
    assert ExperimentSpec(k_list=(2.0,)).k_list == (2,)
    with pytest.raises(ConfigurationError, match="cnot_variant"):
        ExperimentSpec(cnot_variant=4)
    with pytest.raises(ConfigurationError, match="variant"):
        build_qa("00", cnot_variant=4)
    # the fastest drive (spin 1, frequency 1) needs two steps per period
    assert ExperimentSpec(delta=0.5).delta == 0.5
    with pytest.raises(ConfigurationError, match="does not resolve"):
        ExperimentSpec(delta=5)
    with pytest.raises(ConfigurationError, match="does not resolve"):
        ExperimentSpec(delta=0.3, machine=MachineConfig(h1z=2.0, h2z=0.5))
    with pytest.raises(ConfigurationError, match="unknown spec keys: bogus"):
        ExperimentSpec.from_dict({"bogus": 1, "kind": "qa"})
    with pytest.raises(ConfigurationError, match="unknown machine keys: h3z"):
        ExperimentSpec.from_dict({"machine": {"h3z": 1.0}})
    with pytest.raises(ConfigurationError, match="mapping"):
        ExperimentSpec.from_dict([1, 2])
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        ExperimentSpec.from_json('{"kind": "qa",')
    for text in ('{"k_list": [1' + "0" * 5000 + ']}', '{"delta": 1' + "0" * 5000 + '}'):
        with pytest.raises(ConfigurationError, match="not valid JSON"):   # too long for int()
            ExperimentSpec.from_json(text)
    for bad, match in [({"inputs": 5}, "inputs must be a list"),
                       ({"inputs": "00"}, "inputs must be a list"),
                       ({"items": 5}, "items must be a list"),
                       ({"k_list": 3}, "k_list must be a list"),
                       ({"tau_offsets": "ab"}, "tau_offsets must be a list"),
                       ({"inputs": []}, "inputs must be non-empty"),
                       ({"items": []}, "items must be non-empty"),
                       ({"tau_offsets": []}, "tau_offsets must be non-empty"),
                       ({"inputs": ["00", "02"]}, "inputs entries"),
                       ({"items": [4]}, "items entries"),
                       ({"items": [-1]}, "items entries"),
                       ({"items": [1.5]}, "items entries"),
                       ({"tau_offsets": ["ab"]}, "tau_offsets entries"),
                       ({"tau_offsets": [float("nan")]},
                        "tau_offsets entries must be finite numbers, got nan"),
                       ({"tau_offsets": [0.1, 0.1000004]},
                        "share the column label \\+0.1:"),
                       ({"inputs": ["01", "singlet", "01"]},
                        "inputs share the row label 01:"),
                       ({"items": [2, 0, 2.0]}, "items share the row label 2:"),
                       ({"k_list": [1, 2, 1.0, 2]},
                        "k_list share the column label 16, 8:"),
                       ({"final_rotation_style": "bogus"}, "final_rotation_style"),
                       ({"kind": "grover", "tau_offsets": [0.1]},
                        "perturbation study is defined for QA suites"),
                       # a field the table does not read, at a value of its own
                       ({"kind": "grover", "inputs": ["singlet"]},
                        "^inputs changes nothing in a search table"),
                       ({"kind": "grover", "cnot_variant": 3},
                        "^cnot_variant changes nothing in a search table"),
                       ({"kind": "grover", "final_rotation_style": "exact"},
                        "^final_rotation_style changes nothing in a search table"),
                       ({"kind": "qa", "items": [2]},
                        "^items changes nothing in a QA suite"),
                       # a duration study detunes Ip: no field names another EO
                       ({"kind": "qa", "perturb_label": "Y2", "tau_offsets": [0.1]},
                        "^unknown spec keys: perturb_label$")]:
        with pytest.raises(ConfigurationError, match=match):
            ExperimentSpec.from_dict(bad)
    assert ExperimentSpec(kind="grover", items=(2.0,)).items == (2,)
    # the default value of a field the table does not read is no value of its own
    assert ExperimentSpec.from_dict({"kind": "grover", "inputs": list(INPUT_SPECS),
                                     "cnot_variant": 1.0}).cnot_variant == 1


def test_canned_specs_exist():
    assert canned_names() == ("table5", "table6", "table7", "table8", "table9",
                              "table10", "grover_static")
    for name in canned_names():
        assert canned_spec(name) is canned_spec(name)   # built once
    # a spec file states every field, those the table does not read at their defaults
    for spec in [*map(canned_spec, canned_names()), *_sweep_specs().values()]:
        assert ExperimentSpec.from_json(json.dumps(asdict(spec))) == spec
    with pytest.raises(ConfigurationError, match=re.escape(
            "unknown table 'table99'; available: grover_static, table10, "
            "table5, table6, table7, table8, table9")):
        canned_spec("table99")


def test_each_canned_table_states_its_published_rows_and_tolerance():
    """A canned table's published rows are its own rows, by row key, each
    with one cell per column of the table, and each substitute names one
    of its cells; its check compares at PERTURBATION_TOL exactly when
    its spec is a duration study."""
    tolerance = {c.name: c.tolerance for c in CHECKS}
    for name, (spec, published, substitutes) in _CANNED.items():
        cols = spec._compiled.col_labels
        assert list(published) == [key for key, *_ in _rows(spec)]
        assert all(len(cells) == len(cols) for _, cells in published.values())
        assert substitutes.keys() <= {(r, c) for r in published for c in cols}
        assert tolerance[name] == (ref.PERTURBATION_TOL if spec.tau_offsets is not None
                                   else ref.RESULT_TOL)


def _sweep_specs() -> dict:
    """Short-pulse tables at s = 8, 16: QA on every CNOT variant and the
    search, in both pulse styles, and a duration study at each k."""
    specs = {}
    for style in ("rotating_sf", "static_sf"):
        for variant in (1, 2, 3):
            specs[f"qa_cnot{variant}_{style}"] = ExperimentSpec(
                style=style, cnot_variant=variant, k_list=(1, 2))
        specs[f"search_{style}"] = ExperimentSpec(kind="grover", style=style,
                                                  k_list=(1, 2))
    for k in (1, 2):
        specs[f"tau_offsets_k{k}"] = ExperimentSpec(k_list=(k,),
                                                    tau_offsets=(-0.1, 0.0, 0.1))
    return specs


_JSON_SPECS = {**{name: canned_spec(name) for name in canned_names()},
               **_sweep_specs()}


@pytest.mark.parametrize("name", list(_JSON_SPECS))
def test_json_is_json_dumps_byte_for_byte(name):
    table = run_experiment(_JSON_SPECS[name])
    assert emit_table(table, "json") == json_reference(table)


# -> (spec, the folds its eigenbasis blocks take); at delta 0.02 and 0.004
# spin 1's period, 50 or 250 steps, is not a multiple of 4
_STATIC_TABLES = {**{name: (spec, {"quarter"}) for name, spec in _JSON_SPECS.items()
                     if spec.style == "static_sf"},
                  **{f"{name}@{delta}": (replace(canned_spec(name), delta=delta),
                                         {"quarter", "x period"})
                     for name in ("table8", "grover_static") for delta in (0.02, 0.004)}}


@pytest.mark.parametrize("name", list(_STATIC_TABLES))
def test_a_static_table_is_the_general_blocks_table(name, monkeypatch):
    """Every cell of a static table, whose quarter and x period stacks
    take their own eigenbasis block, is within 1e-10 of the table
    integrated through the general block (a wrapped block, which those
    folds step substep by substep), and prints the same two decimals."""
    import nmrqc.integrator
    spec, eigenbasis_folds = _STATIC_TABLES[name]
    nmrqc.integrator.clear_propagator_cache()
    table = run_experiment(spec)
    folds, kernel = [], nmrqc.integrator._stepped_propagator

    def general(d, block):
        folds.append(d.fold)
        return kernel(d, lambda *args: block(*args))

    monkeypatch.setattr(nmrqc.integrator, "_stepped_propagator", general)
    nmrqc.integrator.clear_propagator_cache()
    reference = run_experiment(spec)
    nmrqc.integrator.clear_propagator_cache()
    assert eigenbasis_folds <= set(folds)
    assert table.cells.keys() == reference.cells.keys()
    gap = max(np.max(np.abs(np.subtract(table.cells[key], reference.cells[key])))
              for key in table.cells)
    assert gap < 1e-10
    assert emit_table(table, "markdown") == emit_table(reference, "markdown")


def test_one_readout_per_table(monkeypatch):
    """The cells and the rows' ideal values come from one readout call."""
    import nmrqc.harness
    calls = []
    read = nmrqc.harness.readout
    monkeypatch.setattr(nmrqc.harness, "readout",
                        lambda amps: calls.append(len(amps)) or read(amps))
    table = run_experiment(ExperimentSpec(inputs=("00", "singlet", "11"),
                                          k_list=(1, 2)))
    assert calls == [len(table.cells) + len(table.row_labels)]


_BATCH_CASES = {
    "qa_reordered": dict(inputs=("11", "singlet", "00"), k_list=(1, 2)),
    "singlet_only": dict(inputs=("singlet",), style="static_sf", k_list=(1,)),
    "basis_only": dict(inputs=("00", "10", "01", "11"), cnot_variant=3,
                       k_list=(1,)),
    "grover": dict(kind="grover", items=(2, 0, 3), k_list=(1, 2)),
    "ideal_style": dict(style="ideal", cnot_variant=2),
    "exact_final_rotation": dict(inputs=("10", "singlet"), k_list=(1,),
                                 final_rotation_style="exact"),
    "tau_offsets": dict(inputs=("00", "singlet", "11"), k_list=(1,),
                        tau_offsets=(-0.1, 0.0, 0.1)),
    "tau_offsets_two_k": dict(inputs=("singlet", "10"), k_list=(2, 1),
                              tau_offsets=(0.1, 0.0)),
    # one block of offsets, at the first k, labeled by offset alone
    "ideal_tau_offsets_two_k": dict(style="ideal", inputs=("01", "singlet"),
                                    k_list=(1, 2), tau_offsets=(-0.1, 0.1)),
}


@pytest.mark.parametrize("case", sorted(_BATCH_CASES))
def test_run_experiment_matches_per_row_reference(case):
    """The table equals its per-row reference, and so does a rerun of the
    spec object, which reuses its compiled table, byte for byte in JSON,
    whatever was done to the lists and dicts of the first table."""
    spec = ExperimentSpec(**_BATCH_CASES[case])
    table = run_experiment(spec)
    rows, cols, cells, ideal = per_row_reference(spec)
    assert (table.row_labels, table.col_labels) == (rows, cols)
    assert table.cells == cells
    assert table.ideal == ideal
    text = emit_table(table, "json")
    table.row_labels.reverse()
    table.col_labels.append("+9")
    table.cells.clear()
    table.ideal.clear()
    rerun = run_experiment(spec)
    assert (rerun.row_labels, rerun.col_labels) == (rows, cols)
    assert (rerun.cells, rerun.ideal) == (cells, ideal)
    assert emit_table(rerun, "json") == text


def _count_runs(monkeypatch):
    """The distinct programs of each walk the harness compiles, one list
    per compiled table (``compile_walk`` takes one program per cell)."""
    import nmrqc.harness
    calls = []
    walk = nmrqc.harness.compile_walk
    monkeypatch.setattr(nmrqc.harness, "compile_walk",
                        lambda ps: calls.append(list({id(p): p for p in ps}.values()))
                        or walk(ps))
    return calls


@pytest.mark.parametrize("fields, programs", [
    (dict(k_list=(1, 2)), 4),                       # QA1 + QA2 per column
    (dict(inputs=("00", "11"), k_list=(1,)), 1),
    (dict(kind="grover", k_list=(1, 2)), 8),        # one per item and column
    (dict(k_list=(1,), tau_offsets=(-0.1, 0.0, 0.1)), 6),
    (dict(k_list=(1, 2), tau_offsets=(-0.1, 0.0, 0.1)), 12),
])
def test_rows_sharing_a_program_run_it_once(fields, programs, monkeypatch):
    """Each group of rows builds its program once per k, and every program
    of the table (one per column and group) runs once, in one stacked walk.
    A rerun of the spec object builds and compiles nothing, and gives an
    equal table."""
    import nmrqc.harness
    spec = ExperimentSpec(**fields)
    groups = (len(spec.items) if spec.kind == "grover"
              else len({r == "singlet" for r in spec.inputs}))
    built = []
    for name in ("build_qa", "build_grover"):
        build = getattr(nmrqc.harness, name)
        monkeypatch.setattr(nmrqc.harness, name,
                            lambda *a, _b=build, **kw: built.append(a) or _b(*a, **kw))
    calls = _count_runs(monkeypatch)
    table = run_experiment(spec)
    assert len(built) == groups * len(spec.k_list)
    assert [len(ps) for ps in calls] == [programs]
    assert len({id(p) for p in calls[0]}) == programs
    assert run_experiment(spec) == table
    assert (len(built), len(calls)) == (groups * len(spec.k_list), 1)


def _expected_stacks(keys) -> list:
    """(fold, size) of the stacks a cold table integrates: one per rotating
    step size, and one per static (omega, delta) group split so that a
    block holds at most _BLOCK substeps (no canned static pulse
    leaves a tail).  A stack holds classes (integrator._z_class): pulses
    that differ only in the axis or sense of their drive are one."""
    import nmrqc.integrator
    classes = {nmrqc.integrator._z_class(eo)[0] for eo in keys}
    rotating = Counter(eo.delta for eo in classes if eo.is_rotating)
    static = Counter((eo.omega, eo.delta) for eo in classes
                     if not (eo.is_rotating or eo.is_diagonal))
    stacks = [("rotating", n) for n in rotating.values()]
    for (omega, delta), n in static.items():
        quarter = round(1.0 / (omega * delta)) // 4
        size = nmrqc.integrator._BLOCK // quarter
        stacks += [("quarter", min(size, n - i)) for i in range(0, n, size)]
    return sorted(stacks)


# one stack per drive frequency: the ten spin-2 classes (100-substep
# quarters) and the ten spin-1 ones (25) both fit under the cap
_STATIC_STACKS = [("quarter", 10), ("quarter", 10)]


def _traced(monkeypatch, seen, request):
    """request() with nmrqc.programs.eo_propagator wrapped as the
    benchmark's tracer wraps it (bench/spans.py): its result, the
    (misses, lookups) the wrapper counts, a miss being an EO not in
    `seen` (the EOs looked up since the store was last cleared), and the
    (misses, lookups) the store's cache_info() adds up over the call."""
    import nmrqc.integrator
    import nmrqc.programs
    lookup, counted = nmrqc.programs.eo_propagator, [0, 0]

    def wrapped(eo):
        counted[0] += eo not in seen
        counted[1] += 1
        seen.add(eo)
        return lookup(eo)

    info = nmrqc.integrator._cached_propagator.cache_info
    before = info()
    with monkeypatch.context() as m:
        m.setattr(nmrqc.programs, "eo_propagator", wrapped)
        result = request()
    after = info()
    return result, tuple(counted), (after.misses - before.misses,
                                     after.hits + after.misses
                                     - before.hits - before.misses)


@pytest.mark.parametrize("name", ["table5", "table9", "table10", "table8",
                                  "grover_static"])
def test_cold_table_cache_contract(name, monkeypatch, kernel_calls, tmp_path):
    """A cold table looks up and misses once per distinct EO key; its
    rotating pulse classes are integrated in one stack and its static
    ones in one stack per drive frequency, split by the cap, and a warm
    rerun looks each key up once more and integrates nothing.  With its
    lookup wrapped as the benchmark traces it, a cold table through the
    command line and a warm duration study print what they print
    unwrapped, and the wrapper counts the misses and lookups the store
    counts.  A rerun of the spec object compiles nothing, and after the
    store is cleared it misses every key again and integrates the same
    stacks.  The command line compiles the registry's spec at most once:
    a second run compiles nothing and prints the same bytes after a
    store clear, while a run with --delta compiles a spec of its own and
    leaves the registry's spec as it was."""
    import nmrqc.integrator
    calls = _count_runs(monkeypatch)
    info = nmrqc.integrator._cached_propagator.cache_info
    nmrqc.integrator.clear_propagator_cache()
    spec = replace(canned_spec(name))   # not compiled by an earlier test
    cold = run_experiment(spec)
    (programs,) = calls
    keys = {eo for p in programs for eo in p.steps}
    assert (info().misses, info().hits) == (len(keys), 0)
    assert sorted(kernel_calls) == _expected_stacks(keys)
    assert len(nmrqc.integrator._cached_propagator) == len(keys)  # one store
    expected = {"table5": [("rotating", 20)], "table8": _STATIC_STACKS,
                "grover_static": _STATIC_STACKS}
    if name in expected:
        assert sorted(kernel_calls) == expected[name]

    n_calls = len(kernel_calls)
    seen = set(keys)
    warm, counted, stored = _traced(monkeypatch, seen, lambda: run_experiment(spec))
    assert (info().misses, info().hits) == (len(keys), len(keys))
    assert counted == stored == (0, len(keys))
    assert len(kernel_calls) == n_calls and len(calls) == 1
    assert warm == cold and warm.to_json() == cold.to_json()

    nmrqc.integrator.clear_propagator_cache()
    again = run_experiment(spec)
    assert (info().misses, info().hits) == (len(keys), 0)
    assert sorted(kernel_calls[n_calls:]) == sorted(kernel_calls[:n_calls])
    assert again.cells == cold.cells and len(calls) == 1

    out, seen = tmp_path / "table.json", set()

    def cli():
        assert main(["tables", name, "--format", "json", "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")

    registry = asdict(canned_spec(name))
    nmrqc.integrator.clear_propagator_cache()
    plain = cli()
    compiled = len(calls)
    nmrqc.integrator.clear_propagator_cache()
    text, counted, stored = _traced(monkeypatch, seen, cli)
    assert text == plain and counted == stored == (len(keys), len(keys))
    assert text == cold.to_json() + "\n" and len(calls) == compiled
    assert main(["tables", name, "--delta", "0.01", "--out", os.devnull]) == 0
    assert len(calls) == compiled + 1 and asdict(canned_spec(name)) == registry

    study = ExperimentSpec(k_list=(1,), tau_offsets=(-0.1, 0.0, 0.1))
    nmrqc.integrator.clear_propagator_cache()
    seen.clear()
    _, counted, stored = _traced(monkeypatch, seen,     # the fill, traced
                                 lambda: run_experiment(study))
    assert counted == stored and counted[0] > 0
    plain = emit_table(run_experiment(study), "json")
    text, counted, stored = _traced(
        monkeypatch, seen, lambda: emit_table(run_experiment(study), "json"))
    assert text == plain and counted == stored == (0, len(seen))


@pytest.mark.parametrize("name", canned_names())
def test_the_command_line_compiles_a_canned_table_once(name, monkeypatch, tmp_path):
    """`nmrqc tables NAME` with no flag overriding a field runs the
    registry's spec object, so a process compiles each canned table once:
    later runs compile nothing and print the same bytes, also after the
    propagator store is cleared.  An override (--delta, even at the
    default step) makes a spec of its own, which compiles, and leaves the
    registry's spec and its compiled table as they were."""
    import nmrqc.integrator
    spec, *entry = _CANNED[name]
    want = (emit_table(run_experiment(spec), "json") + "\n").encode("utf-8")
    fresh = replace(spec)   # not compiled by an earlier test
    monkeypatch.setitem(_CANNED, name, (fresh, *entry))
    calls = _count_runs(monkeypatch)
    out = tmp_path / "table.json"
    argv = ["tables", name, "--format", "json", "--out", str(out)]
    texts = []
    for _ in range(3):
        nmrqc.integrator.clear_propagator_cache()
        assert main(argv) == 0
        texts.append(out.read_bytes())
    assert texts == [want] * 3 and len(calls) == 1
    compiled = fresh._compiled
    assert main(argv + ["--delta", "0.01"]) == 0
    assert out.read_bytes() == want and len(calls) == 2
    assert canned_spec(name) is fresh and fresh == spec and fresh._compiled is compiled


def test_cold_walk_stacks_without_the_harness(kernel_calls):
    """program_unitaries on its own, from an empty cache, integrates the
    stacks a table of the same programs would: it has them integrated
    itself."""
    import nmrqc.integrator
    programs = ([build_qa("00", variant, style, k=k)
                 for variant in (1, 2, 3) for style in ("rotating_sf", "static_sf")
                 for k in (1, 2, 3, 4, 5, 6)]
                + [build_grover(item, "static_sf", k=2) for item in range(4)])
    keys = {eo for p in programs for eo in p.steps}
    nmrqc.integrator.clear_propagator_cache()
    program_unitaries(programs)
    info = nmrqc.integrator._cached_propagator.cache_info()
    assert (info.misses, info.hits) == (len(keys), 0)
    assert sorted(kernel_calls) == _expected_stacks(keys)
    # 13 spin-2 classes, split by the cap into 10 and 3
    assert {("quarter", 10), ("quarter", 3)} <= set(kernel_calls)
    assert ("rotating", 1) not in kernel_calls


def test_cache_fill_integrates_each_rotating_key_once(monkeypatch):
    """Tables sharing pulses, run one after another from an empty cache,
    store each distinct pulse key once, and integrate only the classes of
    their keys: a later table's walk leaves out what an earlier one
    cached."""
    import nmrqc.integrator
    stacks = []
    kernel = nmrqc.integrator._stepped_propagator
    monkeypatch.setattr(
        nmrqc.integrator, "_stepped_propagator",
        lambda d, block: stacks.append((d.fold, d.eos)) or kernel(d, block))
    calls = _count_runs(monkeypatch)
    nmrqc.integrator.clear_propagator_cache()
    for style in ("rotating_sf", "static_sf"):
        for variant in (1, 2, 3):
            run_experiment(ExperimentSpec(style=style, cnot_variant=variant,
                                          k_list=(1, 2)))
        run_experiment(ExperimentSpec(kind="grover", style=style, k_list=(1, 2)))
    for k in (1, 2):
        run_experiment(ExperimentSpec(k_list=(k,), tau_offsets=(-0.1, 0.0, 0.1)))
    for fold in ("rotating", "quarter"):
        keys = {eo for ps in calls for p in ps for eo in p.steps
                if eo.is_rotating == (fold == "rotating") and not eo.is_diagonal}
        classes = {nmrqc.integrator._z_class(eo)[0] for eo in keys}
        integrated = [eo for f, stack in stacks if f == fold for eo in stack]
        assert (len(keys), len(classes)) == (26, 12)
        # a class comes back when a later walk misses another of its keys
        assert set(integrated) == classes and len(integrated) < len(keys)
    assert {f for f, _ in stacks} == {"rotating", "quarter"}
    every_key = {eo for ps in calls for p in ps for eo in p.steps}
    assert nmrqc.integrator._cached_propagator.cache_info().misses == len(every_key)

    stacks.clear()                  # clearing the cache forgets them all
    nmrqc.integrator.clear_propagator_cache()
    run_experiment(ExperimentSpec(k_list=(1,)))
    assert [set(s) for _, s in stacks] == [
        {nmrqc.integrator._z_class(eo)[0] for p in calls[-1] for eo in p.steps
         if eo.is_rotating}]


def test_perturbation_zero_offset_matches_base():
    spec = ExperimentSpec(kind="qa", style="rotating_sf", cnot_variant=1,
                          inputs=("singlet",), k_list=(1,))
    base = run_experiment(spec)
    pert = run_experiment(
        ExperimentSpec(kind="qa", style="rotating_sf", cnot_variant=1,
                       inputs=("singlet",), k_list=(1,),
                       tau_offsets=(0.0,)))
    row = _qa_row_label(spec, "singlet")
    assert pert.cell(row, "+0") == pytest.approx(base.cell(row, 8), abs=1e-12)


def test_perturbation_keeps_every_k():
    # one block of offset columns per k; none is dropped
    spec = ExperimentSpec.from_dict({"k_list": [1, 2], "tau_offsets": [0.0]})
    pert = run_experiment(spec)
    base = run_experiment(ExperimentSpec(k_list=(1, 2)))
    assert pert.title == "duration perturbation (s=8, 16)"
    assert pert.col_labels == ["+0@s=8", "+0@s=16"]
    for row in pert.row_labels:
        assert pert.cell(row, "+0@s=8") == base.cell(row, 8)
        assert pert.cell(row, "+0@s=16") == base.cell(row, 16)


def test_ideal_duration_study_keeps_the_first_k():
    # the ideal style has no pulse duration, so another k is the same block
    pert = run_experiment(ExperimentSpec(style="ideal", k_list=(2, 1),
                                         tau_offsets=(0.0, 0.1)))
    assert pert.title == "duration perturbation (ideal)"
    assert pert.col_labels == ["+0", "+0.1"]


def test_a_one_third_machine_designs_its_own_pulses():
    # every pulse is designed at h2z/h1z = 1/3, so the columns count its
    # t1 = 6k, and at k=32 the three CNOT orderings agree with each other
    # and with the ideal (measured: spread 0.0012, deviation 0.0015)
    machine = MachineConfig(h2z=1 / 3)
    cells, deviation = {}, 0.0
    for variant in (1, 2, 3):
        spec = ExperimentSpec(cnot_variant=variant, k_list=(1, 32), machine=machine)
        table = run_experiment(spec)
        assert table.col_labels == ["6", "192"]
        for inp in spec.inputs:
            row = _qa_row_label(spec, inp)
            cells.setdefault(inp, []).append(table.cell(row, 192))
            deviation = max(deviation, *np.abs(np.subtract(table.cell(row, 192),
                                                           table.ideal[row])))
    spread = max(np.ptp(np.array(v), axis=0).max() for v in cells.values())
    assert spread <= 0.002 and deviation <= 0.002
    pert = run_experiment(ExperimentSpec(inputs=("singlet",), k_list=(1, 32),
                                         tau_offsets=(0.0,), machine=machine))
    assert pert.title == "duration perturbation (s=6, 192)"
    assert pert.col_labels == ["+0@s=6", "+0@s=192"]


@pytest.mark.parametrize("h2z, message", [
    (0.2515, "machine field ratio h2z/h1z = 0.2515 is not N/M with M <= 64"),
    (1.5, "machine field ratio 1.5 outside (0, 1)")])
@pytest.mark.filterwarnings("error")
def test_cli_run_on_a_machine_without_a_design_is_bad_input(h2z, message, tmp_path,
                                                            capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"machine": {"h2z": h2z}}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and len(err.splitlines()) == 1
    # the ideal style designs no pulse, so it runs on any machine
    path.write_text(json.dumps({"machine": {"h2z": h2z}, "style": "ideal"}))
    assert main(["run", str(path)]) == 0


def test_duplicate_k_names_the_label_of_its_machine():
    """A k prints as its pulse duration on the spec's own machine: 6 for
    k = 1 at h2z/h1z = 1/3, not the 8 of the default machine."""
    with pytest.raises(ConfigurationError,
                       match="k_list share the column label 6:"):
        ExperimentSpec.from_dict({"machine": {"h2z": 1 / 3}, "k_list": [1, 1]})


@pytest.mark.parametrize("machine", [{}, {"h2z": 1 / 3}, {"h2z": 0.2515}])
def test_ideal_duplicate_k_names_the_k(machine, tmp_path, capsys):
    """The ideal style prints no k, so a repeated k is named as itself, on
    every machine, whether or not a pulse can be designed on it."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"machine": machine, "style": "ideal",
                                "k_list": [2, 1, 3, 1, 2]}))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "error: k_list repeats k 1, 2\n"


def test_parse_angle_forms():
    assert parse_angle("pi/2") == pytest.approx(np.pi / 2)
    assert parse_angle("2pi") == pytest.approx(2 * np.pi)
    assert parse_angle("-pi") == pytest.approx(-np.pi)
    assert parse_angle("1.5") == 1.5
    with pytest.raises(ConfigurationError):
        parse_angle("one radian")


def test_cli_design_prints_sheet_row(capsys):
    rc = main(["design", "1", "pi/2", "y", "rotating", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.0312500" in out and "0.0078125" in out
    assert out.splitlines()[0].startswith("pulse | tau/2pi | omega")


def test_cli_out_writes_to_a_fifo_and_to_devnull(tmp_path, capsys):
    """--out writes what stdout would get into a FIFO, whose reader gets
    every byte, and into the null device; neither is truncated, which
    ftruncate refuses for them."""
    argv = ["design", "1", "pi/2", "y", "rotating", "1"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    fifo = tmp_path / "sheet.fifo"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as f:
            got.append(f.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    assert main(argv + ["--out", str(fifo)]) == 0
    reader.join(timeout=60)
    assert got == [want]
    assert main(argv + ["--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_cli_design_uses_the_machine_of_its_ratio(capsys):
    # --n 11 --m 40 designs on the machine with h2z = 0.275: the drive
    # resonates with spin 2 there, and the spectator channel (spin 1)
    # carries 40/11 of the target's amplitude
    rc = main(["design", "2", "pi/2", "x", "rotating", "1", "--n", "11", "--m", "40"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    row = lines[1].split(" | ")
    tau, omega, sf1x, sf2x = row[1], row[2], float(row[3]), float(row[4])
    assert (tau, omega) == ("128000", "0.28")
    # each printed amplitude is off by at most half a unit of its 7th decimal
    assert abs(sf1x - 40 / 11 * sf2x) <= (1 + 40 / 11) * 0.5e-7
    assert lines[2] == "margin 2kNM(M-N) = 25520"


def test_cli_design_margin_is_the_machines(capsys):
    # --n 2 --m 8 is the machine h2z = 1/4, whose ratio in lowest terms
    # gives the margin 2*1*4*3 = 24, not the arguments' 2*2*8*6 = 192
    rc = main(["design", "1", "pi/2", "y", "rotating", "1", "--n", "2", "--m", "8"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[2] == "margin 2kNM(M-N) = 24"


def test_cli_design_rejects_bad_axis(capsys):
    rc = main(["design", "1", "pi/2", "q", "rotating", "1"])
    assert rc == 2


def test_cli_design_takes_a_negative_axis_as_its_help_shows(capsys):
    """A bare -x reads as an option, so the axis help shows a negative
    axis after --; that form prints the -x sheet, whose amplitudes are
    the x pulse's negated."""
    with pytest.raises(SystemExit) as exc:
        main(["design", "-h"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "x, y, -x or -y; a negative axis goes after --" in help_text
    assert "design 1 pi/2 -- -x rotating 1" in help_text
    assert main(["design", "1", "pi/2", "--", "-x", "rotating", "1"]) == 0
    assert capsys.readouterr() == (
        "pulse | tau/2pi | omega | sf1x | sf2x | phi_x | sf1y | sf2y | phi_y\n"
        "spin1 -x 1.5708rad rotating k=1 | 8 | 1.00 | 0.0312500 | 0.0078125"
        " | -0.50*pi | 0.0312500 | 0.0078125 | 0\n"
        "margin 2kNM(M-N) = 24\n", "")


@pytest.mark.parametrize("argv", [["1", "pi/2", "-x", "rotating", "1"],
                                  ["2", "pi/2", "-y", "static_axis", "1", "--n", "11"],
                                  ["1", "pi/2", "y", "rotating", "1", "-x"]])
def test_cli_design_names_a_bare_negative_axis(argv, capsys):
    """A negative axis typed without -- would read as an unknown option
    and shift the mode and k; it is bad input, in one line that names the
    axis and shows the -- form."""
    assert main(["design", *argv]) == 2
    axis = next(a for a in argv if a in ("-x", "-y"))
    assert capsys.readouterr() == (
        "", f"error: axis {axis} goes after --, which ends the options: "
        f"nmrqc design 1 pi/2 -- {axis} rotating 1\n")


_HUGE_K = str(10 ** 308)


@pytest.mark.parametrize("argv", [["tables", "table9", "--final-rotation-style", "exact"],
                                  ["run", '{"kind": "grover", "cnot_variant": 3}'],
                                  ["run", '{"k_list": [1]}', "--out", ""],
                                  ["design", "1", "-pi/2", "x", "rotating", "1"],
                                  ["design", "2", "-pi", "y", "static_axis", "1"],
                                  ["run", '{"k_list": [1e308]}'],
                                  ["run", '{"k_list": [%s]}' % _HUGE_K],
                                  ["design", "1", "pi", "x", "rotating", _HUGE_K]])
def test_cli_bad_input_is_one_error_line(argv, tmp_path, capsys):
    """A field the table does not read (a flag of `tables` or a spec
    field), an empty --out path, a negative angle in pi form (a value,
    not an option, which the angle check names), and a k whose pulse
    duration is no finite float (from a spec, here written to a file, or
    a flag; the error names the duration) are bad input: exit status 2,
    nothing on stdout and one `error:` line."""
    huge = any("1e308" in a or _HUGE_K in a for a in argv)
    if argv[0] == "run":
        spec = tmp_path / "spec.json"
        spec.write_text(argv[1])
        argv = ["run", str(spec), *argv[2:]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if argv[0] == "design" and argv[2].startswith("-"):
        assert err == f"error: angle must lie in [0, 4*pi], got {parse_angle(argv[2])!r}\n"
    if huge:
        assert re.fullmatch(r"error: pulse duration \d\.\d\de\+3\d\d is too long: "
                            r"it is not a finite float\n", err)


def test_markdown_of_every_canned_table_has_one_cell_per_header_cell():
    """A pipe in a row label, as in (CNOT1)^5|00>, is escaped, so that
    every line of the markdown splits into as many cells as its header."""
    for name in canned_names():
        lines = emit_table(run_experiment(canned_spec(name))).splitlines()
        assert {len(re.split(r"(?<!\\)\|", line)) for line in lines} == {
            len(lines[0].split("|"))}, name
    assert "\n(CNOT1)^5\\|00> | " in emit_table(run_experiment(canned_spec("table5")))


def test_cli_bad_tau_offset_is_bad_input(capsys):
    assert main(["tables", "table10", "--tau-offset", "ab"]) == 2
    assert capsys.readouterr().err == (
        "error: argument --tau-offset: invalid float value: 'ab'\n")


@pytest.mark.parametrize("command", ["run", "tables"])
def test_cli_help_of_tau_offset(command, capsys):
    """`tables`, the one command that takes --tau-offset, shows its help;
    `run` runs its spec file as written and shows no field flag.  -h
    still exits 0."""
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    flags = ("--tau-offset TAU_OFFSET duration offset for the phase evolution",
             "--delta DELTA", "--final-rotation-style")
    assert [flag in help_text for flag in flags] == [command == "tables"] * 3


def test_cli_run_with_config(tmp_path, capsys):
    spec = {"kind": "qa", "style": "rotating_sf", "cnot_variant": 1,
            "inputs": ["00"], "k_list": [1], "title": "cli smoke"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out_file = tmp_path / "result.csv"
    umask = os.umask(0o027)
    try:
        rc = main(["run", str(path), "--format", "csv", "--out", str(out_file)])
    finally:
        os.umask(umask)
    assert rc == 0
    assert out_file.read_text().startswith("Operation,")
    # a new file gets the mode open() gives: 0o666 less the umask
    assert stat.S_IMODE(out_file.stat().st_mode) == 0o666 & ~0o027


def test_cli_sweep_small(tmp_path, capsys):
    """A sweep is a spec file."""
    path = tmp_path / "sweep.json"
    path.write_text('{"cnot_variant": 2, "k_list": [1]}')
    rc = main(["run", str(path), "--format", "markdown"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.24" in out  # the order-sensitivity signature cell


def test_cli_tables_markdown(tmp_path, capsys):
    rc = main(["tables", "table5", "--format", "markdown"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0].startswith("Operation | a | b | a_8")
    assert "0.90" in out
    # --out over the longer JSON of the same table leaves no stale tail:
    # the file holds exactly what stdout got
    path = tmp_path / "table5.txt"
    for fmt in ("json", "markdown"):
        assert main(["tables", "table5", "--format", fmt, "--out", str(path)]) == 0
    assert path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("argv, status", [(["verify", "--quick"], 0),
                                          (["tables", "nope"], 2)])
def test_python_m_nmrqc_passes_the_exit_status_on(argv, status):
    """`python -m nmrqc` runs the command line and exits with its status."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "nmrqc", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == status, done.stderr
    if status == 0:
        assert "PASSED" in done.stdout


def test_a_closed_pipe_exits_141_and_writes_no_error():
    """A reader that went away before the table was written is not bad
    input: the command exits 128 + SIGPIPE, with nothing on stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "nmrqc", "tables", "table9",
                               "--format", "csv"], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, "")


def test_cli_missing_config_file(capsys):
    assert main(["run", "/nonexistent/spec.json"]) == 2


@pytest.mark.parametrize("text", ['{"kind": "qa",', '{"bogus": 1}',
                                  '{"cnot_variant": 4}', '{"k_list": [1.5]}',
                                  '{"delta": 5}', '{"inputs": 5}',
                                  '{"items": 5}', '{"k_list": 3}',
                                  '{"tau_offsets": "ab"}', '{"inputs": "00"}',
                                  '{"inputs": []}', '{"items": []}',
                                  '{"inputs": ["02"]}', '{"items": [4]}',
                                  '{"final_rotation_style": "bogus"}',
                                  '{"delta": "x"}', '{"delta": null}',
                                  '{"machine": {"h1z": 0}}',
                                  '{"machine": {"h2z": "x"}}',
                                  '{"machine": {"coupling": "x"}}',
                                  '{"machine": {"coupling": 0}, "k_list": [1]}',
                                  '{"cnot_variant": true}', '{"k_list": [true]}',
                                  '{"k_list": [1], "tau_offsets": [1e308]}',
                                  '{"k_list": [1], "tau_offsets": [1e308, -1e308]}',
                                  '{"k_list": [1000000000000000]}',
                                  '{"title": ["x"], "k_list": [1], "style": "ideal"}',
                                  '{"perturb_label": "Ip"}',
                                  '{"k_list": [1, 1]}',
                                  '{"kind": "grover", "items": [3, 3]}',
                                  '{"inputs": ["00", "00"]}',
                                  '{"k_list": [1], "tau_offsets": [0, 0.0]}',
                                  '{"delta": 1' + "0" * 400 + '}',
                                  '{"k_list": [1], "tau_offsets": [1' + "0" * 400 + ']}',
                                  '{"machine": {"h1z": 1' + "0" * 400 + '}}',
                                  '{"k_list": [1e308]}',
                                  pytest.param('{"k_list": [1' + "0" * 5000 + ']}',
                                               id="k_past_the_int_digit_limit"),
                                  pytest.param('{"delta": 1' + "0" * 5000 + '}',
                                               id="delta_past_the_int_digit_limit"),
                                  pytest.param(b"\xff\xfe", id="not_utf8"),
                                  pytest.param("[" * 100000 + "]" * 100000,
                                               id="nested_too_deeply")])
@pytest.mark.filterwarnings("error")  # a warning would print a line of its own
def test_cli_run_bad_spec_is_bad_input(text, tmp_path, capsys):
    path = tmp_path / "spec.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["sweep"],   # a sweep is a spec file: no such command
    ["design", "1", "pi/2", "y", "rotating", "1", "--out", "{tmp}"],
    ["tables", "table5", "--format", "json", "--out", "{tmp}"],
    ["design", "1", "pi/2", "y", "rotating", "1", "--out", "{tmp}/missing/sheet.txt"],
    ["tables", "table5", "--delta", "5"],
    ["tables", "table5", "--tau-offset", "1e308"],
    ["tables", "table10", "--tau-offset", "0.1", "--tau-offset", "0.1000004",
     "--format", "csv"],
    ["run", '{"kind": "grover", "k_list": [1, 1]}', "--format", "json"],
    ["run", '{"k_list": [2, 1, 2]}'],
    ["design", "1", "pi/0", "x", "rotating", "1"],
    ["design", "1", "pi/.", "x", "rotating", "1"],
    ["design", "1", "1.2.3pi", "x", "rotating", "1"],
    # flags and arguments the parser refuses: no usage block either
    ["run"],
    ["run", "spec.json", "--format", "yaml"],
    ["run", "spec.json", "--tau-offset"],
    ["tables", "nope"],
    ["tables", "table5", "--delta", "x"],
    ["tables", "table5", "--final-rotation-style", "bogus"],
    ["tables", "table5", "--bogus"],
    # `run` runs its file as written: it takes no field flag
    ["run", '{"k_list": [1]}', "--delta", "0.02"],
    ["run", '{"k_list": [1]}', "--final-rotation-style", "exact"],
    ["run", '{"k_list": [1]}', "--tau-offset", "0.1"],
    ["design", "3", "pi/2", "y", "rotating", "1"],
    ["design", "1", "pi/2", "y", "rotating", "x"],
    ["design", "1", "pi/2", "y", "circular", "1"],
    ["design", "1", "pi/2", "y", "rotating", "1", "--n", "x"],
    ["design", "1", "pi/2"],
    ["verify", "--quick", "extra"],
    ["nope"],
    [],
])
@pytest.mark.filterwarnings("error")
def test_cli_bad_arguments_are_bad_input(argv, tmp_path, capsys):
    """A spec given as JSON text is written to a file, which `run` reads."""
    if argv[1:2] and argv[1].startswith("{"):
        spec = tmp_path / "spec.json"
        spec.write_text(argv[1])
        argv = ["run", str(spec), *argv[2:]]
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
def test_non_finite_delta_is_bad_input(bad, tmp_path, capsys):
    with pytest.raises(ConfigurationError):
        ExperimentSpec(delta=bad)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "qa", "k_list": [1], "delta": bad}))
    assert main(["run", str(path)]) == 2
    assert main(["tables", "table5", "--delta", str(bad)]) == 2
    assert "delta must be positive and finite" in capsys.readouterr().err


def test_cli_negative_phase_evolution_is_bad_input(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "qa", "k_list": [1],
                                "tau_offsets": [-2000000.0], "inputs": ["00"]}))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: EO 'Ip': duration must be non-negative")
    assert len(err.splitlines()) == 1


def test_cli_verify_quick(capsys):
    rc = main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.findall(r"^\[PASS\] (\S+)", out, re.M) == [
        c.name for c in CHECKS if not c.runs_tables]
    assert out.strip().endswith("verification PASSED")


def test_norm_preservation_prints_its_bound_not_the_noise():
    (check,) = [c for c in CHECKS if c.name == "norm-preservation"]
    result = check([])
    assert result.passed
    assert result.detail == "perturbed QA2 s=256: norm within 1e-10 of 1"
    wider = replace(check, tolerance=1e-3)([])
    assert wider.detail == "perturbed QA2 s=256: norm within 0.001 of 1"


def test_a_check_judges_with_the_tolerance_it_prints():
    """Each check is handed its own tolerance: the bound a report prints
    is the one the check judged with."""
    (check,) = [c for c in CHECKS if c.name == "halving-ratio"]
    assert check([]).passed
    exact = replace(check, tolerance=0.0)([])
    assert (exact.tolerance, exact.passed) == (0.0, False)


def test_cli_tables_final_rotation_style_override(capsys):
    assert main(["tables", "table5", "--final-rotation-style", "exact",
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    spec = canned_spec("table5")
    assert out == emit_table(run_experiment(
        replace(spec, final_rotation_style="exact")), "json") + "\n"
    assert out != emit_table(run_experiment(spec), "json") + "\n"


def test_cli_tables_tau_offset_override(capsys):
    rc = main(["tables", "table5", "--tau-offset", "0", "--tau-offset", "0.05",
               "--format", "csv"])
    out = capsys.readouterr().out
    assert rc == 0
    header = out.splitlines()[0]
    assert "a_+0" in header and "a_+0.05" in header


def test_cli_parser_is_built_once_and_keeps_no_state(capsys):
    from nmrqc.cli import build_parser
    assert build_parser() is build_parser()
    for _ in range(2):  # a second --tau-offset does not add to the first
        assert main(["tables", "table10", "--tau-offset", "0.1",
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["columns"] == ["+0.1"]
    assert main(["tables", "table10", "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert json.loads(plain)["columns"] == [
        f"{o:+g}" for o in ref.PERTURBATION_OFFSETS]
    assert plain.strip() == emit_table(run_experiment(canned_spec("table10")),
                                       "json")


def test_grover_static_suite_spot_cells():
    table = run_experiment(canned_spec("grover_static"))
    assert table.cell("0", 8) == pytest.approx((0.92, 0.91), abs=0.01)
    assert table.cell("2", 8) == pytest.approx((0.95, 0.10), abs=0.01)
    assert table.cell("3", 64) == pytest.approx((0.97, 0.97), abs=0.01)


def test_verify_suite_passes_and_logs_exclusions():
    report = verify_suite(include_tables=True)
    text = str(report)
    assert report.passed, text
    names = [c.name for c in report.checks]
    assert names == [c.name for c in CHECKS]
    assert {"ideal-baseline", "step-size-independence",
            "coupling-off-during-pulses", *canned_names()} <= set(names)
    excluded = [ref.SUSPECT_GROVER_ROTATING, ref.SUSPECT_GROVER_STATIC,
                ref.SUSPECT_PERTURBATION, ref.SUSPECT_ROTATING_SPIN2]
    assert sum("excluded" in n for n in report.notes) == sum(map(len, excluded))
    assert text.strip().endswith("verification PASSED")


def test_verify_fails_the_table_whose_published_cell_moves(monkeypatch, capsys):
    ideal, ((a, b), *rest) = ref.QA_ROTATING_CNOT1["singlet"]
    spec = canned_spec("table5")
    got = run_experiment(spec).cell(_qa_row_label(spec, "singlet"), 8)[0]
    substitutes10 = _CANNED["table10"][2]    # built from the sheet at import
    comp, (forced,), why = substitutes10[("01", "+0")]
    # a published cell off the print by 0.05, then just outside and just
    # inside the tolerance; a forced duration-study value off by 0.05;
    # a published ideal pair off by 0.05
    edits = [(ref.QA_ROTATING_CNOT1, "singlet", (ideal, [(moved, b), *rest]), failing)
             for moved, failing in [(a + 0.05, "table5"),
                                    (got + 1.01 * ref.RESULT_TOL, "table5"),
                                    (got - 0.99 * ref.RESULT_TOL, None)]]
    edits.append((substitutes10, ("01", "+0"), (comp, (forced - 0.05,), why),
                  "table10"))
    # table6's check alone reads the ideal pairs of CNOT2
    ideal6, cells6 = ref.QA_ROTATING_CNOT2["00"]
    edits.append((ref.QA_ROTATING_CNOT2, "00", ((ideal6[0] + 0.05, ideal6[1]), cells6),
                  "table6"))
    for sheet, key, value, failing in edits:
        with monkeypatch.context() as m:
            m.setitem(sheet, key, value)
            assert [c.name for c in verify_suite().checks if not c.passed] == (
                [failing] if failing else [])
            assert main(["verify"]) == (1 if failing else 0)
            assert (f"[FAIL] {failing} " in capsys.readouterr().out) == bool(failing)


# Every memo a compile or a plan fills, by module and name; with the
# compiled table of each canned spec (``ExperimentSpec._compiled``), they
# are everything a process's first run of a table builds that a rerun
# reuses.  CI's five-runs step clears them through
# _forget_every_compile_and_plan, and test_every_memo_is_listed keeps the
# list complete.
_MEMOS = {"nmrqc.programs": ("_gate_step", "_expand", "_ideal_unitary", "_shifted_step"),
          "nmrqc.gates": ("_ideal_gate",),
          "nmrqc.integrator": ("_plan", "_layout"),
          "nmrqc.harness": ("_json_layout",)}
# The memos their module fills when it loads, so that no run fills them:
# the command-line parser and the default machine's field ratio.
_FILLED_AT_IMPORT = {"nmrqc.cli": ("build_parser",),
                     "nmrqc.pulses": ("RationalGamma.from_machine",)}


def _memos():
    import importlib
    return [getattr(importlib.import_module(module), name)
            for module, names in _MEMOS.items() for name in names]


def _forget_every_compile_and_plan():
    for memo in _memos():
        memo.cache_clear()
    for name in canned_names():
        canned_spec(name).__dict__.pop("_compiled", None)


def _lru_caches() -> dict[str, set]:
    """The functools.lru_cache wrappers defined in each nmrqc module, by
    module: the name of each, a method's as Class.method, found among the
    module's globals and its classes' attributes."""
    import functools
    import importlib
    import pkgutil

    import nmrqc
    found = {}
    for info in pkgutil.iter_modules(nmrqc.__path__, "nmrqc."):
        if info.name == "nmrqc.__main__":   # importing it runs the command line
            continue
        module = importlib.import_module(info.name)
        for obj in list(vars(module).values()):
            for attr in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                attr = getattr(attr, "__func__", attr)   # a classmethod's function
                if (isinstance(attr, functools._lru_cache_wrapper)
                        and attr.__module__ == info.name):
                    found.setdefault(info.name, set()).add(attr.__qualname__)
    return found


def test_every_memo_is_listed():
    """Every lru_cache of the package is a memo a first run fills
    (_MEMOS, which the first-run tests and CI clear) or one filled at
    import (_FILLED_AT_IMPORT), and no entry of either names a memo that
    is gone: a new memo fails here until it is listed."""
    listed = {}
    for memos in (_MEMOS, _FILLED_AT_IMPORT):
        for module, names in memos.items():
            assert not listed.get(module, set()) & set(names), module
            listed.setdefault(module, set()).update(names)
    assert _lru_caches() == listed


@pytest.mark.parametrize("name", canned_names())
def test_a_first_run_equals_a_rerun(name, tmp_path):
    """A canned table run with every compile and plan memo empty, as a
    fresh process runs it, prints the bytes of a warm run and stores the
    same propagators, EO by EO."""
    from nmrqc.integrator import _cached_propagator, clear_propagator_cache
    out = tmp_path / "table.json"
    runs = []
    for first in (True, False, False):
        if first:
            _forget_every_compile_and_plan()
        if len(runs) < 2:   # the third run is warm: its propagators are stored
            clear_propagator_cache()
        assert main(["tables", name, "--format", "json", "--out", str(out)]) == 0
        runs.append((out.read_bytes(), dict(_cached_propagator)))
    (first_text, first_store), (rerun_text, rerun_store), (warm_text, _) = runs
    assert first_text == rerun_text == warm_text
    assert list(first_store) == list(rerun_store)
    for eo, u in first_store.items():
        assert np.array_equal(u, rerun_store[eo]), eo.label


def test_every_canned_gate_step_is_its_checked_design():
    """A builder designs its gate steps without checking again what it
    checked; each canned one equals design_pulse's EO (or the gate's
    ideal EO), the same EO built by EOParams' own __init__, and hashes
    alike."""
    from nmrqc import design_pulse, ideal_eo_params
    from nmrqc.gates import GATE_NAMES, gate_rotation
    from nmrqc.hamiltonian import EOParams
    from nmrqc.operators import TWO_PI
    from nmrqc.programs import _STYLE_MODE, IDEAL, _gate_step
    names = [n for n in GATE_NAMES if n not in ("I", "G", "CNOT")] + ["Gcore"]
    for spec in (canned_spec(name) for name in canned_names()):
        for k in spec.k_list:
            for name in names:
                step = _gate_step(name, spec.style, k, spec.machine, spec.delta)
                if name in ("Ip", "Gcore") or spec.style == IDEAL:
                    want = ideal_eo_params("Ip" if name == "Gcore" else name,
                                           spec.machine)
                    if name == "Gcore":
                        want = want.replace(label="Gcore")
                else:
                    spin, axis, direction, turns = gate_rotation(name, spec.machine)
                    want = design_pulse(spin, TWO_PI * turns, axis, k=k,
                                        mode=_STYLE_MODE[spec.style],
                                        direction=direction, machine=spec.machine,
                                        label=name, delta=spec.delta)
                built = EOParams(**asdict(step))
                assert step == want == built, (name, spec.style, k)
                assert hash(step) == hash(want) == hash(built), (name, spec.style, k)


def test_importing_the_command_line_compiles_and_plans_nothing():
    """`import nmrqc.cli` leaves every compile and plan memo empty and
    compiles no canned spec: a first run pays for all of it.  Each memo
    filled at import holds one entry."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import functools, importlib, json, nmrqc.cli\n"
        "from nmrqc.harness import canned_names, canned_spec\n"
        f"memos = {({**_MEMOS, **_FILLED_AT_IMPORT})!r}\n"
        "sizes = {f'{m}.{n}': functools.reduce(getattr, n.split('.'),\n"
        "                                      importlib.import_module(m)).cache_info().currsize\n"
        "         for m, names in memos.items() for n in names}\n"
        "compiled = [n for n in canned_names() if '_compiled' in vars(canned_spec(n))]\n"
        "print(json.dumps([sizes, compiled]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    sizes, compiled = json.loads(done.stdout)
    assert {k: v for k, v in sizes.items() if v} == {
        f"{m}.{n}": 1 for m, names in _FILLED_AT_IMPORT.items() for n in names}
    assert compiled == []
