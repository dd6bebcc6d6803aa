import json
import os

import numpy as np
import pytest
from hypothesis import settings

from nmrqc import eo_propagator, oracle_propagator
from nmrqc.integrator import (_chain, _dense_block, _Drives, _fields_at,
                              _product_formula_block, _step_schedule)
from nmrqc.operators import TWO_PI


# Derandomized property tests, so that a failure in CI reproduces locally
# with CI set.
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture
def kernel_calls(monkeypatch):
    """(fold, size) of each stack the stepping kernel integrates, one per
    call; the fold is "rotating", "quarter", "period" or None (see
    integrator._plan)."""
    import nmrqc.integrator
    calls = []
    kernel = nmrqc.integrator._stepped_propagator

    def counting(drives, delta, block):
        calls.append((drives.fold, len(drives.eos)))
        return kernel(drives, delta, block)

    monkeypatch.setattr(nmrqc.integrator, "_stepped_propagator", counting)
    return calls


def random_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def per_row_reference(spec):
    """Labels, cells and ideals of spec's table, each row built and run alone.

    The reference for the harness, which builds one program per group of
    rows and carries every row of the group through it in one walk.
    """
    from nmrqc import (RationalGamma, build_grover, build_qa,
                       hypothetical_durations, readout, run_program,
                       with_duration_offset)
    from nmrqc.harness import _qa_row_label

    if spec.kind == "qa":
        rows = [(r, _qa_row_label(spec, r)) for r in spec.inputs]
    else:
        rows = [(str(i), str(i)) for i in spec.items]
    # the ideal style has no pulse duration: it keeps the first k alone
    k_list = spec.k_list[:1] if spec.style == "ideal" else spec.k_list

    def s(k):   # the column label: spin-1 pulse length on the spec's machine
        return hypothetical_durations(RationalGamma.from_machine(spec.machine), k)[0]

    if spec.tau_offsets is not None:
        several = len(k_list) > 1
        columns = [(f"{o:+g}" + (f"@s={s(k)}" if several else ""), k, o)
                   for k in k_list for o in spec.tau_offsets]
    elif spec.style == "ideal":
        columns = [("ideal", k_list[0], 0.0)]
    else:
        columns = [(str(s(k)), k, 0.0) for k in k_list]
    cells, ideal = {}, {}
    for key, label in rows:
        for col, k, offset in columns:
            if spec.kind == "qa":
                program = build_qa(key, cnot_variant=spec.cnot_variant,
                                   style=spec.style, k=k, machine=spec.machine,
                                   delta=spec.delta,
                                   final_rotation_style=spec.final_rotation_style)
            else:
                program = build_grover(int(key), style=spec.style, k=k,
                                       machine=spec.machine, delta=spec.delta)
            if offset != 0.0:
                program = with_duration_offset(program, spec.perturb_label, offset)
            (cells[(label, col)],) = readout(run_program(program)[None])
            ideal[label] = program.ideal_expectations
    return [label for _, label in rows], [c for c, _, _ in columns], cells, ideal


def json_reference(table) -> str:
    """The table's JSON as json.dumps writes it, indented by 2 with sorted
    keys: the reference for ResultTable.to_json, which writes the same
    bytes directly."""
    payload = {
        "title": table.title,
        "row_header": table.row_header,
        "columns": table.col_labels,
        "rows": [
            {
                "label": r,
                "ideal": list(table.ideal.get(r, ())),
                "cells": {c: list(table.cells[(r, c)]) for c in table.col_labels},
            }
            for r in table.row_labels
        ],
        "notes": [],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def single_eo(block):
    """The stacked block as a function of one EO: (eo, mids, dt) -> 4x4."""
    def one(eo, mids, dt):
        drives = _Drives((eo,), None)  # a block ignores the fold
        return block(drives, np.reshape(mids, (1, -1)), dt)[0]
    return one


# The stored propagator and the unstored reference, each with its block.
PROPAGATORS = {"product_formula": eo_propagator,
               "dense_midpoint_oracle": oracle_propagator}
BLOCKS = {"product_formula": single_eo(_product_formula_block),
          "dense_midpoint_oracle": single_eo(_dense_block)}


def chained_reference(eo, delta, block):
    """Every substep at its own midpoint, chained in one product, no folding."""
    n_full, rem = _step_schedule(eo.tau, delta)
    dt = delta * TWO_PI
    u = np.eye(4, dtype=complex)
    if n_full:
        u = block(eo, (np.arange(n_full) + 0.5) * dt, dt)
    if rem > 0.0:
        dt_rem = rem * TWO_PI
        u = block(eo, np.array([n_full * dt + dt_rem / 2.0]), dt_rem) @ u
    return u


def split_block(d, mids, dt):
    """As integrator._product_formula_block, with each substep built alone
    as T(dt/2) D(dt) T(dt/2) by one three-operand einsum: the Strang split
    before adjacent half-steps were merged.  The reference for the merged
    factors."""
    dt = np.atleast_2d(dt)
    f = _fields_at(d, mids)
    fx, fy, alpha = f[..., 0], f[..., 1], (dt / 4.0)[..., None]
    rho = np.hypot(fx, fy)
    c = np.cos(alpha * rho)
    i_snc = 1j * (np.sin(alpha * rho) / np.maximum(rho, 1e-300))
    r = np.empty(fx.shape + (2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = c
    r[..., 0, 1] = i_snc * (fx - 1j * fy)
    r[..., 1, 0] = i_snc * (fx + 1j * fy)
    r1, r2 = r[:, :, 0], r[:, :, 1]
    n_eo, m = mids.shape
    t_half = (r2[..., :, None, :, None]
              * r1[..., None, :, None, :]).reshape(n_eo, m, 4, 4)
    phases = np.exp(-1j * dt[..., None] * d.ez[:, None, :])
    return _chain(np.einsum("...ab,...b,...bc->...ac", t_half, phases, t_half))
