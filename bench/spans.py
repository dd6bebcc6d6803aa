"""In-memory span tracing around the calls into each nmrqc layer.

The tracer replaces the module-level names that each caller looks up
(``nmrqc.programs.eo_propagator`` is what ``run_program`` calls, and so
on) with wrappers that record a span: layer name, start, end, parent
span and the request it belongs to.  Self time is a span's duration
minus the time its child spans cover.  Nothing is installed outside a
traced pass, so untraced passes run the unmodified program.

A propagator lookup is a miss when it is the first call with its
arguments since the last cache clear; miss counting is done here, from
the outside, and cross-checked against the cache's own statistics by the
caller.
"""
from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

# (module, name, layer) for every wrapped call site.
TARGETS = (
    ("nmrqc.cli", "main", "cli"),
    ("nmrqc.cli", "run_experiment", "harness"),
    ("nmrqc.cli", "emit_table", "harness.render"),
    ("nmrqc.harness", "run_experiment", "harness"),
    ("nmrqc.harness", "emit_table", "harness.render"),
    ("nmrqc.harness", "build_qa", "programs.build"),
    ("nmrqc.harness", "build_grover", "programs.build"),
    ("nmrqc.harness", "with_duration_offset", "programs.build"),
    ("nmrqc.harness", "run_program", "programs.run"),
    ("nmrqc.harness", "qubit_values", "states"),
    ("nmrqc.programs", "design_pulse", "pulses"),
    ("nmrqc.programs", "ideal_gate", "gates"),
    ("nmrqc.programs", "ideal_eo_params", "gates"),
    ("nmrqc.programs", "gate_rotation", "gates"),
    ("nmrqc.programs", "apply_unitary", "states"),
    ("nmrqc.programs", "prepare_basis_state", "states"),
    ("nmrqc.programs", "prepare_singlet", "states"),
    ("nmrqc.programs", "eo_propagator", "integrator"),
)

MISS_CLASSES = ("spin1_rotating", "spin2_rotating", "spin1_static",
                "spin2_static", "diagonal")

# span fields
NAME, START, END, PARENT, REQUEST, MISS = range(6)


def eo_class(eo) -> str:
    """Pulse class from the EO's drive frequency and driven channels."""
    if eo.is_diagonal:
        return "diagonal"
    spin = {eo.h1z: "spin1", eo.h2z: "spin2"}.get(eo.omega)
    x, y = bool(eo.sf1x or eo.sf2x), bool(eo.sf1y or eo.sf2y)
    drive = "rotating" if x and y else "static" if x or y else None
    return f"{spin}_{drive}" if spin and drive else "other"


def step_count(tau: float, delta: float) -> int:
    """Substeps of the integrator's schedule: full steps plus a remainder."""
    n_full = math.floor(tau / delta + 1e-9)
    rem = tau - n_full * delta
    return n_full + (1 if rem > 1e-12 * max(1.0, abs(tau)) else 0)


class Tracer:
    """Records spans while installed; `request` tags the spans it records."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.missing: set[str] = set()   # targets the program no longer has
        self._stack: list[int] = []
        self._seen: set = set()
        self._saved: list[tuple] = []

    def cache_cleared(self) -> None:
        self._seen.clear()

    def install(self) -> None:
        for module_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _lookup(self, eo, args, kwargs):
        """(eo, step) if this propagator lookup is a miss, else None."""
        key = (eo, args, tuple(sorted(kwargs.items())))
        if key in self._seen:
            return None
        self._seen.add(key)
        cfg = args[0] if args else kwargs.get("cfg")
        return eo, eo.delta if cfg is None else cfg.delta

    def _wrap(self, fn, layer):
        propagator = layer == "integrator"

        def traced(*args, **kwargs):
            miss = self._lookup(args[0], args[1:], kwargs) if propagator else None
            stack = self._stack
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, miss]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
        return traced


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Counts and self times per layer over a list of spans."""
    tot: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        layer = s[NAME]
        tot[f"{layer}.calls"] += 1
        tot[f"{layer}.self_s"] += own
        if layer != "integrator":
            continue
        if s[MISS] is None:
            tot["integrator.hit_s"] += own
            continue
        eo, delta = s[MISS]
        cls = eo_class(eo)
        tot["integrator.misses"] += 1
        tot["integrator.miss_s"] += own
        tot[f"integrator.miss_s.{cls}"] += own
        if cls != "diagonal":
            tot["integrator.substeps"] += step_count(eo.tau, delta)
            tot["integrator.stepped_miss_s"] += own
    return tot


def request_self_sums(spans: list[list]) -> dict:
    """Sum of layer self times per request id."""
    out: dict = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s[REQUEST]] += own
    return out


def to_records(spans: list[list]) -> list[dict]:
    """JSON-ready spans, with times relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    return [{"id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "request": s[REQUEST],
             "miss": None if s[MISS] is None else s[MISS][0].label}
            for i, s in enumerate(spans)]
