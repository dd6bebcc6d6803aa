"""The benchmark's workloads: which table requests each one makes, and how.

A request is one result table.  Cold requests go through the command
line front end with an empty propagator cache, as a fresh
``nmrqc tables <name>`` process would; warm requests go through the
library (``run_experiment`` + ``emit_table``) and share one cache.

Every pass of a workload makes each of its requests once; the seed only
permutes the order of each pass, so every seed does the same work.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import nmrqc.cli
import nmrqc.harness
import nmrqc.integrator
from nmrqc.harness import ExperimentSpec, canned_spec
from nmrqc.programs import ROTATING_SF, STATIC_SF

COLD_ROTATING = ("table5", "table6", "table7", "table9", "table10")
COLD_STATIC = ("table8", "grover_static")

# Short-pulse menu of the warm sweep, all at k in {1, 2} (s = 8, 16).
SWEEP_OFFSETS = (-0.1, 0.0, 0.1)


def _sweep_menu() -> dict[str, ExperimentSpec]:
    menu = {}
    for style, tag in ((ROTATING_SF, "rot"), (STATIC_SF, "static")):
        for variant in (1, 2, 3):
            menu[f"qa_cnot{variant}_{tag}"] = ExperimentSpec(
                kind="qa", style=style, cnot_variant=variant, k_list=(1, 2))
        menu[f"search_{tag}"] = ExperimentSpec(kind="grover", style=style,
                                               k_list=(1, 2))
    for k in (1, 2):
        menu[f"tau_offsets_k{k}"] = ExperimentSpec(
            kind="qa", style=ROTATING_SF, cnot_variant=1, k_list=(k,),
            tau_offsets=SWEEP_OFFSETS)
    return menu


SWEEP_MENU = _sweep_menu()

WORKLOADS = ("cold_rotating", "cold_static", "sweep_warm")

# Seconds one timed pass took, calibration kernel included, on the seed
# commit and the host the benchmark was defined on.  A timed run makes
# ceil(seconds / PASS_S) passes, so its sample count depends on
# --seconds alone and not on how fast the program is.
PASS_S = {"cold_rotating": 20.0, "cold_static": 10.0, "sweep_warm": 0.65}


def timed_passes(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / PASS_S[workload]))


@dataclass(frozen=True)
class Request:
    name: str                # key of the request in golden.json
    spec: ExperimentSpec     # what the request computes
    cold: bool               # CLI with an emptied cache, else library path


def requests(workload: str) -> list[Request]:
    if workload == "cold_rotating":
        return [Request(n, canned_spec(n), True) for n in COLD_ROTATING]
    if workload == "cold_static":
        return [Request(n, canned_spec(n), True) for n in COLD_STATIC]
    if workload == "sweep_warm":
        return [Request(n, s, False) for n, s in SWEEP_MENU.items()]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def all_requests() -> list[Request]:
    """Every request any workload seed can make."""
    return [r for w in WORKLOADS for r in requests(w)]


class PassOrder:
    """Seeded order of the requests, redrawn for every pass."""

    def __init__(self, reqs: list[Request], seed: int):
        self._reqs = list(reqs)
        self._rng = random.Random(seed)

    def next_pass(self) -> list[Request]:
        order = list(self._reqs)
        self._rng.shuffle(order)
        return order


def run_request(req: Request, out_file: Path) -> tuple[str, float]:
    """Make one request; return its JSON output and its wall time in s.

    Names are looked up on the nmrqc modules at call time, so a tracer
    that replaced them sees the call.  Raises RuntimeError when the
    command line reports a failure.
    """
    if req.cold:
        nmrqc.integrator.clear_propagator_cache()
        argv = ["tables", req.name, "--format", "json", "--out", str(out_file)]
        t0 = time.perf_counter()
        rc = nmrqc.cli.main(argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"nmrqc {' '.join(argv)} exited {rc}")
        return out_file.read_text(encoding="utf-8"), wall
    t0 = time.perf_counter()
    table = nmrqc.harness.run_experiment(req.spec)
    text = nmrqc.harness.emit_table(table, "json")
    wall = time.perf_counter() - t0
    return text, wall
