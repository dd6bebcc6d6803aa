"""Benchmark worker: sets up one workload, then times or traces it.

Started by run.py in a fresh interpreter with BLAS and OpenMP pinned to
one thread.  It prints ``READY`` once set-up is done (import, request
generation and, for sweep_warm, the propagator-cache fill), exits there
under ``--setup-only``, and otherwise prints one JSON line of raw
measurements for run.py to turn into metrics.

Untraced runs measure a fixed number of whole passes
(``workloads.timed_passes``), timing the calibration kernel of speed.py
between requests.  Traced runs do whole passes until ``--seconds`` have
gone by, making each request untraced and then traced; the difference
between the two is the tracing overhead.  Their figures are means per
pass, so the number of passes does not change what they mean.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import nmrqc.integrator  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


class Tally:
    """Correctness over every request of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.drift = 0.0
        self.flipped = 0

    def add(self, v: checks.Verdict) -> None:
        self.attempted += v.cells
        self.failed += v.failed
        self.drift = max(self.drift, v.drift)
        self.flipped += v.flipped

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "drift_max": self.drift, "flipped": self.flipped}


class Runner:
    def __init__(self, workload: str, seed: int):
        self.reqs = workloads.requests(workload)
        self.order = workloads.PassOrder(self.reqs, seed)
        self.checker = checks.Checker(checks.load_golden())
        self.out_file = OUT_DIR / f"table-{os.getpid()}.json"
        self.tally = Tally()

    def request(self, req):
        """(output text, wall s) of one request, or (None, None) if it raised."""
        try:
            text, wall = workloads.run_request(req, self.out_file)
        except Exception:  # a failing request is counted, and the run goes on
            traceback.print_exc()
            self.tally.add(self.checker.failed_request(req.name))
            return None, None
        self.tally.add(self.checker.check(req.name, req.spec, text))
        return text, wall


def measure(run: Runner, passes: int) -> dict:
    """Request times, raw and scaled, and cells produced, pass by pass.

    The calibration kernel runs between requests; each request's time is
    scaled by the mean of the kernel times on either side of it.  The
    kernel after a request also serves as the one before the next.
    """
    walls, scaled, cells = [], [], []
    kernel = speed.kernel_s()
    for _ in range(passes):
        walls.append([])
        scaled.append([])
        cells.append(0)
        for req in run.order.next_pass():
            text, wall = run.request(req)
            before, kernel = kernel, speed.kernel_after_s(wall or 0.0)
            if text is not None:
                walls[-1].append(wall)
                scaled[-1].append(speed.scaled(wall, before, kernel))
                cells[-1] += run.checker.cell_count(req.name)
    return {"walls": walls, "scaled": scaled, "cells": cells, "passes": len(walls),
            "requests_per_pass": len(run.reqs)}


def _cache_stats():
    """(misses, lookups) of the propagator cache, if the program has it."""
    cached = getattr(nmrqc.integrator, "_cached_propagator", None)
    if cached is None:
        return None
    info = cached.cache_info()
    return info.misses, info.hits + info.misses


def trace(run: Runner, tracer: spans.Tracer, seconds: float, spans_file: Path) -> dict:
    """Per-layer totals of traced requests, each run right after its untraced twin.

    Pairing each request with an untraced run of itself, back to back,
    keeps slow stretches of the machine out of the overhead estimate.
    """
    totals: dict[str, float] = defaultdict(float)
    untraced_s = traced_s = 0.0
    problems: list[str] = []
    passes, rid, worst_gap = 0, 0, 0.0
    start = time.perf_counter()
    while True:
        tracer.spans = []
        walls, counts = {}, {}
        for req in run.order.next_pass():
            plain, plain_wall = run.request(req)
            rid += 1
            tracer.request = rid
            if req.cold:
                tracer.cache_cleared()
            before = (0, 0) if req.cold else _cache_stats()
            tracer.install()
            try:
                text, wall = run.request(req)
            finally:
                tracer.uninstall()
            after = _cache_stats()
            if after is not None and before is not None:
                counts[rid] = (after[0] - before[0], after[1] - before[1])
            walls[rid] = wall
            if text is None or text != plain:
                problems.append(f"{req.name}: traced output differs from untraced")
            elif wall is not None and plain_wall is not None:
                untraced_s += plain_wall
                traced_s += wall
        passes += 1
        for key, value in spans.layer_totals(tracer.spans).items():
            totals[key] += value
        worst_gap = max(worst_gap, _check_pass(tracer.spans, walls, counts, problems))
        if passes == 1:
            spans_file.write_text(json.dumps(spans.to_records(tracer.spans)),
                                  encoding="utf-8")
        if time.perf_counter() - start >= seconds:
            break
    return {"layers": {k: v / passes for k, v in totals.items()},
            "passes": passes, "requests_per_pass": len(run.reqs),
            "untraced_pass_s": untraced_s / passes, "traced_pass_s": traced_s / passes,
            "worst_gap_share": worst_gap, "missing_targets": sorted(tracer.missing),
            "cache_stats_checked": bool(counts), "problems": problems}


def _check_pass(pass_spans, walls, counts, problems) -> float:
    """Self-checks on one traced pass; returns the largest uncovered share.

    Layer self times over a request must add up to its wall time, within
    1 ms + 1 %; misses and lookups counted by the tracer must agree with
    the cache's own statistics.
    """
    sums = spans.request_self_sums(pass_spans)
    misses, lookups = defaultdict(int), defaultdict(int)
    for s in pass_spans:
        if s[spans.NAME] == "integrator":
            lookups[s[spans.REQUEST]] += 1
            misses[s[spans.REQUEST]] += s[spans.MISS] is not None
    worst = 0.0
    for rid, wall in walls.items():
        if wall is None:
            continue
        gap = wall - sums.get(rid, 0.0)
        worst = max(worst, gap / wall)
        if not -1e-6 <= gap <= 1e-3 + 0.01 * wall:
            problems.append(f"request {rid}: layer self times {sums.get(rid, 0.0):.6f} s "
                            f"vs wall {wall:.6f} s")
        if rid in counts and counts[rid] != (misses[rid], lookups[rid]):
            problems.append(f"request {rid}: cache reports (misses, lookups) "
                            f"{counts[rid]}, tracer counted "
                            f"{(misses[rid], lookups[rid])}")
    return worst


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "loadavg": os.getloadavg(),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    run = Runner(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    if args.workload == "sweep_warm":
        # Cache fill.  Traced runs record it so that later lookups of the
        # same propagators count as hits.
        if tracer:
            tracer.install()
        try:
            for req in run.order.next_pass():
                workloads.run_request(req, run.out_file)
        finally:
            if tracer:
                tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if tracer:
        spans_file = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        result = trace(run, tracer, args.seconds, spans_file)
    else:
        result = measure(run, workloads.timed_passes(args.workload, args.seconds))
    run.out_file.unlink(missing_ok=True)
    tally = run.tally
    result["tally"] = tally.as_dict()
    problems = result.setdefault("problems", [])
    if tally.drift > checks.DRIFT_TOL:
        problems.append(f"cells drift up to {tally.drift:.3e} from the golden values "
                        f"(limit {checks.DRIFT_TOL:g})")
    if tally.flipped:
        problems.append(f"{tally.flipped} cells flipped their two-decimal display")
    if tally.failed:
        problems.append(f"{tally.failed} of {tally.attempted} cells failed")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
