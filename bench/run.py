"""nmrqc benchmark: one workload, timed or traced.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is byte-compiled from
src/ first (untimed); then fresh interpreters, each with BLAS and OpenMP
pinned to one thread like this one, do the work (see worker.py).  All
measured load comes from the last of them, one process.

--trace 0 reports the end-to-end metrics: set-up is timed SETUPS times
in fresh interpreters and its median reported, then one more interpreter
measures.  Set-up and request times are scaled by the calibration kernel
of speed.py.  --trace 1 reports the per-layer metrics of a
traced run.  Every metric is printed by name, unit and sample count,
then the last line is the JSON result.  Cells are checked against the
published tables and the golden values in every run; ``correct`` is
false when any check fails.  Metric names and units come from
BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Set before numpy loads, so that the calibration kernel runs alike here
# and in the workers, which inherit this environment.
os.environ.update({k: "1" for k in THREAD_VARS})

import spans  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
WORKER = Path(__file__).with_name("worker.py")
SETUPS = 5
TIME_LIMIT_S = 170.0   # the whole run, children included


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds to READY, parsed result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    if setup_only:
        return ready, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready, json.loads(lines[-1])


def tail(walls: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, or the
    maximum where that percentile would fall below p90 (under 100 samples).

    A timed run makes a fixed number of passes (workloads.timed_passes),
    so which of the two this is depends on the workload and --seconds,
    not on the program's speed.
    """
    s = sorted(walls)
    n = len(s)
    if n < 100:
        return s[-1], f"max of {n}"
    return s[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n}"


def timings(walls: list[list[float]], cells: list[int]) -> dict:
    """Rate and request-time metrics of one run's passes.

    Rates and medians are taken per pass, then the median over passes:
    every pass makes the same requests, so each pass gives one estimate,
    and the median keeps a slow stretch of the machine, or the gap
    between unlike requests, from moving the figure.
    """
    passes = [(w, c) for w, c in zip(walls, cells) if w]
    if not passes:
        raise BenchError("no request succeeded")
    return {
        "cells_per_s": statistics.median(c / sum(w) for w, c in passes),
        "table_s.p50": statistics.median(statistics.median(w) for w, _ in passes),
        "table_s.tail": tail([x for w, _ in passes for x in w])[0],
    }


def end_to_end(res: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict, dict]:
    """(values, notes, raw values).  Values are times scaled by the
    calibration kernel (speed.py); raw values are the same metrics of
    the unscaled times."""
    values = timings(res["scaled"], res["cells"])
    raw = timings(res["walls"], res["cells"])
    values["setup_s"] = statistics.median(s for s, _ in setups)
    raw["setup_s"] = statistics.median(r for _, r in setups)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = res["peak_rss_mb"]
    done = [w for w in res["scaled"] if w]
    per_pass = f"median over {len(done)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "cells_per_s": f"{per_pass}; {sum(res['cells'])} cells in "
                       f"{sum(map(len, done))} requests",
        "table_s.p50": f"{per_pass} of the pass median",
        "table_s.tail": tail([x for w in done for x in w])[1],
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    for name in ("setup_s", "cells_per_s", "table_s.p50", "table_s.tail"):
        notes[name] += f"; unscaled {raw[name]:.4g}"
    return values, notes, raw


def per_layer(res: dict) -> tuple[dict, dict]:
    lay = res["layers"]
    calls = lay.get("integrator.calls", 0.0)
    misses = lay.get("integrator.misses", 0.0)
    substeps = lay.get("integrator.substeps", 0.0)
    overhead = res["traced_pass_s"] - res["untraced_pass_s"]
    values = {
        "integrator.calls": calls,
        "integrator.misses": misses,
        "integrator.hit_ratio": 1.0 - misses / calls if calls else 0.0,
        "integrator.substeps": substeps,
        "integrator.miss_s": lay.get("integrator.miss_s", 0.0),
        "integrator.ns_per_substep":
            1e9 * lay.get("integrator.stepped_miss_s", 0.0) / substeps if substeps else 0.0,
        "integrator.hit_s": lay.get("integrator.hit_s", 0.0),
        "programs.run_calls": lay.get("programs.run.calls", 0.0),
        "programs.run_self_s": lay.get("programs.run.self_s", 0.0),
        "programs.build_calls": lay.get("programs.build.calls", 0.0),
        "programs.build_self_s": lay.get("programs.build.self_s", 0.0),
        "harness.self_s": lay.get("harness.self_s", 0.0),
        "harness.render_s": lay.get("harness.render.self_s", 0.0),
        "cli.self_s": lay.get("cli.self_s", 0.0),
        "trace.overhead_s": overhead,
        "trace.overhead_share": 100.0 * overhead / res["untraced_pass_s"],
    }
    for cls in spans.MISS_CLASSES:
        values[f"integrator.miss_s.{cls}"] = lay.get(f"integrator.miss_s.{cls}", 0.0)
    for layer in ("gates", "states", "pulses"):
        values[f"{layer}.calls"] = lay.get(f"{layer}.calls", 0.0)
        values[f"{layer}.self_s"] = lay.get(f"{layer}.self_s", 0.0)
    note = f"per traced pass, {res['passes']} passes of {res['requests_per_pass']} requests"
    notes = {name: note for name in values}
    notes["trace.overhead_s"] = (f"traced {res['traced_pass_s']:.4f} s - untraced "
                                 f"{res['untraced_pass_s']:.4f} s per pass")
    return values, notes


def main(argv=None) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec_file = ROOT / "BENCHMARK.json"
    package = ROOT / "src" / "nmrqc"
    if not (package / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: no nmrqc sources under {package} or no {spec_file.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not compileall.compile_dir(str(package), quiet=1):
        print("error: nmrqc does not byte-compile", file=sys.stderr)
        return 2

    try:
        setups = []
        kernel = speed.kernel_s()
        for _ in range(0 if args.trace else SETUPS):
            ready, _ = spawn(args, setup_only=True, deadline=deadline)
            before, kernel = kernel, speed.kernel_after_s(ready)
            setups.append((speed.scaled(ready, before, kernel), ready))
        _, res = spawn(args, setup_only=False, deadline=deadline)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = None
    try:
        if args.trace:
            values, notes = per_layer(res)
        else:
            values, notes, raw = end_to_end(res, setups)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tally = res["tally"]
    problems = res["problems"]
    for target in res.get("missing_targets", []):
        print(f"note: {target} not found; its layer is not traced", file=sys.stderr)

    env = res["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {res['passes']} x {res['requests_per_pass']} requests")
    for m in wanted:
        print(f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']:<8} "
              f"{notes[m['name']]}")
    print(f"  {'cells_failed':<32} {tally['failed']:>14d} of {tally['attempted']} "
          f"cells attempted")
    print(f"  {'drift_max':<32} {tally['drift_max']:>14.3g} vs golden values")
    print(f"  {'cells_flipped':<32} {tally['flipped']:>14d} two-decimal flips vs golden")
    print(f"  env python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    if args.trace:
        print("  self-checks: traced vs untraced output; layer self times cover "
              f"{100.0 * (1.0 - res['worst_gap_share']):.2f}% or more of each request; "
              "cache statistics " + ("compared" if res["cache_stats_checked"]
                                     else "not available") + "; failures follow")
    for problem in problems:
        print(f"  FAIL {problem}")

    result = {
        "correct": not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  setups=setups, unscaled=raw, notes=notes, problems=problems, tally=tally, env=env,
                  walls=res.get("walls"), scaled=res.get("scaled"))
    (OUT_DIR / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
