"""Every metric of every workload in one command.

    python3 bench/report.py [--seed N] [--seconds S]

Runs bench/run.py on each workload of BENCHMARK.json, untraced first
(end-to-end metrics) and then traced (per-layer metrics), and
prints each metric by name, unit and sample count.  Exits 1 if any run
fails, any cell misses its published value, or any cell drifts from the
golden values.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode != 0 or result is None:
                failures.append(f"{workload} trace {trace}: exit {proc.returncode}")
            elif not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: {result['failed']} of "
                                f"{result['attempted']} cells failed, "
                                f"correct={result['correct']}")
    for f in failures:
        print(f"FAIL {f}")
    print("benchmark " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
