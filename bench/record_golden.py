"""Record golden.json: full-precision cells of every benchmark request.

    python3 bench/record_golden.py

Run it on the commit whose numbers are the reference (the golden values
in the repository were recorded on the seed commit).  Each request starts
from an empty propagator cache, so the values do not depend on order.
A request whose table misses a published cell is reported, and nothing
is written.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import nmrqc.integrator  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    golden, bad = {}, []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "table.json"
        for req in workloads.all_requests():
            nmrqc.integrator.clear_propagator_cache()
            text, wall = workloads.run_request(req, out)
            golden[req.name] = checks.parse_cells(text)
            misses = checks.published_failures(req.spec, text)
            bad += [(req.name, cell) for cell in sorted(misses)]
            print(f"{req.name:<18} {wall:7.3f} s  published misses {len(misses)}")
    if bad:
        print(f"not written: {bad}", file=sys.stderr)
        return 1
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"wrote {checks.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
