#!/usr/bin/env python3
"""Harness self-test: every workload once at a tiny size, untraced and traced.

Asserts that each run prints, as its last line, a result whose metrics
are exactly the benchmark's end-to-end (untraced) or per-layer (traced)
metrics with their units, and that no execution failed. Run from the
repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{workload} trace {trace}"
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"metrics or units differ: missing "
                                    f"{sorted(set(expected[trace]) - set(units))}, "
                                    f"extra {sorted(set(units) - set(expected[trace]))}")
                if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
                    problems.append(f"{result['failed']} of {result['attempted']} "
                                    f"executions failed")
            print(f"{label}: {'FAILED' if problems else 'ok'}")
            failures += [f"{label}: {problem}\n{proc.stderr}" for problem in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
