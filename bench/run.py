#!/usr/bin/env python3
"""boldkit benchmark: three workloads, end-to-end metrics, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload analyze-default --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own process as a closed loop with one client:
one execution at a time, each starting when the previous one has ended.
BLAS threads are pinned to the CPUs this process may use and recorded.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median wall time of one in-process execution of the
  workload's operation, over every execution made in the run;
- ``setup_s``: median, over fresh interpreters, of the time to
  ``import boldkit.cli`` and load the workload's config with
  ``load_config``, as every CLI invocation does;
- ``peak_rss_mb``: peak resident memory of the workload's process.

``error_rate`` (failed / attempted executions) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result; it is
not a bounded metric because it is 0 on a correct program. An execution
fails when it raises or when its outputs differ from the first
execution's or the first execution's outputs fail the workload's check.

``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics of ``tracing.py`` instead, with the tracing overhead.
The spans and a full record of each run (machine, samples, metrics) are
written under ``.bench_out/``. ``--size tiny`` shrinks every input for
the harness self-test (``bench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("analyze-default", "duration-realistic", "motion-realign")
MIN_EXECUTIONS = 2
SETUP_REPEATS = 3
TAIL_SAMPLES = 10
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Runs in a fresh interpreter: the set-up every CLI invocation pays.
SETUP_PROBE = """
import json, sys, time
start = time.perf_counter()
import boldkit.cli
imported = time.perf_counter()
from boldkit.config import load_config
load_config(sys.argv[1])
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "load_config_s": done - imported}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def pin_blas_threads():
    """Pin BLAS/OpenMP pools to the usable CPUs; must precede the numpy import."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(config_path: str, repeats: int) -> list:
    """Wall time of fresh interpreters importing boldkit.cli and loading the config."""
    probes = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, config_path],
                              env=child_env(), capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["wall_s"] = elapsed
        probes.append(probe)
    return probes


def tail_percentile(samples):
    """Highest standard percentile with at least TAIL_SAMPLES samples beyond it."""
    import numpy as np

    for p in PERCENTILES:
        if len(samples) * (1.0 - p / 100.0) >= TAIL_SAMPLES:
            return {"percentile": p, "value_s": float(np.percentile(samples, p))}
    return None


def run_loop(workload, seconds: float, recorder):
    """Closed loop: execute until `seconds` have passed and MIN_EXECUTIONS are done.

    With a recorder, odd-numbered executions are traced and even-numbered
    ones are not, so both kinds see the same machine conditions.
    """
    untraced, traced = [], []
    attempted = failed = 0
    reference = None
    problems = []
    start = time.perf_counter()
    while attempted < MIN_EXECUTIONS or time.perf_counter() - start < seconds:
        tracing = recorder is not None and attempted % 2 == 1
        if tracing:
            recorder.install()
        t0 = time.perf_counter()
        try:
            if tracing:
                recorder.run(workload.execute)
            else:
                workload.execute()
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        elapsed = time.perf_counter() - t0
        if tracing:
            recorder.uninstall()
        (traced if tracing else untraced).append(elapsed)
        attempted += 1
        if raised:
            failed += 1
            continue
        outputs = workload.outputs()
        if reference is None:
            reference = outputs
            problems = workload.check()
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
        if problems or outputs != reference:
            failed += 1
    return untraced, traced, attempted, failed


def run_workload(args) -> dict:
    import numpy as np

    import machine
    from tracing import SpanRecorder
    from workloads import WORKLOADS

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), tiny=args.size == "tiny")
        started = time.perf_counter()
        config_path = workload.prepare()
        prepare_s = time.perf_counter() - started
        setup = measure_setup(config_path, SETUP_REPEATS)
        recorder = SpanRecorder() if args.trace else None
        untraced, traced, attempted, failed = run_loop(workload, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if args.trace:
        metrics = recorder.layer_metrics(workload.extra)
        traced_wall = float(np.median(traced))
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - float(np.median(untraced))
        metrics["trace.accounted_share"] = sum(recorder.self_times().values()) / sum(traced)
        metrics["config.load_config.s"] = float(np.median([p["load_config_s"] for p in setup]))
        metrics["cli.import.s"] = float(np.median([p["import_s"] for p in setup]))
    else:
        metrics = {"wall_s": float(np.median(untraced)),
                   "setup_s": float(np.median([p["wall_s"] for p in setup])),
                   "peak_rss_mb": peak_rss_mb}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "client": "closed loop, one client, one execution at a time",
        "prepare_s": prepare_s,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "wall_samples": len(untraced),
        "wall_tail": tail_percentile(untraced),
        "untraced_s": untraced,
        "traced_s": traced,
        "setup_probes": setup,
        "metrics": metrics,
        "machine": machine.record(),
        "spans": recorder.dump() if args.trace else [],
    }


def print_summary(record, units):
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"size {record['size']}")
    for name, value in record["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    note = f"median of {record['wall_samples']} executions"
    if record["wall_tail"]:
        tail = record["wall_tail"]
        note += f"; p{tail['percentile']:g} {tail['value_s']:.6g} s"
    print(f"  wall samples: {note}")
    print(f"  {'error_rate':<44} {record['error_rate']:>14.6g} share "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    m = record["machine"]
    print(f"  machine: nproc {m['nproc']}, L2 {m['l2_bytes']} B, L3 {m['l3_bytes']} B, "
          f"python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, "
          f"BLAS {m['blas']} with {m['blas_threads']} threads")
    print(f"  {m['scope']}")


def load_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> int:
    """Every workload, each in its own process, then one line per workload."""
    lines = []
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        cells = [f"{m} {v['value']:.6g} {v['unit']}" for m, v in result["metrics"].items()]
        error_rate = result["failed"] / result["attempted"]
        lines.append(f"{name:<20} " + "  ".join(cells + [f"error_rate {error_rate:g} share"]))
    print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "boldkit" / "__init__.py").is_file():
        print(f"bench: boldkit sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    record = run_workload(args)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    units = load_units()
    print_summary(record, units)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
