#!/usr/bin/env python3
"""epdsys benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload horizon-J49 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --band table1

Run from the repository root; the library is imported from ``src``.  Each
workload process is a fresh interpreter with OpenBLAS/OpenMP/MKL pinned to
one thread (at two threads on a two-core host the timings measure the
scheduler more than the solver, see README.md).

--trace 0 prints the end-to-end metrics: setup_s (median over several fresh
processes), first_run_s (median over the measuring processes), run_s (median
of their warm calls) and peak_rss_mb (the largest).
--trace 1 prints the per-layer metrics of a traced run.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
failed / attempted is the workload's fail ratio.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

PINNED_THREADS = "1"
PROCESS_SHARE = 0.25  # of --seconds, for the warm calls of one measuring process
SETUP_PROCESSES = 2  # setup-only processes before each measuring one
DEADLINE_S = 175.0  # the whole run, every process included


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(deadline: float | None, *args: str) -> dict:
    """Run worker.py in a fresh process and return its final JSON line."""
    timeout = None if deadline is None else deadline - time.perf_counter()
    if timeout is not None and timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    cmd = [sys.executable, str(WORKER), *args]
    # perf_counter is CLOCK_MONOTONIC, shared by all processes on Linux
    cmd += ["--spawned-at", repr(time.perf_counter())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, no percentile has ten samples beyond it"
    ordered = sorted(samples)
    return f"n={n}, p{100.0 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s"


def end_to_end(args, deadline) -> tuple[dict, dict]:
    common = ("--workload", args.workload, "--seed", str(args.seed))
    # Measuring processes follow each other until the window is used, at
    # least two, so first_run_s is a median and the samples spread in time.
    # Setup-only processes run between them for the same reason.
    share = str(args.seconds * PROCESS_SHARE)
    setups, results = [], []
    start = time.perf_counter()
    while len(results) < 2 or time.perf_counter() - start < args.seconds:
        for _ in range(SETUP_PROCESSES):
            setups.append(spawn(deadline, "--mode", "setup", *common)["setup_s"])
        results.append(spawn(deadline, "--mode", "measure", *common, "--seconds", share))
    setups += [r["setup_s"] for r in results]
    firsts = [r["first_run_s"] for r in results if r["first_run_s"] is not None]
    warm = [s for r in results for s in r["run_s"]]
    if not warm or not firsts:
        raise WorkerError(f"no call returned: {[r['failures'] for r in results]}")
    metrics = {
        "run_s": {"value": statistics.median(warm), "unit": "s"},
        "first_run_s": {"value": statistics.median(firsts), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
    }
    print(f"machine {json.dumps(results[0]['machine'])}")
    print(f"lambdas {[r['lambdas'] for r in results]}")
    print(f"run_s        median {metrics['run_s']['value']:.4f} s  ({tail_percentile(warm)})")
    print(f"first_run_s  median {metrics['first_run_s']['value']:.4f} s  ({tail_percentile(firsts)})")
    print(f"setup_s      median {metrics['setup_s']['value']:.4f} s  (n={len(setups)})")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    combined = {
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]],
    }
    return combined, metrics


def per_layer(args, deadline) -> tuple[dict, dict]:
    result = spawn(
        deadline, "--mode", "trace", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    )
    print(f"traced calls {result['traced_calls']}, lambdas {result['lambdas']}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics = {}
    for name, value in result["per_layer"].items():
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:30s} {value!r} {units[name]}")
    return result, metrics


def self_test(deadline) -> int:
    """Tiny (J <= 9) run of every workload path, untraced and traced."""
    problems = spawn(deadline, "--mode", "selftest")["failures"]
    for workload in WORKLOADS:
        for mode in ("measure", "trace"):
            result = spawn(deadline, "--mode", mode, "--workload", workload, "--tiny")
            problems += [f"{workload} {mode}: {f}" for f in result["failures"]]
            if mode == "trace" and not result["per_layer"].get("stepper.step_calls"):
                problems.append(f"{workload} trace: no step spans recorded")
    for line in problems:
        print(f"FAIL {line}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="epdsys benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--band", choices=sorted(WORKLOADS), help="run every lambda of the band once")
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "epdsys" / "__init__.py").is_file():
        print(f"epdsys sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test(deadline)
        if args.band:
            result = spawn(None, "--mode", "band", "--workload", args.band)
            for row in result["band"]:
                print(json.dumps(row))
            print(f"band {args.band}: {result['failed']} of {result['attempted']} failed")
            return 1 if result["failed"] else 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            result, metrics = per_layer(args, deadline)
        else:
            result, metrics = end_to_end(args, deadline)
    except WorkerError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"fail_ratio   {result['failed'] / result['attempted']:.4f} ({result['failed']}/{result['attempted']})")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
