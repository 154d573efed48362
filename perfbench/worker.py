"""One benchmark process: set up, run a workload as a closed loop, check it.

run.py starts this file with BLAS pinned to one thread and ``src`` on
PYTHONPATH, and reads the JSON object it prints last.  Modes:

  setup    import epdsys and prepare the first input, nothing else
  measure  setup, then the first call, then warm calls for --seconds
  trace    like measure, but alternating untraced and traced warm calls
  band     one call per lambda of the seeded band (correctness sweep)
  selftest tiny (J <= 9) versions of every workload, plus one input off
           the manufactured family that must count as failed, untimed

Every call goes through the public epdsys API only.  Inputs come from the
seed: it orders the lambda band, so no two calls of one process share their
operators.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_BUILD = ROOT / ".bench_build"

# lambda = gamma on this band, a = 3/2 + 4 lambda: the family on which the
# manufactured forcing is exact (forcing certificate ~5.5e-10).
LAMBDA_BAND = tuple(round(0.24 + 0.001 * k, 3) for k in range(21))
OFF_FAMILY = (0.3, 2.5)  # (lambda, a): certificate residual ~0.33

# Er ceilings (Workload.er_max) are 1.3x the largest Er over the band at the
# commit that introduced this benchmark.  table1's J=49 row has 3 steps whose
# difference branch passes near singularity (margin 2e-5 to 6e-4), so its Er
# ranges 1.2e-3 to 3.5e-2 across the band; the Er_I == Er_II check is the
# tight gate there.
RESIDUAL_MAX = 1e-9  # per-step coupled residual contract
ER_AGREE_RTOL = 1e-8  # Method I vs Method II on the same row


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "trajectory" or "table1"
    J: int
    tiny_J: int
    er_max: dict  # J -> ceiling on Er, for every J the workload runs
    horizon: tuple | None = None  # (t0, l, n_steps, tiny n_steps)
    J_list: tuple = ()
    tiny_J_list: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("traj-J199", "trajectory", J=199, tiny_J=9, er_max={199: 2.5e-4, 9: 4.6e-2}),
        Workload(
            "horizon-J49", "trajectory", J=49, tiny_J=9, er_max={49: 1.3e-3, 9: 1.3e-3},
            horizon=(1.0, 0.005, 200, 20),
        ),
        Workload(
            "table1", "table1", J=49, tiny_J=9,
            er_max={4: 2.6e-2, 9: 4.6e-2, 24: 8.1e-3, 49: 4.5e-2},
            J_list=(4, 9, 24, 49), tiny_J_list=(4, 9),
        ),
    )
}


@dataclasses.dataclass
class Outcome:
    lam: float
    seconds: float | None  # None when the call was refused or raised
    failure: str | None
    detail: dict = dataclasses.field(default_factory=dict)


def import_epdsys():
    import epdsys

    expected = ROOT / "src" / "epdsys"
    if Path(epdsys.__file__).resolve().parent != expected:
        raise SystemExit(f"epdsys imported from {epdsys.__file__}, not from {expected}")
    return epdsys


def lambda_sequence(seed: int) -> list[float]:
    return random.Random(seed).sample(LAMBDA_BAND, len(LAMBDA_BAND))


class Runner:
    """Prepares inputs for one workload and runs and checks its calls."""

    def __init__(self, epdsys, workload: Workload, tiny: bool):
        self.epdsys = epdsys
        self.workload = workload
        self.tiny = tiny
        self.captured_reports = []
        if workload.kind == "table1":
            # run_table1 keeps only rows; record the step reports of every
            # run() it makes so the residual contract can be checked.
            bench = epdsys.bench
            original = bench.run

            def recording_run(*args, **kwargs):
                trajectory, reports = original(*args, **kwargs)
                self.captured_reports.extend(reports)
                return trajectory, reports

            bench.run = recording_run

    def prepare(self, lam: float, a: float | None = None) -> Callable | str:
        """A zero-argument call for this input, or the reason it is refused."""
        ep = self.epdsys
        w = self.workload
        a = 1.5 + 4.0 * lam if a is None else a
        J = w.tiny_J if self.tiny else w.J
        config = ep.RunConfig(J=J, lam=lam, gamma=lam, a=a)
        try:
            ep.check_forcing_certificate(config)
        except ep.EpdError as exc:
            return f"forcing certificate: {exc}"
        if w.kind == "table1":
            J_list = w.tiny_J_list if self.tiny else w.J_list
            BENCH_BUILD.mkdir(exist_ok=True)
            csv_path = str(BENCH_BUILD / "table1.csv")

            def call():
                self.captured_reports.clear()
                return ep.run_table1(config, J_list=J_list, repeats=1, csv_path=csv_path)

            return call
        prob, exact = ep.manufactured_problem(config)
        if w.horizon is None:
            spec = ep.bench.grid_spec_for(config)
        else:
            t0, l, n_steps, tiny_steps = w.horizon
            spec = ep.GridSpec(
                L0=config.L0, L1=config.L1, J=J, t0=t0, alpha=config.alpha,
                n_steps=tiny_steps if self.tiny else n_steps,
                step_rule="independent", l=l,
            )

        def call():
            trajectory, reports = ep.run(prob, spec, solver="sylvester", sing_policy="limit")
            errors = ep.discrete_errors(trajectory, exact, ep.build_grid(spec))
            return trajectory, reports, errors

        return call

    def execute(self, lam: float, a: float | None = None, call=None) -> Outcome:
        """Prepare (unless given the prepared call), then time and check one call."""
        if call is None:
            call = self.prepare(lam, a)
        if isinstance(call, str):
            return Outcome(lam, None, call)
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # any raise is a failed call, reported by name
            return Outcome(lam, None, f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        failure, detail = self.check(result)
        return Outcome(lam, seconds, failure, detail)

    def check(self, result) -> tuple[str | None, dict]:
        import numpy as np

        w = self.workload
        if w.kind == "table1":
            rows = result
            reports = list(self.captured_reports)
            detail = {"er": {r.J: r.Er_II for r in rows}}
            for r in rows:
                if r.error:
                    return f"J={r.J}: row error {r.error!r}", detail
                fields = (r.Er_II, r.RelEr_II, r.Er_I, r.RelEr_I, r.time_II_ms, r.time_I_ms, r.ratio)
                if not all(math.isfinite(f) for f in fields):
                    return f"J={r.J}: non-finite row {r}", detail
                if abs(r.Er_I - r.Er_II) > ER_AGREE_RTOL * max(r.Er_I, r.Er_II):
                    return f"J={r.J}: Er_I {r.Er_I!r} != Er_II {r.Er_II!r}", detail
                if r.Er_II > w.er_max[r.J]:
                    return f"J={r.J}: Er {r.Er_II:.3e} above {w.er_max[r.J]:.1e}", detail
            if not reports:
                return "no step reports captured", detail
        else:
            trajectory, reports, errors = result
            detail = {"er": errors.er, "rel_er": errors.rel_er}
            for state in trajectory:
                if not (np.isfinite(state.U.values).all() and np.isfinite(state.V.values).all()):
                    return f"non-finite field at level {state.level}", detail
            if not (math.isfinite(errors.er) and math.isfinite(errors.rel_er)):
                return f"non-finite error {errors}", detail
            ceiling = w.er_max[len(trajectory[0].U.values) - 2]
            if errors.er > ceiling:
                return f"Er {errors.er:.3e} above {ceiling:.1e}", detail
        worst = max(r.residual_coupled for r in reports)
        detail["max_residual"] = worst
        detail["min_margin"] = min(r.margin for r in reports)
        if not worst <= RESIDUAL_MAX:
            return f"coupled residual {worst:.3e} above {RESIDUAL_MAX:.0e}", detail
        return None, detail


def machine_record(epdsys) -> dict:
    import numpy as np
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "epdsys": epdsys.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads_reported": openblas_threads(),
    }


def openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    import ctypes

    names = (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return found
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summary(outcomes: list[Outcome]) -> dict:
    failures = [f"lambda={o.lam}: {o.failure}" for o in outcomes if o.failure]
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures,
        "lambdas": [o.lam for o in outcomes],
    }


def mode_measure(args, epdsys, runner, lams, first_call) -> dict:
    first = runner.execute(lams[0], call=first_call)
    outcomes = [first]
    start = time.perf_counter() - (first.seconds or 0.0)
    while time.perf_counter() - start < args.seconds or len(outcomes) < 2:
        outcomes.append(runner.execute(lams[len(outcomes) % len(lams)]))
    # a call that returned but failed its check is still timed; the result
    # then carries correct = false
    warm = [o.seconds for o in outcomes[1:] if o.seconds is not None]
    return {
        **summary(outcomes),
        "first_run_s": first.seconds,
        "run_s": warm,
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine_record(epdsys),
    }


def mode_trace(args, runner, lams, first_call, tracer) -> dict:
    outcomes = [runner.execute(lams[0], call=first_call)]  # cold call, untraced
    start = time.perf_counter()
    untraced, traced = [], []
    while time.perf_counter() - start < args.seconds or not (untraced and traced):
        if len(outcomes) > len(lams):
            break  # every input tried and still no pair of returned calls
        trace_this = len(traced) < len(untraced)
        tracer.reset()
        if trace_this:
            tracer.active = True  # the certificate in prepare() is traced too
        try:
            outcome = runner.execute(lams[len(outcomes) % len(lams)])
        finally:
            tracer.active = False
        outcomes.append(outcome)
        if outcome.seconds is None:
            continue
        if trace_this:
            traced.append((outcome.seconds, tracing.layer_metrics(tracer)))
        else:
            untraced.append(outcome.seconds)
    metrics = {}
    names = traced[0][1] if traced else {}
    for name in names:
        metrics[name] = statistics.median_low(m[name] for _, m in traced)
    if traced and untraced:
        metrics["trace.overhead_s"] = (
            statistics.median(s for s, _ in traced) - statistics.median(untraced)
        )
    return {**summary(outcomes), "per_layer": metrics, "traced_calls": len(traced)}


def mode_band(runner) -> dict:
    outcomes = [runner.execute(lam) for lam in LAMBDA_BAND]
    return {
        **summary(outcomes),
        "band": [
            {"lambda": o.lam, "seconds": o.seconds, "failure": o.failure, **o.detail}
            for o in outcomes
        ],
    }


def mode_selftest(epdsys) -> dict:
    problems = []
    for name, workload in WORKLOADS.items():
        runner = Runner(epdsys, workload, tiny=True)
        for lam in (LAMBDA_BAND[0], LAMBDA_BAND[-1]):
            outcome = runner.execute(lam)
            if outcome.failure or outcome.seconds is None:
                problems.append(f"{name} lambda={lam}: {outcome.failure}")
        off = runner.execute(*OFF_FAMILY)
        if not off.failure or off.seconds is not None:
            problems.append(f"{name}: off-family input was not refused before timing")
    return {"attempted": 3 * len(WORKLOADS), "failed": len(problems), "failures": problems}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "band", "selftest"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install_kernels()
    epdsys = import_epdsys()
    if tracer is not None:
        tracer.install_epdsys(epdsys)

    if args.mode == "selftest":
        result = mode_selftest(epdsys)
    else:
        runner = Runner(epdsys, WORKLOADS[args.workload], args.tiny)
        lams = lambda_sequence(args.seed)
        if args.mode == "band":
            result = mode_band(runner)
        else:
            first_call = runner.prepare(lams[0])  # setup ends with the first input ready
            setup_s = time.perf_counter() - args.spawned_at
            if isinstance(first_call, str):
                raise SystemExit(f"first input refused: {first_call}")
            if args.mode == "setup":
                result = {}
            elif args.mode == "measure":
                result = mode_measure(args, epdsys, runner, lams, first_call)
            else:
                result = mode_trace(args, runner, lams, first_call, tracer)
            result["setup_s"] = setup_s
    print(json.dumps(result))


if __name__ == "__main__":
    main()
