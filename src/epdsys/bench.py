"""Benchmark harness: config parsing, the Table-1 style experiment, and
convergence studies.

The reference experiment is the manufactured problem on [-10, 10]^2 with

    u = v = exp(-(t^2/2 + r^2)),          r^2 = x^2 + y^2,
    G1  = (t^2 - 4 r^2) g_1 - g_p,        g_s = exp(-s (t^2/2 + r^2)),
    G2  = (t^2 - 4 r^2) g_1 - g_q,

and coefficients a = 5/2, lam = gamma = 1/4, p = 3/2, q = 4/3.  Method II is
the coupled Sylvester solver, Method I the dense Kronecker baseline; both run
the identical trajectory and are timed wall-clock (median of `repeats`).
"""

from __future__ import annotations

import dataclasses
import math
import statistics
import time
from typing import Sequence

import numpy as np

from .exceptions import ConfigError, EpdError, InvalidSpecError
from .exact import frobenius_coefficients, pde_residual, sample_box
from .grid import GridSpec, build_grid, discrete_errors
from .stepper import (
    SOLVER_KRONECKER,
    SOLVER_SYLVESTER,
    ProblemDef,
    convergence_order,
    run,
)

DEFAULT_BENCH_J = (4, 9, 24, 49)
DEFAULT_CONVERGENCE_J = (24, 49, 99)
FORCING_CERT_TOL = 1e-5

CSV_HEADER = "J,h,l,Er_II,RelEr_II,Er_I,RelEr_I,time_II_ms,time_I_ms,ratio"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully defaulted run parameters (see parse_config for the file format)."""

    J: int
    L0: float = -10.0
    L1: float = 10.0
    t0: float = 0.0
    T: float = 1.0
    alpha: float = 0.25
    a: float = 2.5
    lam: float = 0.25
    gamma: float = 0.25
    p: float = 1.5
    q: float = 4.0 / 3.0
    step_rule: str = "coupled"
    solver: str = "both"
    sing_eps: float | None = None
    seed_mode: str = "exact"
    sing_policy: str = "limit"
    out_csv: str = "table1.csv"
    seed: int = 12345  # rng seed for property tests only; solver is deterministic


_KEY_TYPES = {
    "L0": float,
    "L1": float,
    "J": int,
    "t0": float,
    "T": float,
    "alpha": float,
    "a": float,
    "lambda": float,
    "gamma": float,
    "p": float,
    "q": float,
    "step_rule": str,
    "solver": str,
    "sing_eps": float,
    "seed_mode": str,
    "sing_policy": str,
    "out_csv": str,
}
_KEY_RENAME = {"lambda": "lam"}


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines; '#' starts a comment; unknown keys error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}", line=lineno)
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", line=lineno)
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", line=lineno)
        try:
            values[key] = _KEY_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}", line=lineno) from exc
    if "J" not in values:
        raise ConfigError("missing mandatory key 'J'")
    kwargs = {_KEY_RENAME.get(k, k): v for k, v in values.items()}
    config = RunConfig(**kwargs)
    if config.solver not in (SOLVER_SYLVESTER, SOLVER_KRONECKER, "both"):
        raise ConfigError(f"unknown solver {config.solver!r}")
    if config.seed_mode not in ("exact", "taylor"):
        raise ConfigError(f"unknown seed_mode {config.seed_mode!r}")
    if config.sing_policy not in ("limit", "zero"):
        raise ConfigError(f"unknown sing_policy {config.sing_policy!r}")
    return config


# ---------------------------------------------------------------------------
# the manufactured reference problem


def gaussian_profile(s: float):
    """g_s(x, y, t) = exp(-s (t^2/2 + x^2 + y^2))."""

    def g(x, y, t):
        return np.exp(-s * (0.5 * t * t + x * x + y * y))

    return g


def manufactured_problem(config: RunConfig) -> tuple[ProblemDef, "callable"]:
    """ProblemDef for the reference experiment plus its exact solution pair."""
    g1 = gaussian_profile(1.0)
    gp = gaussian_profile(config.p)
    gq = gaussian_profile(config.q)

    def G1(x, y, t):
        return (t * t - 4.0 * (x * x + y * y)) * g1(x, y, t) - gp(x, y, t)

    def G2(x, y, t):
        return (t * t - 4.0 * (x * x + y * y)) * g1(x, y, t) - gq(x, y, t)

    def exact(x, y, t):
        val = g1(x, y, t)
        return val, val

    if config.seed_mode == "exact":
        seeding = {"exact": exact}
    else:
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        u0 = lambda x, y: g1(x, y, config.t0)
        # d/dt g1 = -t g1 vanishes at t0 = 0
        u1 = (lambda x, y: -config.t0 * g1(x, y, config.t0)) if config.t0 > 0 else zero
        seeding = {"data": (u0, u1, u0, u1), "allow_singular_t0": True}

    prob = ProblemDef(
        a=config.a,
        lam=config.lam,
        gamma=config.gamma,
        p=config.p,
        q=config.q,
        alpha=config.alpha,
        forcing=(G1, G2),
        **seeding,
    )
    return prob, exact


def grid_spec_for(config: RunConfig, J: int | None = None) -> GridSpec:
    """GridSpec for a config, with n_steps = ceil((T - t0) / l)."""
    J = config.J if J is None else J
    h = (config.L1 - config.L0) / (J + 1)
    l = h * math.sqrt(h)
    n_steps = max(2, math.ceil((config.T - config.t0) / l))
    return GridSpec(
        L0=config.L0,
        L1=config.L1,
        J=J,
        t0=config.t0,
        n_steps=n_steps,
        alpha=config.alpha,
        step_rule=config.step_rule,
        sing_eps=config.sing_eps,
    )


def check_forcing_certificate(config: RunConfig, tol: float = FORCING_CERT_TOL) -> float:
    """Residual of the manufactured solution under its forcing; must be <= tol."""
    prob, exact = manufactured_problem(config)
    u = lambda x, y, t: exact(x, y, t)[0]
    v = lambda x, y, t: exact(x, y, t)[1]
    pts = sample_box(
        np.linspace(0.3, 1.5, 5), np.linspace(0.3, 1.5, 5), np.linspace(0.2, 1.0, 5)
    )
    res = pde_residual(u, v, prob, pts)
    if res > tol:
        raise EpdError(
            f"forcing certificate failed: pde_residual = {res:.3e} > {tol:.1e}"
        )
    return res


# ---------------------------------------------------------------------------
# Table-1 style benchmark


@dataclasses.dataclass(frozen=True)
class BenchRow:
    """One benchmark line; II = Sylvester path, I = Kronecker baseline."""

    J: int
    h: float
    l: float
    Er_II: float
    RelEr_II: float
    Er_I: float
    RelEr_I: float
    time_II_ms: float
    time_I_ms: float
    ratio: float
    order_estimate: float = float("nan")
    error: str = ""


def _timed_run(prob, spec, solver, repeats, sing_policy):
    """(median wall ms, trajectory, reports) over `repeats` identical runs."""
    times = []
    trajectory = reports = None
    for _ in range(repeats):
        start = time.perf_counter()
        trajectory, reports = run(prob, spec, solver=solver, sing_policy=sing_policy)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times), trajectory, reports


def run_table1(
    config: RunConfig,
    J_list: Sequence[int] = DEFAULT_BENCH_J,
    repeats: int = 3,
    kronecker: bool | None = None,
    csv_path: str | None = None,
) -> list[BenchRow]:
    """Run the manufactured experiment per J, timing both solver paths.

    The forcing certificate is checked before any row is produced.  Solver
    failures are recorded on their row and the run continues.  A CSV is
    written to csv_path (default config.out_csv) with header CSV_HEADER.
    """
    check_forcing_certificate(config)
    if kronecker is None:
        kronecker = config.solver in ("both", SOLVER_KRONECKER)
    want_sylvester = config.solver in ("both", SOLVER_SYLVESTER)

    rows: list[BenchRow] = []
    history: list[tuple[float, float]] = []
    for J in J_list:
        spec = grid_spec_for(config, J)
        grid = build_grid(spec)
        prob, exact = manufactured_problem(config)
        er2 = rel2 = er1 = rel1 = t2 = t1 = float("nan")
        note = []
        if want_sylvester:
            try:
                t2, traj, _ = _timed_run(prob, spec, SOLVER_SYLVESTER, repeats, config.sing_policy)
                report = discrete_errors(traj, exact, grid)
                er2, rel2 = report.er, report.rel_er
            except EpdError as exc:
                note.append(f"sylvester: {exc}")
        if kronecker:
            try:
                t1, traj, _ = _timed_run(prob, spec, SOLVER_KRONECKER, repeats, config.sing_policy)
                report = discrete_errors(traj, exact, grid)
                er1, rel1 = report.er, report.rel_er
            except EpdError as exc:
                note.append(f"kronecker: {exc}")
        if math.isfinite(er2):
            history.append((grid.h, er2))
        order = convergence_order(history) if len(history) >= 2 else float("nan")
        rows.append(
            BenchRow(
                J=J,
                h=grid.h,
                l=grid.l,
                Er_II=er2,
                RelEr_II=rel2,
                Er_I=er1,
                RelEr_I=rel1,
                time_II_ms=t2,
                time_I_ms=t1,
                ratio=t1 / t2 if (math.isfinite(t1) and math.isfinite(t2)) else float("nan"),
                order_estimate=order,
                error="; ".join(note),
            )
        )
    path = csv_path if csv_path is not None else config.out_csv
    if path:
        write_bench_csv(rows, path)
    return rows


def write_bench_csv(rows: Sequence[BenchRow], path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fields = [
                str(r.J),
                repr(r.h),
                repr(r.l),
                repr(r.Er_II),
                repr(r.RelEr_II),
                repr(r.Er_I),
                repr(r.RelEr_I),
                repr(r.time_II_ms),
                repr(r.time_I_ms),
                repr(r.ratio),
            ]
            fh.write(",".join(fields) + "\n")


def read_bench_csv(path: str) -> list[BenchRow]:
    """Round-trip reader for files written by write_bench_csv."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 10:
                raise ConfigError(f"bad CSV row: {line!r}")
            rows.append(
                BenchRow(
                    J=int(parts[0]),
                    h=float(parts[1]),
                    l=float(parts[2]),
                    Er_II=float(parts[3]),
                    RelEr_II=float(parts[4]),
                    Er_I=float(parts[5]),
                    RelEr_I=float(parts[6]),
                    time_II_ms=float(parts[7]),
                    time_I_ms=float(parts[8]),
                    ratio=float(parts[9]),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# convergence study


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    rows: list[tuple[int, float, float]]  # (J, h, Er)
    order: float
    ok: bool  # order within [1.5, 2.5]


def run_convergence(
    config: RunConfig,
    J_list: Sequence[int] = DEFAULT_CONVERGENCE_J,
    order_band: tuple[float, float] = (1.5, 2.5),
) -> ConvergenceReport:
    """Sylvester-path runs over J_list; fits the order of Er against h."""
    if len(J_list) < 2:
        raise InvalidSpecError("need at least two grid levels")
    check_forcing_certificate(config)
    rows = []
    for J in J_list:
        spec = grid_spec_for(config, J)
        grid = build_grid(spec)
        prob, exact = manufactured_problem(config)
        trajectory, _ = run(prob, spec, solver=SOLVER_SYLVESTER, sing_policy=config.sing_policy)
        report = discrete_errors(trajectory, exact, grid)
        rows.append((J, grid.h, report.er))
    order = convergence_order([(h, er) for _, h, er in rows])
    ok = order_band[0] <= order <= order_band[1] or math.isinf(order)
    return ConvergenceReport(rows=rows, order=order, ok=ok)


def emit_series_table(lam, nu, K, N, path: str | None = None) -> str:
    """Plain-text 'n, a_n' table of Frobenius coefficients (17 digits)."""
    series = frobenius_coefficients(lam, nu, K, N)
    lines = [f"{n}, {a:.17g}" for n, a in enumerate(series.coeffs)]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
