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
from typing import Sequence, get_type_hints

import numpy as np

from .exceptions import ConfigError, EpdError, InvalidSpecError
from .exact import frobenius_coefficients, pde_residual, sample_box
from .grid import GridSpec, build_grid, discrete_errors
from .operators import SING_LIMIT, SING_ZERO
from .stepper import (
    SOLVER_KRONECKER,
    SOLVER_SYLVESTER,
    ProblemDef,
    convergence_order,
    march,
    run,
)

DEFAULT_BENCH_J = (4, 9, 24, 49)
DEFAULT_CONVERGENCE_J = (24, 49, 99)
FORCING_CERT_TOL = 1e-5


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully defaulted run parameters (see parse_config for the file format).

    A float field that is not finite, an unknown solver, seed_mode or
    sing_policy, or T <= t0, raises ConfigError; grid_spec_for checks the mesh.
    """

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
    solver: str = "both"
    seed_mode: str = "exact"
    sing_policy: str = SING_LIMIT
    out_csv: str = "table1.csv"

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name!r} must be finite, got {getattr(self, name)!r}")
        if self.solver not in (SOLVER_SYLVESTER, SOLVER_KRONECKER, "both"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.seed_mode not in ("exact", "taylor"):
            raise ConfigError(f"unknown seed_mode {self.seed_mode!r}")
        if self.sing_policy not in (SING_ZERO, SING_LIMIT):
            raise ConfigError(f"unknown sing_policy {self.sing_policy!r}")
        if not self.T > self.t0:
            raise ConfigError(f"need T > t0, got t0={self.t0}, T={self.T}")


# config key -> RunConfig field: the field's own name, but 'lambda' for lam
_KEY_FIELDS = {
    ("lambda" if f.name == "lam" else f.name): f.name for f in dataclasses.fields(RunConfig)
}
_FIELD_TYPES = get_type_hints(RunConfig)


def parse_config(text: str) -> RunConfig:
    """Parse 'key = value' lines; '#' starts a comment; unknown keys and
    non-finite floats raise ConfigError naming the line, then RunConfig checks."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}", line=lineno)
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _KEY_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", line=lineno)
        field = _KEY_FIELDS[key]
        if field in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", line=lineno)
        kind = _FIELD_TYPES[field]
        try:
            values[field] = kind(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}", line=lineno) from exc
        if kind is float and not math.isfinite(values[field]):
            raise ConfigError(f"line {lineno}: {key!r} must be finite, got {val!r}", line=lineno)
    if "J" not in values:
        raise ConfigError("missing mandatory key 'J'")
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# the manufactured reference problem


def manufactured_problem(config: RunConfig) -> tuple[ProblemDef, "callable"]:
    """ProblemDef for the reference experiment plus its exact solution pair.

    Every term is separable, g_s = exp(-s t^2/2) exp(-s r^2), so a time level
    costs one scalar exp per exponent and a few products of spatial factors:
    exp(-r^2), 4 r^2 exp(-r^2), exp(-p r^2) and exp(-q r^2).  These are
    computed once for read-only coordinate matrices, such as the grid's
    `Grid.meshgrid()`, and kept while the same pair is passed again; any
    other input (the certificate's sample points) gets them computed afresh.
    """
    p, q = config.p, config.q
    last = []  # [(x, y, factors)] of the last read-only coordinate pair

    def spatial(x, y):
        """(exp(-r^2), 4 r^2 exp(-r^2), exp(-p r^2), exp(-q r^2)) at (x, y)."""
        if last and last[0][0] is x and last[0][1] is y:
            return last[0][2]
        r2 = x * x + y * y
        g = np.exp(-r2)
        gp = np.exp(-p * r2)
        factors = (g, 4.0 * r2 * g, gp, gp if q == p else np.exp(-q * r2))
        if all(isinstance(w, np.ndarray) and not w.flags.writeable for w in (x, y)):
            last[:] = [(x, y, factors)]
        return factors

    def g1(x, y, t):
        return np.exp(-0.5 * t * t) * spatial(x, y)[0]

    def forcing(x, y, t):
        g, four_r2_g, gp, gq = spatial(x, y)
        half_t2 = 0.5 * t * t
        shared = np.exp(-half_t2) * (t * t * g - four_r2_g)
        return shared - np.exp(-p * half_t2) * gp, shared - np.exp(-q * half_t2) * gq

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
        seeding = {"data": (u0, u1, u0, u1)}

    prob = ProblemDef(
        a=config.a,
        lam=config.lam,
        gamma=config.gamma,
        p=config.p,
        q=config.q,
        forcing=forcing,
        **seeding,
    )
    return prob, exact


def grid_spec_for(config: RunConfig, J: int | None = None) -> GridSpec:
    """GridSpec for a config at grid size J (default config.J), with
    n_steps = max(2, ceil((T - t0) / l)), so a run may end past T.

    InvalidSpecError for an invalid mesh (GridSpec.mesh_steps) or a step
    count that overflows.
    """
    spec = GridSpec(
        L0=config.L0, L1=config.L1, J=config.J if J is None else J,
        t0=config.t0, alpha=config.alpha,
    )
    _, l = spec.mesh_steps()
    steps = (config.T - config.t0) / l
    if not math.isfinite(steps):
        raise InvalidSpecError(f"need a finite step count, got (T - t0) / l = {steps}")
    return dataclasses.replace(spec, n_steps=max(2, math.ceil(steps)))


def check_forcing_certificate(config: RunConfig) -> float:
    """Residual of the manufactured solution under its forcing; must be <= FORCING_CERT_TOL."""
    prob, exact = manufactured_problem(config)
    u = lambda x, y, t: exact(x, y, t)[0]
    v = lambda x, y, t: exact(x, y, t)[1]
    pts = sample_box(
        np.linspace(0.3, 1.5, 5), np.linspace(0.3, 1.5, 5), np.linspace(0.2, 1.0, 5)
    )
    res = pde_residual(u, v, prob, pts)
    if res > FORCING_CERT_TOL:
        raise EpdError(
            "the manufactured forcing does not produce its exact solution: "
            f"pde_residual = {res:.3e} > {FORCING_CERT_TOL:.1e}"
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
    error: str = ""


# the CSV and printed table columns: every BenchRow field but the error note
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(BenchRow) if f.name != "error")
CSV_HEADER = ",".join(CSV_COLUMNS)


def _timed_run(prob, grid, solver, repeats, sing_policy):
    """(median wall ms, trajectory, reports) over `repeats` identical runs."""
    times = []
    trajectory = reports = None
    for _ in range(repeats):
        start = time.perf_counter()
        trajectory, reports = run(prob, grid, solver=solver, sing_policy=sing_policy)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times), trajectory, reports


def run_table1(
    config: RunConfig,
    J_list: Sequence[int] = DEFAULT_BENCH_J,
    repeats: int = 3,
    csv_path: str | None = None,
) -> list[BenchRow]:
    """Run the manufactured experiment per J, timing the paths config.solver names.

    The forcing certificate is checked before any row is produced.  Solver
    failures are recorded on their row and the run continues.  A CSV is
    written to csv_path (default config.out_csv) with header CSV_HEADER.
    Raises InvalidSpecError for repeats < 1 or a bad grid before any work.
    """
    if repeats < 1:
        raise InvalidSpecError(f"need repeats >= 1, got {repeats}")
    grids = [build_grid(grid_spec_for(config, J)) for J in J_list]
    check_forcing_certificate(config)
    prob, exact = manufactured_problem(config)
    # Method II before Method I, each with the BenchRow columns it fills
    methods = {
        SOLVER_SYLVESTER: ("Er_II", "RelEr_II", "time_II_ms"),
        SOLVER_KRONECKER: ("Er_I", "RelEr_I", "time_I_ms"),
    }

    if config.solver in ("both", SOLVER_KRONECKER):
        # Method I imports scipy.linalg on its first solve; import it here so
        # that the first row's time_I_ms does not include the import
        import scipy.linalg

    rows: list[BenchRow] = []
    for J, grid in zip(J_list, grids):
        # every measured column (all but J, h, l) is NaN unless a method fills it
        values = dict.fromkeys(CSV_COLUMNS[3:], float("nan"))
        note = []
        for solver, (er, rel_er, ms) in methods.items():
            if config.solver not in ("both", solver):
                continue
            try:
                values[ms], traj, _ = _timed_run(prob, grid, solver, repeats, config.sing_policy)
                report = discrete_errors(traj, exact, grid)
                values[er], values[rel_er] = report.er, report.rel_er
            except EpdError as exc:
                note.append(f"{solver}: {exc}")
        t1, t2 = values["time_I_ms"], values["time_II_ms"]
        if math.isfinite(t1) and math.isfinite(t2):
            values["ratio"] = t1 / t2
        rows.append(BenchRow(J=J, h=grid.h, l=grid.l, error="; ".join(note), **values))
    path = csv_path if csv_path is not None else config.out_csv
    if path:
        write_bench_csv(rows, path)
    return rows


def write_bench_csv(rows: Sequence[BenchRow], path: str):
    """CSV_HEADER, then one line per row in CSV_COLUMNS order (floats in
    their shortest round-trip form)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fields = [str(getattr(r, name)) for name in CSV_COLUMNS]
            fh.write(",".join(fields) + "\n")


def read_bench_csv(path: str) -> list[BenchRow]:
    """Reader for files written by write_bench_csv; every column but the
    `error` note, which the CSV does not hold, round-trips (error reads "")."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(CSV_COLUMNS):
                raise ConfigError(f"bad CSV row: {line!r}")
            rows.append(BenchRow(int(parts[0]), *(float(part) for part in parts[1:])))
    return rows


# ---------------------------------------------------------------------------
# convergence study


# The band in which a fitted convergence order passes.
ORDER_BAND = (1.5, 2.5)


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    rows: list[tuple[int, float, float]]  # (J, h, Er)
    order: float
    ok: bool  # order within ORDER_BAND


def run_convergence(
    config: RunConfig, J_list: Sequence[int] = DEFAULT_CONVERGENCE_J
) -> ConvergenceReport:
    """Sylvester-path runs over J_list; fits the order of Er against h.

    Fewer than two distinct J, or any J given twice, raise InvalidSpecError
    before any grid is built, and every J's grid is built, and so checked,
    before the first run.  Er is folded over the levels as `march` yields
    them, so no run's trajectory is kept."""
    if len(set(J_list)) < 2:
        raise InvalidSpecError(f"need at least two grid levels (distinct J), got {tuple(J_list)}")
    if len(set(J_list)) < len(J_list):
        repeated = next(J for J in J_list if J_list.count(J) > 1)
        raise InvalidSpecError(f"grid size J={repeated} is repeated in {tuple(J_list)}")
    grids = [build_grid(grid_spec_for(config, J)) for J in J_list]
    check_forcing_certificate(config)
    prob, exact = manufactured_problem(config)
    rows = []
    for J, grid in zip(J_list, grids):
        levels = march(prob, grid, solver=SOLVER_SYLVESTER, sing_policy=config.sing_policy)
        report = discrete_errors((state for state, _ in levels), exact, grid)
        rows.append((J, grid.h, report.er))
    order = convergence_order([(h, er) for _, h, er in rows])
    ok = ORDER_BAND[0] <= order <= ORDER_BAND[1] or math.isinf(order)
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
