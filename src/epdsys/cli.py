"""Command-line driver.

Subcommands:
  solve <config>                 run one simulation, print error summary
  bench <config> [--J LIST]      Table-1 style benchmark, write CSV
  converge <config> [--J LIST]   convergence study; exit 2 if order off-band
  series --lambda L --nu NU --K K --N N [--out PATH]
  validate <config>              run all oracles; exit 2 on failure

Exit codes: 0 success, 2 validation failure, 1 error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench as bench_mod
from .exact import frobenius_coefficients, ode_residual, stationary_additive
from .exceptions import ConfigError, EpdError
from .grid import build_grid, discrete_errors
from .operators import assemble_step_operators, build_operator_set
from .stepper import SOLVER_SYLVESTER, ProblemDef, cfl_guard, march, plan_solves
from .sylvester import CoupledProblem, format_pair, kronecker_solve, solve_coupled

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION = 2

ORACLE_SEED = 12345  # rng seed of the solver cross-check in `validate`

# printed format of the bench table's columns; every other column is .6g
_BENCH_FORMATS = {"J": "d", "time_II_ms": ".3f", "time_I_ms": ".3f", "ratio": ".3g"}


def _load_config(path):
    with open(path, encoding="utf-8") as fh:
        return bench_mod.parse_config(fh.read())


def _parse_J_list(text):
    """The comma-separated grid sizes of --J; ConfigError on a non-integer or an empty list."""
    J_list = []
    for part in filter(None, (part.strip() for part in text.split(","))):
        try:
            J_list.append(int(part))
        except ValueError:
            raise ConfigError(f"--J: {part!r} is not an integer") from None
    if not J_list:
        raise ConfigError(f"--J: no grid sizes in {text!r}")
    return tuple(J_list)


def cmd_solve(args):
    config = _load_config(args.config)
    solver = config.solver if config.solver != "both" else SOLVER_SYLVESTER
    grid = build_grid(bench_mod.grid_spec_for(config))
    prob, exact = bench_mod.manufactured_problem(config)
    ok, guard = cfl_guard(grid, prob.lam, prob.gamma)
    if not ok:
        print(f"warning: sufficient stability bound fails, 4*sigma*C_alpha = {guard:.3g}")
    try:
        bench_mod.check_forcing_certificate(config)
    except EpdError as exc:
        # bench and converge refuse such a config; solve runs it, but the
        # forcing does not produce the exact pair that Er is measured against
        print(f"warning: {exc}, so Er is not a discretization error")
    reports = []

    def states():
        # Er is folded level by level; only the step reports are kept
        for state, step_report in march(prob, grid, solver=solver, sing_policy=config.sing_policy):
            if step_report is not None:
                reports.append(step_report)
            yield state

    report = discrete_errors(states(), exact, grid)
    print(f"J={config.J} h={grid.h:.6g} l={grid.l:.6g} steps={grid.n_steps} "
          f"t_end={grid.time(grid.n_steps):.6g} solver={solver}")
    print(f"Er={report.er:.6g} RelEr={report.rel_er:.6g}")
    print(f"max residual={max(r.residual_coupled for r in reports):.3e} "
          f"min margin={min(r.margin for r in reports):.3e}")
    return EXIT_OK


def cmd_bench(args):
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    config = _load_config(args.config)
    J_list = _parse_J_list(args.J) if args.J else bench_mod.DEFAULT_BENCH_J
    rows = bench_mod.run_table1(config, J_list=J_list, repeats=args.repeats)
    print(bench_mod.CSV_HEADER)
    for r in rows:
        print(",".join(
            format(getattr(r, name), _BENCH_FORMATS.get(name, ".6g"))
            for name in bench_mod.CSV_COLUMNS
        ))
        # a run takes at least two steps, so a coarse grid may end past T
        t_end = config.t0 + bench_mod.grid_spec_for(config, r.J).n_steps * r.l
        if t_end > config.T:
            print(f"  note: ends at t={t_end:.6g} (T={config.T:.6g})")
        if r.error:
            print(f"  note: {r.error}")
    if config.out_csv:
        print(f"csv written to {config.out_csv}")
    return EXIT_OK


def cmd_converge(args):
    config = _load_config(args.config)
    J_list = _parse_J_list(args.J) if args.J else bench_mod.DEFAULT_CONVERGENCE_J
    report = bench_mod.run_convergence(config, J_list=J_list)
    for J, h, er in report.rows:
        print(f"J={J} h={h:.6g} Er={er:.6g}")
    print(f"order={report.order:.4g}")
    if not report.ok:
        low, high = bench_mod.ORDER_BAND
        print(f"validation failure: order outside [{low}, {high}]")
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_series(args):
    text = bench_mod.emit_series_table(args.lam, args.nu, args.K, args.N, path=args.out)
    if args.out:
        print(f"series table written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args):
    config = _load_config(args.config)
    failures = []

    def check(name, fn):
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:
            failures.append(name)
            print(f"FAIL {name}: {exc}")

    def forcing():
        res = bench_mod.check_forcing_certificate(config)
        print(f"     pde residual = {res:.3e}")

    def closed_form():
        form = stationary_additive(0.25, 0.25, 1.0, 1.0, 1.0)
        if form.certificate > 1e-8:
            raise EpdError(f"additive certificate {form.certificate:.3e} > 1e-8")

    def series_engine():
        s = frobenius_coefficients(0.5, 0.0, 1.0, 40)
        res = ode_residual(s, 0.5, 1.0, "eigen", np.linspace(0.1, 1.0, 19))
        if res > 1e-8:
            raise EpdError(f"series residual {res:.3e} > 1e-8")

    def solver_oracle():
        rng = np.random.default_rng(ORACLE_SEED)
        n = 6
        p = CoupledProblem(
            W=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
            R=0.1 * rng.standard_normal((n, n)),
            S=0.1 * rng.standard_normal((n, n)),
            C1=rng.standard_normal((n, n)),
            C2=rng.standard_normal((n, n)),
        )
        X1, Y1 = solve_coupled(p)
        X2, Y2 = kronecker_solve(p)
        err = max(np.abs(X1 - X2).max(), np.abs(Y1 - Y2).max())
        if err > 1e-10 * max(1.0, np.abs(X2).max()):
            raise EpdError(f"solver mismatch {err:.3e}")

    def solvability_schedule():
        # the run's preflight alone: factor once, check every step, no stepping
        grid = build_grid(bench_mod.grid_spec_for(config))
        prob, _ = bench_mod.manufactured_problem(config)
        opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy=config.sing_policy)
        plan = plan_solves(assemble_step_operators(opset, grid), grid, prob.a)
        margin, n, branch, pair = plan.min_margin()
        kernels = ", ".join(f"{p.branch} {p.kernel}" for p in plan.pairs)
        print(
            f"     min margin = {margin:.3e} at step {n}, {branch} branch, "
            f"pair {format_pair(*pair)}; kernels: {kernels}"
        )

    def zero_trajectory():
        zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
        prob = ProblemDef(
            a=config.a, lam=0.0, gamma=0.0, p=config.p, q=config.q,
            data=(zero, zero, zero, zero), nonlinear=False,
        )
        spec = bench_mod.grid_spec_for(config, 4)
        top = max(state.sup_norm() for state, _ in march(prob, spec))
        if top > 1e-14:
            raise EpdError(f"zero data produced nonzero trajectory ({top:.3e})")

    check("forcing certificate", forcing)
    check("closed-form residuals", closed_form)
    check("series engine residual", series_engine)
    check("solver cross-check", solver_oracle)
    check("solvability schedule", solvability_schedule)
    check("trivial zero trajectory", zero_trajectory)

    if failures:
        print(f"{len(failures)} validation failure(s)")
        return EXIT_VALIDATION
    print("all validations passed")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="epdsys", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one simulation")
    p_solve.add_argument("config")
    p_solve.set_defaults(fn=cmd_solve)

    p_bench = sub.add_parser("bench", help="error/timing benchmark")
    p_bench.add_argument("config")
    p_bench.add_argument("--J", help="comma-separated J list", default=None)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.set_defaults(fn=cmd_bench)

    p_conv = sub.add_parser("converge", help="convergence-order study")
    p_conv.add_argument("config")
    p_conv.add_argument("--J", help="comma-separated J list", default=None)
    p_conv.set_defaults(fn=cmd_converge)

    p_series = sub.add_parser("series", help="emit Frobenius coefficient table")
    p_series.add_argument("--lambda", dest="lam", type=float, required=True)
    p_series.add_argument("--nu", type=float, required=True)
    p_series.add_argument("--K", type=float, required=True)
    p_series.add_argument("--N", type=int, required=True)
    p_series.add_argument("--out", default=None)
    p_series.set_defaults(fn=cmd_series)

    p_val = sub.add_parser("validate", help="run all oracles")
    p_val.add_argument("config")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EpdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
