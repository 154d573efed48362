"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line with the measured values so the suite
doubles as a report (run with `pytest -s tests/test_acceptance.py`).

Reference configuration throughout: the manufactured problem u = v =
exp(-(t^2/2 + r^2)) on [-10, 10]^2 with (a, lam, gamma, p, q) =
(5/2, 1/4, 1/4, 3/2, 4/3), t0 = 0, T = 1, alpha = 0.25, l = h^(3/2),
exact seeding, axis policy "limit" (see the RunConfig default).
"""

import time

import numpy as np

from epdsys.bench import (
    RunConfig,
    grid_spec_for,
    manufactured_problem,
    run_convergence,
)
from epdsys.exact import frobenius_coefficients, ode_residual, pde_residual, sample_box
from epdsys.grid import GridSpec, build_grid, discrete_errors
from epdsys.stepper import ProblemDef, cfl_guard, run
from epdsys.sylvester import CoupledProblem, kronecker_solve, solvability_margin, solve_coupled

TABLE1_ER = 3.31e-3
TABLE1_RELER = 0.1382


def _report(name, detail):
    print(f"\nPASS {name}: {detail}")


def test_criterion_1_manufactured_accuracy():
    """Er within 10x of 3.31e-3 and RelEr within 3x of 0.1382 at J=24."""
    config = RunConfig(J=24)
    spec = grid_spec_for(config)
    grid = build_grid(spec)
    prob, exact = manufactured_problem(config)
    start = time.perf_counter()
    trajectory, _ = run(prob, spec, solver="sylvester", sing_policy=config.sing_policy)
    elapsed = time.perf_counter() - start
    rep = discrete_errors(trajectory, exact, grid)
    assert TABLE1_ER / 10 <= rep.er <= TABLE1_ER * 10
    assert TABLE1_RELER / 3 <= rep.rel_er <= TABLE1_RELER * 3
    assert elapsed < 30
    _report(
        "criterion 1 (manufactured accuracy)",
        f"Er={rep.er:.4e} ({rep.er / TABLE1_ER:.2f}x of {TABLE1_ER}), "
        f"RelEr={rep.rel_er:.4f} ({rep.rel_er / TABLE1_RELER:.2f}x of {TABLE1_RELER}), "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_2_convergence_order():
    """Fitted order of Er vs h over J in {24, 49, 99} lies in [1.5, 2.5]."""
    start = time.perf_counter()
    report = run_convergence(RunConfig(J=24), J_list=(24, 49, 99))
    elapsed = time.perf_counter() - start
    assert 1.5 <= report.order <= 2.5
    assert elapsed < 300
    rows = ", ".join(f"J={J}: Er={er:.3e}" for J, _, er in report.rows)
    _report("criterion 2 (convergence order)", f"order={report.order:.3f} [{rows}], {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    """Decoupled and Kronecker solvers agree: random systems and the J=4 run."""
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    accepted = 0
    worst = 0.0
    while accepted < 50:
        n = int(rng.integers(2, 9))
        W = rng.standard_normal((n, n))
        Wr = rng.standard_normal((n, n))
        R = 0.4 * rng.standard_normal((n, n))
        S = 0.4 * rng.standard_normal((n, n))
        if solvability_margin(W, R, S, Wr) <= 1e-6:
            continue
        accepted += 1
        p = CoupledProblem(
            W, R, S, rng.standard_normal((n, n)), rng.standard_normal((n, n)), W_right=Wr
        )
        X1, Y1 = solve_coupled(p)
        X2, Y2 = kronecker_solve(p)
        scale = max(np.abs(X2).max(), np.abs(Y2).max(), 1.0)
        worst = max(worst, np.abs(X1 - X2).max() / scale, np.abs(Y1 - Y2).max() / scale)
    assert worst <= 1e-10

    config = RunConfig(J=4)
    spec = grid_spec_for(config)
    prob, _ = manufactured_problem(config)
    traj_s, _ = run(prob, spec, solver="sylvester", sing_policy=config.sing_policy)
    traj_k, _ = run(prob, spec, solver="kronecker", sing_policy=config.sing_policy)
    worst_traj = max(
        max(np.abs(a.U.values - b.U.values).max(), np.abs(a.V.values - b.V.values).max())
        for a, b in zip(traj_s, traj_k)
    )
    elapsed = time.perf_counter() - start
    assert worst_traj <= 1e-9
    assert elapsed < 10
    _report(
        "criterion 3 (oracle equivalence)",
        f"50 random systems worst {worst:.2e} (<=1e-10), "
        f"J=4 trajectories worst {worst_traj:.2e} (<=1e-9), {elapsed:.1f}s",
    )


def test_criterion_4_residual_contract():
    """Every coupled solve in a benchmark run reports residual <= 1e-9."""
    worst = 0.0
    for J in (4, 9, 24):
        config = RunConfig(J=J)
        spec = grid_spec_for(config)
        prob, _ = manufactured_problem(config)
        _, reports = run(prob, spec, solver="sylvester", sing_policy=config.sing_policy)
        worst = max(worst, max(r.residual_coupled for r in reports))
    assert worst <= 1e-9
    _report("criterion 4 (residual contract)", f"max relative residual {worst:.2e} <= 1e-9")


def test_criterion_5_stability():
    """Linear zero-forcing run with 4 sigma C_alpha < 1 stays bounded, 200 steps."""
    start = time.perf_counter()
    spec = GridSpec(
        L0=-10, L1=10, J=24, t0=1.0, n_steps=200, alpha=0.25,
        step_rule="independent", l=0.2,
    )
    grid = build_grid(spec)
    ok, guard = cfl_guard(grid, 0.0, 0.0)
    assert ok, f"stability precondition violated: 4 sigma C_alpha = {guard}"
    u0 = lambda x, y: np.exp(-(x * x + y * y))
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    prob = ProblemDef(
        a=2.5, lam=0.0, gamma=0.0, p=2.0, q=2.0,
        data=(u0, zero, u0, zero), nonlinear=False,
    )
    trajectory, _ = run(prob, spec)
    norms = [s.sup_norm() for s in trajectory]
    bound = 10.0 * max(norms[:2])
    elapsed = time.perf_counter() - start
    assert len(trajectory) == 201
    assert max(norms) <= bound
    assert elapsed < 30
    _report(
        "criterion 5 (stability)",
        f"4 sigma C_alpha = {guard:.3f} < 1; sup_n = {max(norms):.3f} "
        f"<= {bound:.3f} over 200 steps, {elapsed:.1f}s",
    )


def test_criterion_6_series_engine():
    """lam=1/2, K=1 coefficients match I0 rationally to n=20; residual <= 1e-8."""
    from fractions import Fraction
    from math import factorial

    start = time.perf_counter()
    s = frobenius_coefficients(Fraction(1, 2), 0, 1, 20, a0=1, exact=True)
    for n in range(21):
        expected = (
            Fraction(1, 4 ** (n // 2) * factorial(n // 2) ** 2) if n % 2 == 0 else Fraction(0)
        )
        assert s.coeffs_exact[n] == expected
    s40 = frobenius_coefficients(0.5, 0.0, 1.0, 40)
    res = ode_residual(s40, 0.5, 1.0, "eigen", np.linspace(0.05, 1.0, 39))
    elapsed = time.perf_counter() - start
    assert res <= 1e-8
    assert elapsed < 1
    _report(
        "criterion 6 (series engine)",
        f"I0 coefficients exact to n=20; N=40 residual {res:.2e} <= 1e-8, {elapsed:.2f}s",
    )


def test_criterion_7_forcing_certificate():
    """pde_residual of the manufactured solution <= 1e-5 on a 5x5x5 box."""
    start = time.perf_counter()
    config = RunConfig(J=24)
    prob, exact = manufactured_problem(config)
    u = lambda x, y, t: exact(x, y, t)[0]
    pts = sample_box(
        np.linspace(0.3, 1.5, 5), np.linspace(0.3, 1.5, 5), np.linspace(0.2, 1.0, 5)
    )
    res = pde_residual(u, u, prob, pts)
    elapsed = time.perf_counter() - start
    assert res <= 1e-5
    assert elapsed < 5
    _report(
        "criterion 7 (forcing certificate)",
        f"pde residual {res:.2e} <= 1e-5 on 125 samples, {elapsed:.2f}s",
    )


def test_criterion_8_performance_ordering():
    """At J=49 the Sylvester path is at least 2x faster than dense Kronecker."""
    config = RunConfig(J=49)
    spec = grid_spec_for(config, 49)
    prob, _ = manufactured_problem(config)
    start = time.perf_counter()
    run(prob, spec, solver="sylvester", sing_policy=config.sing_policy)
    t_sylvester = time.perf_counter() - start
    start = time.perf_counter()
    run(prob, spec, solver="kronecker", sing_policy=config.sing_policy)
    t_kronecker = time.perf_counter() - start
    assert t_kronecker >= 2.0 * t_sylvester
    assert t_sylvester + t_kronecker < 120
    _report(
        "criterion 8 (performance ordering)",
        f"sylvester {t_sylvester * 1e3:.0f} ms vs kronecker {t_kronecker * 1e3:.0f} ms "
        f"({t_kronecker / t_sylvester:.0f}x, >= 2x required)",
    )


def test_criterion_9_trivial_exactness():
    """Zero data and zero forcing yield the identically zero trajectory."""
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))
    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        data=(zero, zero, zero, zero),
    )
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=8, alpha=0.25)
    trajectory, _ = run(prob, spec)
    worst = max(s.sup_norm() for s in trajectory)
    assert worst <= 1e-14
    _report("criterion 9 (trivial exactness)", f"max trajectory norm {worst:.1e} <= 1e-14")
