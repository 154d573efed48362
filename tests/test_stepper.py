import math

import numpy as np
import pytest

from epdsys.exceptions import BlowUpError, InvalidSpecError, SingularTimeError
from epdsys.grid import CoupledState, Field, GridSpec, build_grid, discrete_errors
from epdsys.operators import assemble_step_operators, build_operator_set
from epdsys.stepper import (
    ProblemDef,
    assemble_rhs,
    cfl_guard,
    convergence_order,
    init_levels,
    nonlinear_G,
    nonlinear_H,
    run,
    step,
)
from epdsys.sylvester import solvability_margin

ZERO = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))


def gauss(x, y):
    return np.exp(-(x * x + y * y))


def test_nonlinear_g_zero_field():
    X = Field(np.zeros((3, 3)))
    Y = Field(np.ones((3, 3)))
    assert np.all(nonlinear_G(X, Y, 1.5).values == 0.0)


def test_nonlinear_g_pointwise():
    X = Field(np.full((2, 2), -3.0))
    Y = Field(np.full((2, 2), 2.0))
    assert np.allclose(nonlinear_G(X, Y, 2.0).values, 6.0)
    assert np.allclose(nonlinear_H(Y, X, 2.0).values, 6.0)


def test_nonlinear_g_entrywise_bound(rng):
    X = Field(rng.standard_normal((6, 6)))
    Y = Field(rng.standard_normal((6, 6)))
    p = 1.7
    G = nonlinear_G(X, Y, p).values
    bound = np.abs(X.values).max() ** (p - 1.0) * np.abs(Y.values)
    assert np.all(np.abs(G) <= bound + 1e-15)


def test_nonlinear_g_gaussian_power():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=9))
    X, Y = grid.meshgrid()
    g = gauss(X, Y)
    G = nonlinear_G(Field(g), Field(g.copy()), 1.5)
    assert np.allclose(G.values, np.exp(-1.5 * (X * X + Y * Y)), atol=1e-14)


def test_init_levels_exact_mode(ref_grid24):
    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        exact=lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2,
    )
    s0, s1 = init_levels(prob, ref_grid24)
    assert s0.level == 0 and s1.level == 1
    assert s0.U.values[12, 12] == pytest.approx(0.726149, abs=1e-6)
    # level 1 sits at t0 + l = h^(3/2) under the coupled rule
    t1 = ref_grid24.time(1)
    assert t1 == pytest.approx(0.8**1.5, rel=1e-14)
    assert s1.U.values[12, 12] == pytest.approx(np.exp(-(0.5 * t1 * t1 + 0.32)), rel=1e-12)


def test_init_levels_taylor_zero_data():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO, ZERO, ZERO, ZERO))
    s0, s1 = init_levels(prob, grid)
    assert np.all(s0.U.values == 0.0) and np.all(s1.V.values == 0.0)


def test_init_levels_taylor_rejects_singular_t0():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=0.0))
    prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(gauss, ZERO, gauss, ZERO))
    with pytest.raises(SingularTimeError):
        init_levels(prob, grid)
    # the regularization flag turns it into the one-sided limit system
    prob_ok = ProblemDef(
        a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
        data=(gauss, ZERO, gauss, ZERO), allow_singular_t0=True,
    )
    s0, s1 = init_levels(prob_ok, grid)
    assert np.isfinite(s1.U.values).all()


def test_init_levels_taylor_matches_exact_expansion():
    # taylor seeding reproduces the exact second level to O(l^3 + l h^2)
    grid = build_grid(GridSpec(L0=-10, L1=10, J=49, t0=0.5, step_rule="independent", l=0.01))
    exact = lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2

    def G1(x, y, t):
        g1 = np.exp(-(0.5 * t * t + x * x + y * y))
        return (t * t - 4 * (x * x + y * y)) * g1 - np.exp(-1.5 * (0.5 * t * t + x * x + y * y))

    def G2(x, y, t):
        g1 = np.exp(-(0.5 * t * t + x * x + y * y))
        return (t * t - 4 * (x * x + y * y)) * g1 - np.exp(-(4 / 3) * (0.5 * t * t + x * x + y * y))

    u0 = lambda x, y: np.exp(-(0.125 + x * x + y * y))
    u1 = lambda x, y: -0.5 * np.exp(-(0.125 + x * x + y * y))
    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        forcing=(G1, G2), data=(u0, u1, u0, u1),
    )
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy="limit")
    _, s1 = init_levels(prob, grid, opset)
    X, Y = grid.meshgrid()
    u_exact = exact(X, Y, grid.time(1))[0]
    # error budget: l^3 u_ttt / 6 plus (l^2/2) x O(h^2) from the discrete RHS
    assert np.abs(s1.U.values - u_exact).max() < 5e-5


def test_init_levels_taylor_one_term():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0, step_rule="independent", l=0.25))
    u1 = lambda x, y: np.ones_like(x)
    prob = ProblemDef(
        a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
        data=(gauss, u1, gauss, u1), taylor_terms=1,
    )
    s0, s1 = init_levels(prob, grid)
    assert np.allclose(s1.U.values, s0.U.values + 0.25, atol=1e-14)


def _zero_history(grid, n):
    Z = np.zeros((grid.size, grid.size))
    return (
        CoupledState(Field(Z.copy(), n), Field(Z.copy(), n)),
        CoupledState(Field(Z.copy(), n - 1), Field(Z.copy(), n - 1)),
    )


def test_assemble_rhs_zero_history():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    opset = build_operator_set(grid, 0.25, 0.25)
    ops = assemble_step_operators(opset, grid, 1, 0.25, 1.0)
    C1, C2 = assemble_rhs(_zero_history(grid, 1), ops, opset, prob, grid, 1)
    assert np.all(C1.values == 0.0) and np.all(C2.values == 0.0)


def test_assemble_rhs_alpha_half_kills_gradient_history(rng):
    grid = build_grid(GridSpec(L0=1, L1=8, J=6, t0=1.0, step_rule="independent", l=0.3))
    prob = ProblemDef(a=0.0, lam=0.5, gamma=0.5, p=2.0, q=2.0, data=(ZERO,) * 4, nonlinear=False)
    opset = build_operator_set(grid, 0.5, 0.5)
    ops = assemble_step_operators(opset, grid, 1, 0.5, 0.0)
    n = grid.size
    # only V^n nonzero: C1 reduces to the (1 - 2 alpha) gradient-history term
    Vn = rng.standard_normal((n, n))
    hist = (
        CoupledState(Field(np.zeros((n, n)), 1), Field(Vn, 1)),
        CoupledState(Field(np.zeros((n, n)), 0), Field(np.zeros((n, n)), 0)),
    )
    C1, _ = assemble_rhs(hist, ops, opset, prob, grid, 1)
    assert np.allclose(C1.values, 0.0, atol=1e-14)


def test_assemble_rhs_constant_fields_reduce_to_time_terms():
    # A annihilates constants, lam = gamma = a = 0, alpha = 0:
    # C1 = 2 U^n - U^{n-1} entrywise
    grid = build_grid(GridSpec(L0=0, L1=2, J=1, t0=1.0, step_rule="independent", l=0.5))
    prob = ProblemDef(a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO,) * 4, nonlinear=False)
    opset = build_operator_set(grid, 0.0, 0.0)
    ops = assemble_step_operators(opset, grid, 1, 0.0, 0.0)
    n = grid.size
    Un = np.full((n, n), 3.0)
    Um = np.full((n, n), 2.0)
    hist = (
        CoupledState(Field(Un, 1), Field(Un.copy(), 1)),
        CoupledState(Field(Um, 0), Field(Um.copy(), 0)),
    )
    C1, C2 = assemble_rhs(hist, ops, opset, prob, grid, 1)
    assert np.allclose(C1.values, 2 * Un - Um, atol=1e-13)
    assert np.allclose(C2.values, 2 * Un - Um, atol=1e-13)


def test_step_zero_state_stays_zero():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    opset = build_operator_set(grid, 0.25, 0.25)
    ops = assemble_step_operators(opset, grid, 1, 0.25, 1.0)
    state, report = step(_zero_history(grid, 1), ops, opset, prob, grid, 1)
    assert np.all(state.U.values == 0.0) and np.all(state.V.values == 0.0)
    assert report.residual_coupled == 0.0
    assert state.level == 2


def test_single_step_reference_error(ref_config, ref_grid24, ref_problem):
    # regression: one step of the reference problem at J=24 (RMS scale)
    prob, exact = ref_problem
    traj, reports = run(prob, ref_grid24.spec, sing_policy="limit")
    rep = discrete_errors(traj, exact, ref_grid24)
    assert rep.er < 0.1
    assert rep.er == pytest.approx(6.0935e-3, rel=1e-3)


def test_step_margins_match_solvability_margin(ref_grid24, ref_problem):
    # the Sylvester path reads each margin off its own Schur spectra
    prob, _ = ref_problem
    _, reports = run(prob, ref_grid24.spec, sing_policy="limit")
    opset = build_operator_set(ref_grid24, prob.lam, prob.gamma, sing_policy="limit")
    alpha = ref_grid24.spec.alpha if prob.alpha is None else prob.alpha
    assert reports
    for report in reports:
        ops = assemble_step_operators(opset, ref_grid24, report.n, alpha, prob.a)
        expected = solvability_margin(ops.W_alpha, ops.R_pos, ops.S_pos, ops.W_alpha.T)
        assert report.margin == pytest.approx(expected, rel=1e-10)


def test_linear_step_matches_kronecker():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=4, t0=0.0, n_steps=3))
    exact = lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2
    prob = ProblemDef(a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3, exact=exact, nonlinear=False)
    t_s, _ = run(prob, grid, solver="sylvester")
    t_k, _ = run(prob, grid, solver="kronecker")
    for a, b in zip(t_s, t_k):
        assert np.abs(a.U.values - b.U.values).max() <= 1e-10
        assert np.abs(a.V.values - b.V.values).max() <= 1e-10


def test_run_zero_everything_is_zero():
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.0, n_steps=6)
    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        data=(ZERO,) * 4, allow_singular_t0=True,
    )
    traj, reports = run(prob, spec)
    assert len(traj) == 7
    assert max(s.sup_norm() for s in traj) == 0.0


def test_run_requires_two_steps():
    spec = GridSpec(L0=-1, L1=1, J=3, n_steps=1)
    prob = ProblemDef(a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO,) * 4)
    with pytest.raises(InvalidSpecError):
        run(prob, spec)


def test_run_blowup_detection():
    # explicit scheme (alpha = 0) with a violently large time step blows up
    spec = GridSpec(L0=-1, L1=1, J=9, t0=1.0, n_steps=60, alpha=0.0,
                    step_rule="independent", l=1.0)
    prob = ProblemDef(
        a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
        data=(gauss, ZERO, gauss, ZERO), nonlinear=False,
    )
    with pytest.raises(BlowUpError) as err:
        run(prob, spec, blowup_cap=1e6)
    assert err.value.step is not None


def test_cfl_guard_reference_parameters(ref_grid24):
    opset = build_operator_set(ref_grid24, 0.25, 0.25)
    ok, value = cfl_guard(ref_grid24, 0.25, opset)
    assert not ok
    assert value == pytest.approx(4.0, rel=1e-12)


def test_cfl_guard_alpha_zero(ref_grid24):
    opset = build_operator_set(ref_grid24, 0.25, 0.25)
    ok, value = cfl_guard(ref_grid24, 0.0, opset)
    assert ok and value == 0.0


def test_cfl_guard_small_sigma_passes():
    # sigma = 0.1, lam = gamma = 0, alpha = 1/4 -> 4 sigma C_alpha = 0.4
    l = math.sqrt(0.1) * 0.5
    grid = build_grid(GridSpec(L0=0, L1=5, J=9, step_rule="independent", l=l))
    assert grid.sigma == pytest.approx(0.1)
    opset = build_operator_set(grid, 0.0, 0.0)
    ok, value = cfl_guard(grid, 0.25, opset)
    assert ok and value == pytest.approx(0.4)


def test_convergence_order_synthetic():
    hs = [0.8, 0.4, 0.2, 0.1]
    assert convergence_order([(h, h * h) for h in hs]) == pytest.approx(2.0, abs=1e-12)
    assert convergence_order([(h, h) for h in hs]) == pytest.approx(1.0, abs=1e-12)
    assert convergence_order([(0.4, 0.0), (0.2, 0.0)]) == float("inf")
    with pytest.raises(InvalidSpecError):
        convergence_order([(0.4, 0.1)])


def test_symmetric_problem_keeps_u_equal_v():
    # p = q with identical data and forcing: U^n = V^n along the whole run
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=5)
    exact = lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2

    def G(x, y, t):
        g1 = np.exp(-(0.5 * t * t + x * x + y * y))
        return (t * t - 4 * (x * x + y * y)) * g1 - np.exp(-1.5 * (0.5 * t * t + x * x + y * y))

    prob = ProblemDef(a=2.5, lam=0.25, gamma=0.25, p=1.5, q=1.5, forcing=(G, G), exact=exact)
    traj, _ = run(prob, spec)
    worst = max(np.abs(s.U.values - s.V.values).max() for s in traj)
    assert worst <= 1e-9


def test_problem_def_validation():
    with pytest.raises(InvalidSpecError):
        ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=1.0, q=2.0, data=(ZERO,) * 4)
    with pytest.raises(InvalidSpecError):
        ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0)  # no seeding
    with pytest.raises(InvalidSpecError):
        ProblemDef(
            a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
            data=(ZERO,) * 4, exact=lambda x, y, t: (x, y),
        )


@pytest.mark.parametrize("seeding", ["exact", "data"])
def test_run_raising_forcing_is_invalid_spec(seeding):
    # forcing is sampled like data: a raising callable names the nodes it failed on
    def broken(x, y, t):
        raise ValueError("forcing undefined")

    seed = {"exact": {"exact": lambda x, y, t: (gauss(x, y), gauss(x, y))},
            "data": {"data": (gauss, ZERO, gauss, ZERO)}}[seeding]
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, forcing=(broken, broken), **seed)
    with pytest.raises(InvalidSpecError, match="sampling failed on nodes"):
        run(prob, GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))
