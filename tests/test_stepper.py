import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epdsys.stepper
import epdsys.sylvester
from epdsys.bench import RunConfig, grid_spec_for, manufactured_problem
from epdsys.exceptions import (
    BlowUpError, EpdError, InvalidSpecError, SingularTimeError, SizeGuardError, SolvabilityError,
)
from epdsys.grid import CoupledState, Field, GridSpec, build_grid, discrete_errors
from epdsys.operators import (
    BRANCH_SIGNS, StepOperators, TriDiagMatrix, assemble_step_operators, build_operator_set,
    step_shift,
)
from epdsys.stepper import (
    BranchLevel,
    ProblemDef,
    _power,
    assemble_rhs,
    cfl_guard,
    convergence_order,
    init_levels,
    level_source,
    march,
    plan_solves,
    prepare,
    run,
    step,
)
from epdsys.sylvester import CoupledProblem, solvability_margin

ZERO = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))


def uv_coefficients(opset, grid, c):
    """The dense U/V coefficients of step c_n = c, written from the mesh
    matrices: W = I/2 - alpha sigma A, R = c I - k Theta, S = c I - k Lambda."""
    w, k = grid.spec.alpha * grid.sigma, grid.spec.alpha * grid.sigma * grid.h
    I = np.eye(grid.size)
    A, Theta, Lam = (M.dense() for M in (opset.A, opset.Theta, opset.Lambda))
    return 0.5 * I - w * A, c * I - k * Theta, c * I - k * Lam


def gauss(x, y):
    return np.exp(-(x * x + y * y))


def seed_states(prob, grid, opset=None):
    """The states of levels 0 and 1 that `init_levels` seeds on the step operators of `opset`."""
    if opset is None:
        opset = build_operator_set(grid, prob.lam, prob.gamma)
    ops = assemble_step_operators(opset, grid)
    level0, level1 = init_levels(prob, grid, ops)
    return level0.state, level1.state


# G = |U|^(p-1) V and H = |V|^(q-1) U are `_power(U, V, p)` and `_power(V, U, q)`
def test_nonlinear_g_zero_field():
    X = np.zeros((3, 3))
    Y = np.ones((3, 3))
    assert np.all(_power(X, Y, 1.5) == 0.0)


def test_nonlinear_g_pointwise():
    X = np.full((2, 2), -3.0)
    Y = np.full((2, 2), 2.0)
    assert np.allclose(_power(X, Y, 2.0), 6.0)
    U, V = Y, X  # H = |V|^(q-1) U, as `level_source` forms it
    assert np.allclose(_power(V, U, 2.0), 6.0)


def test_nonlinear_g_entrywise_bound(rng):
    X = rng.standard_normal((6, 6))
    Y = rng.standard_normal((6, 6))
    p = 1.7
    G = _power(X, Y, p)
    bound = np.abs(X).max() ** (p - 1.0) * np.abs(Y)
    assert np.all(np.abs(G) <= bound + 1e-15)


def test_nonlinear_g_gaussian_power():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=9))
    X, Y = grid.meshgrid()
    g = gauss(X, Y)
    G = _power(g, g.copy(), 1.5)
    assert np.allclose(G, np.exp(-1.5 * (X * X + Y * Y)), atol=1e-14)


def test_init_levels_exact_mode(ref_grid24):
    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        exact=lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2,
    )
    s0, s1 = seed_states(prob, ref_grid24)
    assert s0.level == 0 and s1.level == 1
    assert s0.U.values[12, 12] == pytest.approx(0.726149, abs=1e-6)
    # level 1 sits at t0 + l = h^(3/2) under the coupled rule
    t1 = ref_grid24.time(1)
    assert t1 == pytest.approx(0.8**1.5, rel=1e-14)
    assert s1.U.values[12, 12] == pytest.approx(np.exp(-(0.5 * t1 * t1 + 0.32)), rel=1e-12)


def test_init_levels_taylor_zero_data():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO, ZERO, ZERO, ZERO))
    s0, s1 = seed_states(prob, grid)
    assert np.all(s0.U.values == 0.0) and np.all(s1.V.values == 0.0)


def test_init_levels_taylor_rejects_singular_t0():
    # the damping 2a/t is singular at t0 = 0: a nonzero initial velocity is
    # refused, and without damping (a = 0) it is taken
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=0.0))
    for u1, v1 in ((gauss, ZERO), (ZERO, gauss)):
        prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(gauss, u1, gauss, v1))
        with pytest.raises(SingularTimeError, match="needs zero initial velocity"):
            seed_states(prob, grid)
        undamped = dataclasses.replace(prob, a=0.0)
        assert np.isfinite(seed_states(undamped, grid)[1].U.values).all()
    # a zero velocity, the EPD condition at t = 0, takes the one-sided limit system
    prob_ok = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(gauss, ZERO, gauss, ZERO))
    s0, s1 = seed_states(prob_ok, grid)
    assert np.isfinite(s1.U.values).all()


@pytest.mark.parametrize("a", [0.5, -0.5])
def test_regularized_taylor_seeding_is_singular_at_a_half(a):
    # the one-sided limit system divides branch s by 1 + 2 a s: the
    # difference branch at a = 1/2, the sum branch at a = -1/2
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=0.0))
    prob = ProblemDef(a=a, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(gauss, ZERO, gauss, ZERO))
    with pytest.raises(SingularTimeError, match="degenerate"):
        seed_states(prob, grid)
    with pytest.raises(SingularTimeError, match="degenerate"):
        run(prob, GridSpec(L0=-1, L1=1, J=3, t0=0.0, n_steps=3))


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
        forcing=lambda x, y, t: (G1(x, y, t), G2(x, y, t)), data=(u0, u1, u0, u1),
    )
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy="limit")
    _, s1 = seed_states(prob, grid, opset)
    X, Y = grid.meshgrid()
    u_exact = exact(X, Y, grid.time(1))[0]
    # error budget: l^3 u_ttt / 6 plus (l^2/2) x O(h^2) from the discrete RHS
    assert np.abs(s1.U.values - u_exact).max() < 5e-5


def _rhs(history, ops, prob, grid, n):
    """assemble_rhs for step n, with the images, sources and shift its step computes."""
    levels = tuple(BranchLevel.of(state, ops, prob, grid) for state in history)
    return assemble_rhs(levels, ops, step_shift(grid, n, prob.a))


def _zero_history(grid, n):
    Z = np.zeros((grid.size, grid.size))
    return (
        CoupledState(Field(Z.copy()), Field(Z.copy()), n),
        CoupledState(Field(Z.copy()), Field(Z.copy()), n - 1),
    )


def test_assemble_rhs_zero_history():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    opset = build_operator_set(grid, 0.25, 0.25)
    ops = assemble_step_operators(opset, grid)
    C = _rhs(_zero_history(grid, 1), ops, prob, grid, 1)
    assert C.shape == (2, grid.size, grid.size)
    assert np.all(C == 0.0)


def test_assemble_rhs_rejects_history_levels_that_are_not_consecutive():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    ops = assemble_step_operators(build_operator_set(grid, 0.25, 0.25), grid)
    newer, _ = _zero_history(grid, 3)
    _, older = _zero_history(grid, 2)  # levels 3 and 1
    with pytest.raises(InvalidSpecError, match=r"history levels \(3, 1\) are not consecutive"):
        _rhs((newer, older), ops, prob, grid, 3)


def test_assemble_rhs_alpha_half_kills_gradient_history(rng):
    grid = build_grid(
        GridSpec(L0=1, L1=8, J=6, t0=1.0, alpha=0.5, step_rule="independent", l=0.3)
    )
    prob = ProblemDef(a=0.0, lam=0.5, gamma=0.5, p=2.0, q=2.0, data=(ZERO,) * 4, nonlinear=False)
    opset = build_operator_set(grid, 0.5, 0.5)
    ops = assemble_step_operators(opset, grid)
    # the weights read the grid's alpha
    assert ops.implicit_weight == 0.5 * grid.sigma and ops.explicit_weight == 0.0
    n = grid.size
    # only V^n nonzero: C1 reduces to the (1 - 2 alpha) gradient-history term
    Vn = rng.standard_normal((n, n))
    hist = (
        CoupledState(Field(np.zeros((n, n))), Field(Vn), 1),
        CoupledState(Field(np.zeros((n, n))), Field(np.zeros((n, n))), 0),
    )
    C_sum, C_diff = _rhs(hist, ops, prob, grid, 1)
    assert np.allclose(0.5 * (C_sum + C_diff), 0.0, atol=1e-14)


def test_assemble_rhs_constant_fields_reduce_to_time_terms():
    # A annihilates constants, lam = gamma = a = 0, alpha = 0:
    # C1 = 2 U^n - U^{n-1} entrywise
    grid = build_grid(
        GridSpec(L0=0, L1=2, J=1, t0=1.0, alpha=0.0, step_rule="independent", l=0.5)
    )
    prob = ProblemDef(a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO,) * 4, nonlinear=False)
    opset = build_operator_set(grid, 0.0, 0.0)
    ops = assemble_step_operators(opset, grid)
    n = grid.size
    Un = np.full((n, n), 3.0)
    Um = np.full((n, n), 2.0)
    hist = (
        CoupledState(Field(Un), Field(Un.copy()), 1),
        CoupledState(Field(Um), Field(Um.copy()), 0),
    )
    C_sum, C_diff = _rhs(hist, ops, prob, grid, 1)
    assert np.allclose(0.5 * (C_sum + C_diff), 2 * Un - Um, atol=1e-13)
    assert np.allclose(0.5 * (C_sum - C_diff), 2 * Un - Um, atol=1e-13)


def test_step_zero_state_stays_zero():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    opset = build_operator_set(grid, 0.25, 0.25)
    ops = assemble_step_operators(opset, grid)
    plan = plan_solves(ops, grid, prob.a, fold=False)
    # the step's index is the level of its newer history level: history
    # (n, n-1) gives step n, its shift row n - 1 and the new level n + 1
    for n in (1, 2):
        history = _zero_history(grid, n)
        levels = tuple(BranchLevel.of(state, ops, prob, grid) for state in history)
        level, report = step(levels, ops, prob, grid, plan)
        state = level.state
        assert np.all(state.U.values == 0.0) and np.all(state.V.values == 0.0)
        assert np.all(level.Z == 0.0) and np.all(level.KZ == 0.0)
        # step 2 is the plan's last, so its level 3 carries no source
        assert np.all(level.source == 0.0) if n == 1 else level.source is None
        assert report.residual_coupled == 0.0
        assert state.level == n + 1
        assert report.n == n
        assert report.c == plan.shifts[n - 1] == step_shift(grid, n, prob.a)


def test_step_outside_the_plan_is_named():
    # the plan of n_steps = 3 holds steps 1 and 2: history (3, 2) has no
    # row, and history (0, -1) would wrap to the last one
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, data=(ZERO,) * 4)
    ops = assemble_step_operators(build_operator_set(grid, 0.25, 0.25), grid)
    plan = plan_solves(ops, grid, prob.a, fold=False)
    for n in (3, 0):
        history = _zero_history(grid, n)
        levels = tuple(BranchLevel.of(state, ops, prob, grid) for state in history)
        with pytest.raises(InvalidSpecError, match=rf"step {n} is outside the plan's steps 1\.\.2"):
            step(levels, ops, prob, grid, plan)


def test_single_step_reference_error(ref_config, ref_grid24, ref_problem):
    # regression: one step of the reference problem at J=24 (RMS scale)
    prob, exact = ref_problem
    traj, reports = run(prob, ref_grid24.spec, sing_policy="limit")
    rep = discrete_errors(traj, exact, ref_grid24)
    assert rep.er < 0.1
    assert rep.er == pytest.approx(6.0935e-3, rel=1e-3)


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_step_margins_match_solvability_margin(ref_config, ref_grid24, ref_problem, solver):
    # both solvers read each margin off the plan's Schur spectra; J = 49 has
    # an axis node, so its margins (down to 2.9e-4) take the limit stencil
    prob, _ = ref_problem
    grid49 = build_grid(grid_spec_for(ref_config, 49))
    assert grid49.singular.size == 1
    for grid, min_reports in ((ref_grid24, 1), (grid49, 2)):
        _, reports = run(prob, grid.spec, solver=solver, sing_policy="limit")
        opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy="limit")
        assert len(reports) >= min_reports
        for report in reports:
            W, R, S = uv_coefficients(opset, grid, step_shift(grid, report.n, prob.a))
            expected = solvability_margin(W, R, S, W.T)
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
    prob = ProblemDef(a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3, data=(ZERO,) * 4)
    traj, reports = run(prob, spec)
    assert len(traj) == 7
    assert max(s.sup_norm() for s in traj) == 0.0


def test_run_requires_two_steps():
    spec = GridSpec(L0=-1, L1=1, J=3, n_steps=1)
    prob = ProblemDef(a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO,) * 4)
    with pytest.raises(InvalidSpecError):
        run(prob, spec)


def reference_j9(seed_mode="exact"):
    """The reference problem at J = 9 from t0 = 1 with l = 0.05, levels 0 to 3."""
    prob, _ = manufactured_problem(RunConfig(J=9, t0=1.0, T=2.0, seed_mode=seed_mode))
    spec = GridSpec(L0=-10, L1=10, J=9, t0=1.0, n_steps=3, step_rule="independent", l=0.05)
    return prob, spec


def march_by_hand(prob, spec, solver="sylvester"):
    """`prepare`, `init_levels`, then `step` per level: run's loop, with no check of its own."""
    grid, ops, plan = prepare(prob, spec, solver)
    level0, level1 = init_levels(prob, grid, ops)
    states, reports = [level0.state, level1.state], []
    levels = (level1, level0)
    for _ in range(1, grid.n_steps):
        level, report = step(levels, ops, prob, grid, plan, solver=solver)
        states.append(level.state)
        reports.append(report)
        levels = (level, levels[0])
    return states, reports


def test_run_blowup_detection(monkeypatch):
    # explicit scheme (alpha = 0) with a violently large time step blows up;
    # step reads the cap at call time, so a hand loop and march raise what run raises
    monkeypatch.setattr(epdsys.stepper, "BLOWUP_CAP", 1e6)
    spec = GridSpec(L0=-1, L1=1, J=9, t0=1.0, n_steps=60, alpha=0.0,
                    step_rule="independent", l=1.0)
    prob = ProblemDef(
        a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
        data=(gauss, ZERO, gauss, ZERO), nonlinear=False,
    )
    with pytest.raises(BlowUpError) as err:
        run(prob, spec)
    assert err.value.step is not None
    assert "> 1.0e+06" in str(err.value)
    for draw in (march_by_hand, lambda prob, spec: list(march(prob, spec))):
        with pytest.raises(BlowUpError) as by_hand:
            draw(prob, spec)
        assert by_hand.value.step == err.value.step == 4
        assert by_hand.value.sup_norm == err.value.sup_norm
        assert str(by_hand.value) == str(err.value)


@pytest.mark.parametrize(
    "fault, error, message",
    [
        ("cap", BlowUpError, r"blow-up at step 2: \|\|\(U,V\)\|\| = 7\.810e-01 > 1\.0e-03"),
        ("solve", InvalidSpecError, r"field at level 2 contains NaN/Inf"),
    ],
    ids=["cap", "solve"],
)
def test_step_checks_the_level_it_forms(monkeypatch, fault, error, message):
    # step 1 forms level 2 and checks it: a level that is not finite is named,
    # not taken for a blow-up, and run and march raise the same error through step
    prob, spec = reference_j9()
    grid, ops, plan = prepare(prob, spec)
    level0, level1 = init_levels(prob, grid, ops)
    if fault == "cap":
        monkeypatch.setattr(epdsys.stepper, "BLOWUP_CAP", 1e-3)
    else:
        monkeypatch.setattr(epdsys.stepper, "_solve", lambda plan, C, k: np.full_like(C, np.nan))
    with pytest.raises(error, match=message) as by_step:
        step((level1, level0), ops, prob, grid, plan)
    with pytest.raises(error, match=message) as by_run:
        run(prob, spec)
    with pytest.raises(error, match=message) as by_march:
        list(march(prob, spec))
    assert str(by_step.value) == str(by_run.value) == str(by_march.value)
    if fault == "cap":
        assert by_step.value.step == by_run.value.step == by_march.value.step == 2


def test_step_names_a_right_hand_side_that_is_not_finite():
    # both sources are finite, so the infinite history level itself is named
    prob, spec = reference_j9()
    grid, ops, plan = prepare(prob, spec)
    level0, level1 = init_levels(prob, grid, ops)
    level0 = dataclasses.replace(level0, Z=np.full_like(level0.Z, np.inf))
    with pytest.raises(InvalidSpecError, match=r"the right-hand side of step 1 is not finite"):
        step((level1, level0), ops, prob, grid, plan)


@pytest.mark.parametrize("history", [0, 1])
def test_step_names_a_history_level_without_source(monkeypatch, history):
    # a run's last level keeps source None; read as history it is named
    # before any solve, not met as a bare TypeError in the sum of sources
    prob, spec = reference_j9()
    grid, ops, plan = prepare(prob, spec)
    levels = list(init_levels(prob, grid, ops))[::-1]
    levels[history] = dataclasses.replace(levels[history], source=None)
    solves = _counting(monkeypatch, epdsys.stepper, "_solve")
    with pytest.raises(InvalidSpecError, match=rf"history level {1 - history} has no source"):
        step(tuple(levels), ops, prob, grid, plan)
    assert solves == []


def test_plan_refuses_a_shift_that_is_not_finite():
    # a NaN margin is neither above nor below its floor: it fails, naming step 1
    prob, spec = reference_j9()
    grid, ops, _ = prepare(prob, spec)
    with pytest.raises(SolvabilityError, match=r"^step 1: sum branch failed: .* = nan$"):
        plan_solves(ops, grid, math.nan, fold=False)


def test_init_levels_checks_the_taylor_level_1_it_computes():
    # u1 = v1 = 1e308 are finite samples, but the sum branch's velocity
    # u1 + v1 overflows, so the level 1 that init_levels computes is not finite
    prob, spec = reference_j9("taylor")
    u0, _, v0, _ = prob.data
    big = lambda x, y: np.full_like(x, 1e308)
    prob = dataclasses.replace(prob, data=(u0, big, v0, big))
    grid, ops, _ = prepare(prob, spec)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        InvalidSpecError, match=r"field at level 1 contains NaN/Inf"
    ):
        init_levels(prob, grid, ops)


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_run_is_init_levels_then_step(solver):
    # every level and every report field but the four times is bitwise equal,
    # by hand, from run and from march, whose two seed levels carry no report
    prob, _ = manufactured_problem(RunConfig(J=24))
    spec = GridSpec(L0=-10, L1=10, J=24, t0=1.0, n_steps=8, step_rule="independent", l=0.05)
    states, reports = march_by_hand(prob, spec, solver)
    trajectory, expected = run(prob, spec, solver=solver)
    marched = list(march(prob, spec, solver=solver))
    assert [report for _, report in marched[:2]] == [None, None]
    for levels in (trajectory, [state for state, _ in marched]):
        assert [s.level for s in states] == [s.level for s in levels] == list(range(9))
        for ours, theirs in zip(states, levels):
            assert np.array_equal(ours.U.values, theirs.U.values)
            assert np.array_equal(ours.V.values, theirs.V.values)
    times = ("wall_time", "rhs_time", "solve_time", "residual_time", "source_time")
    untimed = lambda report: dataclasses.replace(report, **dict.fromkeys(times, 0.0))
    for theirs in (expected, [report for _, report in marched[2:]]):
        assert [untimed(r) for r in reports] == [untimed(r) for r in theirs]


def test_cfl_guard_reference_parameters(ref_grid24):
    ok, value = cfl_guard(ref_grid24, 0.25, 0.25)
    assert not ok
    assert value == pytest.approx(4.0, rel=1e-12)


def test_cfl_guard_alpha_zero(ref_grid24):
    ok, value = cfl_guard(build_grid(dataclasses.replace(ref_grid24.spec, alpha=0.0)), 0.25, 0.25)
    assert ok and value == 0.0


def test_cfl_guard_reads_the_grids_alpha(ref_grid24):
    # the value that cfl_guard gave with alpha = 0.5 passed beside this
    # grid, bit for bit, on the mirrored nodes of `build_grid`
    grid = build_grid(dataclasses.replace(ref_grid24.spec, alpha=0.5))
    assert cfl_guard(grid, 0.25, 0.25) == (False, 7.999999999999998)


def test_cfl_guard_small_sigma_passes():
    # sigma = 0.1, lam = gamma = 0, alpha = 1/4 -> 4 sigma C_alpha = 0.4
    l = math.sqrt(0.1) * 0.5
    grid = build_grid(GridSpec(L0=0, L1=5, J=9, step_rule="independent", l=l))
    assert grid.sigma == pytest.approx(0.1)
    ok, value = cfl_guard(grid, 0.0, 0.0)
    assert ok and value == pytest.approx(0.4)


def test_convergence_order_synthetic():
    hs = [0.8, 0.4, 0.2, 0.1]
    assert convergence_order([(h, h * h) for h in hs]) == pytest.approx(2.0, abs=1e-12)
    assert convergence_order([(h, h) for h in hs]) == pytest.approx(1.0, abs=1e-12)
    assert convergence_order([(0.4, 0.0), (0.2, 0.0)]) == float("inf")
    with pytest.raises(InvalidSpecError):
        convergence_order([(0.4, 0.1)])
    # a repeated h is one grid level, so no slope is fitted, not even inf
    for repeated in ([(0.4, 0.1), (0.4, 0.2)], [(0.4, 0.0), (0.4, 0.0)]):
        with pytest.raises(InvalidSpecError, match=r"two distinct h, got h = \[0.4, 0.4\]"):
            convergence_order(repeated)


def test_symmetric_problem_keeps_u_equal_v():
    # p = q with identical data and forcing: U^n = V^n along the whole run
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=5)
    exact = lambda x, y, t: (np.exp(-(0.5 * t * t + x * x + y * y)),) * 2

    def G(x, y, t):
        g1 = np.exp(-(0.5 * t * t + x * x + y * y))
        return (t * t - 4 * (x * x + y * y)) * g1 - np.exp(-1.5 * (0.5 * t * t + x * x + y * y))

    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=1.5, forcing=lambda x, y, t: (G(x, y, t),) * 2,
        exact=exact,
    )
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["a", "lam", "gamma", "p", "q"])
def test_problem_def_refuses_non_finite_coefficients(field, value):
    # NaN passes p, q > 1, and a later check would blame another input
    coefficients = dict(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, data=(ZERO,) * 4)
    with pytest.raises(InvalidSpecError, match=rf"^'{field}' must be finite, got {value}$"):
        ProblemDef(**{**coefficients, field: value})


def _mostly(valid, anything):
    """Draws of `valid` seven times in eight, else of `anything`, so that a
    draw with every field valid, which reaches the plan, is common."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda k: valid if k else anything)


# any float (NaN and +-inf included), a numpy integer, a float that is not integral
_ANY = st.floats()
_COUNT = st.one_of(
    st.integers(min_value=-1, max_value=12),
    st.integers(min_value=-1, max_value=12).map(np.int64),
    st.floats().filter(lambda v: not v.is_integer()),
)
_SPEC_FIELDS = st.fixed_dictionaries({
    "L0": _mostly(st.floats(min_value=-20.0, max_value=-0.5), _ANY),
    "L1": _mostly(st.floats(min_value=0.5, max_value=20.0), _ANY),
    "J": _mostly(st.integers(min_value=1, max_value=12), _COUNT),
    "t0": _mostly(st.floats(min_value=0.0, max_value=5.0), _ANY),
    "n_steps": _mostly(st.integers(min_value=2, max_value=6), _COUNT),
    "alpha": _mostly(st.floats(min_value=0.0, max_value=2.0), _ANY),
    "step_rule": st.sampled_from(["coupled", "independent"]),
    "l": _mostly(st.none(), _ANY) | st.floats(min_value=1e-3, max_value=1.0),
})
_REFERENCE_SPEC = dict(
    L0=-10.0, L1=10.0, J=9, t0=1.0, n_steps=3, alpha=0.25, step_rule="independent", l=0.05
)
_REFERENCE_COEFFICIENTS = dict(a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4.0 / 3.0)
_COEFFICIENTS = st.fixed_dictionaries({
    "a": _mostly(st.floats(min_value=-5.0, max_value=5.0), _ANY),
    "lam": _mostly(st.floats(min_value=-2.0, max_value=2.0), _ANY),
    "gamma": _mostly(st.floats(min_value=-2.0, max_value=2.0), _ANY),
    "p": _mostly(st.floats(min_value=1.01, max_value=4.0), _ANY),
    "q": _mostly(st.floats(min_value=1.01, max_value=4.0), _ANY),
})


@settings(max_examples=300, deadline=None)
@given(
    spec=_SPEC_FIELDS,
    coefficients=_COEFFICIENTS,
    solver=st.sampled_from(["sylvester", "kronecker"]),
    sing_policy=st.sampled_from(["zero", "limit"]),
)
@example(  # scipy's Schur raised a bare ValueError on the infinite bands
    spec={**_REFERENCE_SPEC, "alpha": math.inf}, coefficients=_REFERENCE_COEFFICIENTS,
    solver="sylvester", sing_policy="limit",
)
@example(  # the plan's step range raised a bare TypeError
    spec={**_REFERENCE_SPEC, "n_steps": 2.5}, coefficients=_REFERENCE_COEFFICIENTS,
    solver="sylvester", sing_policy="limit",
)
def test_prepare_returns_or_raises_a_named_error(spec, coefficients, solver, sing_policy):
    # no solve: the fields of a problem and a mesh go to a plan or an EpdError
    try:
        prob = ProblemDef(**coefficients, exact=lambda x, y, t: (x, y))
        with np.errstate(all="ignore"):
            grid, ops, plan = prepare(prob, GridSpec(**spec), solver, sing_policy)
    except EpdError:
        return
    assert plan.shifts.shape == (grid.n_steps - 1,)
    assert np.isfinite(grid.nodes).all()


@pytest.mark.parametrize("seeding", ["exact", "data"])
def test_run_raising_forcing_is_invalid_spec(seeding):
    # forcing is sampled like data: a raising callable names the nodes it failed on
    def broken(x, y, t):
        raise ValueError("forcing undefined")

    seed = {"exact": {"exact": lambda x, y, t: (gauss(x, y), gauss(x, y))},
            "data": {"data": (gauss, ZERO, gauss, ZERO)}}[seeding]
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, forcing=broken, **seed)
    with pytest.raises(InvalidSpecError, match="sampling failed on nodes"):
        run(prob, GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_run_rejects_an_unknown_solver_before_any_work(monkeypatch, operator_builds):
    def refuse(*args, **kwargs):
        raise AssertionError("plan_solves called for an unknown solver")

    monkeypatch.setattr(epdsys.stepper, "plan_solves", refuse)
    prob, _ = manufactured_problem(RunConfig(J=4))
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.5, n_steps=3, step_rule="independent", l=0.05)
    with pytest.raises(InvalidSpecError, match="unknown solver 'turbo'"):
        run(prob, spec, solver="turbo")
    levels = march(prob, spec, solver="bogus")  # nothing runs until a level is drawn
    with pytest.raises(InvalidSpecError, match="unknown solver 'bogus'"):
        next(levels)
    # Method I above the dense guard is refused the same way, before any operator
    large = dataclasses.replace(spec, J=99)
    levels = march(prob, large, solver="kronecker")
    with pytest.raises(SizeGuardError, match="Kronecker path refused: size 101 > guard 76"):
        next(levels)
    with pytest.raises(SizeGuardError, match="Kronecker path refused: size 101 > guard 76"):
        run(prob, large, solver="kronecker")
    assert operator_builds == []


def test_run_alone_budgets_the_trajectory_it_keeps(monkeypatch, operator_builds):
    # run keeps every level, so it refuses a trajectory above its byte budget,
    # read at call time, after the solver check and before any operator; march
    # holds two levels and runs the same spec
    prob, spec = reference_j9()
    trajectory_bytes = 16 * (spec.n_steps + 1) * (spec.J + 2) ** 2
    monkeypatch.setattr(epdsys.stepper, "MAX_TRAJECTORY_BYTES", trajectory_bytes - 1)
    with pytest.raises(InvalidSpecError, match="unknown solver 'turbo'"):
        run(prob, spec, solver="turbo")
    with pytest.raises(
        InvalidSpecError,
        match=rf"^the trajectory of 3 steps at J=9 would take {trajectory_bytes:,} bytes, "
        rf"above the budget {trajectory_bytes - 1:,}$",
    ):
        run(prob, spec)
    assert operator_builds == []
    assert [state.level for state, _ in march(prob, spec)] == [0, 1, 2, 3]
    assert len(operator_builds) == 1
    monkeypatch.setattr(epdsys.stepper, "MAX_TRAJECTORY_BYTES", trajectory_bytes)
    states, reports = run(prob, spec)
    assert [state.level for state in states] == [0, 1, 2, 3] and len(reports) == 2


def test_run_keeps_the_trajectory_in_one_array():
    # the budgeted bytes are one array, and every kept field is a view of it;
    # the levels are march's, copied
    prob, spec = reference_j9()
    states, _ = run(prob, spec)
    base = states[0].U.values.base
    assert base.nbytes == 16 * (spec.n_steps + 1) * (spec.J + 2) ** 2
    assert all(f.values.base is base for state in states for f in (state.U, state.V))
    for state, (streamed, _) in zip(states, march(prob, spec), strict=True):
        assert state.level == streamed.level
        assert np.array_equal(state.U.values, streamed.U.values)
        assert np.array_equal(state.V.values, streamed.V.values)


def test_plan_names_a_shift_that_the_mesh_makes_not_finite(monkeypatch):
    # at t0 = 0 an l that underflows makes c_1 = l a / (2 t_1) NaN for a = 2.5:
    # the step and t_1 are named before any factorization, not a branch pair
    prob, _ = manufactured_problem(RunConfig(J=3))
    spec = GridSpec(L0=-1, L1=1, J=3, t0=0, n_steps=3, step_rule="independent", l=5e-324)
    factors = _counting(monkeypatch, epdsys.stepper, "_factor")
    with pytest.raises(
        InvalidSpecError, match=r"^step 1: the shift c_1 = l a / \(2 t_1\) = nan is not finite "
        r"\(t_1 = 4\.94066e-324, "
    ):
        prepare(prob, spec)
    assert factors == []


def _factors_once(monkeypatch, J, n_steps, folded):
    # one symmetric eigendecomposition per side and branch per run, not per
    # step; at lam = gamma each branch pair is (L, L^T), whose symmetrized
    # sides are bitwise equal, so one eigh serves both and QR is QL.  A run
    # of QUADRANT_MIN_WORK (16 steps at J = 49; 12 at J = 9 is far below)
    # makes as many again for its mirror quadrant, whose folded sides share
    # one eigh too.  The symmetrizable pairs need no Schur form or trsyl
    spec = GridSpec(L0=-10, L1=10, J=J, t0=0.5, n_steps=n_steps, step_rule="independent", l=0.05)
    eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
    schur_calls = _counting(monkeypatch, scipy.linalg, "schur")
    trsyl_calls = _counting(monkeypatch, scipy.linalg.lapack, "dtrsyl")
    for lam, gamma, eighs in [(0.25, 0.25, 2), (0.25, 0.3, 4)]:
        eigh_calls.clear()
        prob, _ = manufactured_problem(RunConfig(J=J, lam=lam, gamma=gamma))
        _, reports = run(prob, spec, sing_policy="limit")
        assert len(reports) == n_steps - 1
        assert len(eigh_calls) == eighs * (1 + folded)
        assert schur_calls == []
        assert trsyl_calls == []
        assert max(r.residual_coupled for r in reports) <= 1e-13
        _, _, plan = prepare(prob, spec, sing_policy="limit")
        assert plan.kernels == ("diagonal", "diagonal")
        assert (plan.QR is plan.QL) == (lam == gamma)
        assert (plan.quadrant is not None) == folded
        if folded:
            assert (plan.quadrant.QR is plan.quadrant.QL) == (lam == gamma)


def test_run_factors_once_per_run(monkeypatch):
    _factors_once(monkeypatch, J=9, n_steps=12, folded=False)


def test_long_run_factors_its_mirror_quadrant_once(monkeypatch):
    _factors_once(monkeypatch, J=49, n_steps=16, folded=True)


def test_forcing_sampled_once_per_level(monkeypatch):
    # level n's source is reused as the previous level of step n+1
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.5, n_steps=8, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=4))
    forcing_times = []

    def counted_forcing(x, y, t, forcing=prob.forcing):
        forcing_times.append(t)
        return forcing(x, y, t)

    prob = dataclasses.replace(prob, forcing=counted_forcing)
    power_calls = _counting(monkeypatch, epdsys.stepper, "_power")
    run(prob, spec, sing_policy="limit")
    grid = build_grid(spec)
    assert forcing_times == [grid.time(k) for k in range(8)]  # levels 0..7, once each
    assert len(power_calls) == 2 * 8  # |U|^(p-1) V and |V|^(q-1) U at levels 0..7


def test_taylor_seeding_samples_level_0_once(monkeypatch):
    # the level-0 terms of u_tt are the level-0 source of step 1
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.5, n_steps=8, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=4, seed_mode="taylor"))
    forcing_times = []

    def counted_forcing(x, y, t, forcing=prob.forcing):
        forcing_times.append(t)
        return forcing(x, y, t)

    power_calls = _counting(monkeypatch, epdsys.stepper, "_power")
    run(dataclasses.replace(prob, forcing=counted_forcing), spec)
    grid = build_grid(spec)
    assert forcing_times == [grid.time(k) for k in range(8)]
    assert len(power_calls) == 2 * 8


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_preflight_names_the_failing_step_before_any_solve(monkeypatch, solver):
    # choose a so that 2 c_k equals the largest real eigenvalue sum of the
    # shift-free difference pair (W + k Theta, W^T + k Lambda) at step k = 3
    k_step = 3
    config = RunConfig(J=9)
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=6, alpha=config.alpha)
    grid = build_grid(spec)
    opset = build_operator_set(grid, config.lam, config.gamma, sing_policy="limit")
    W, R, S = uv_coefficients(opset, grid, 0.0)
    lams = np.linalg.eigvals(W - R)
    mus = np.linalg.eigvals(W.T - S)
    sums = (lams[:, None] + mus[None, :]).ravel()
    target = sums[sums.imag == 0.0].real.max()
    a = target * grid.time(k_step) / grid.l
    prob, _ = manufactured_problem(RunConfig(J=9, a=a))

    trsyl_calls = _counting(monkeypatch, scipy.linalg.lapack, "dtrsyl")
    dense_calls = _counting(monkeypatch, scipy.linalg.lapack, "dgesv")
    with pytest.raises(SolvabilityError) as err:
        run(prob, spec, solver=solver, sing_policy="limit")
    assert err.value.step == k_step
    assert err.value.branch == "diff"
    lam, mu = err.value.pair
    assert abs(lam + mu) <= 1e-12 * abs(target)
    assert f"step {k_step}" in str(err.value)
    assert trsyl_calls == []
    assert dense_calls == []


@pytest.mark.parametrize("a", [1, 2, 3])
def test_integer_damping_from_rest_is_singular_at_step_a(monkeypatch, a):
    # at t0 = 0, c_n = a / (2n); the constant mode is an eigenvector of both
    # difference-pair coefficients with eigenvalue 1/2, so that pair's
    # denominator 1 - a/n vanishes at n = a and the preflight must catch it.
    # A small l keeps every other eigenvalue sum near 1, away from a/n, n < a.
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.0, n_steps=6, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=9, a=float(a)))
    eigh_calls = _counting(monkeypatch, np.linalg, "eigh")
    solve_calls = _counting(monkeypatch, epdsys.stepper, "_solve")
    with pytest.raises(SolvabilityError) as err:
        run(prob, spec, sing_policy="limit")
    assert err.value.step == a
    assert err.value.branch == "diff"
    lam, mu = err.value.pair
    assert abs(lam + mu) <= 1e-12
    assert len(eigh_calls) == 2  # lam = gamma: one eigh per branch
    assert solve_calls == []
    # the counter sees the step's solves: a + 1/2 passes the preflight
    prob_ok, _ = manufactured_problem(RunConfig(J=9, a=a + 0.5))
    _, reports = run(prob_ok, spec, sing_policy="limit")
    assert len(solve_calls) == len(reports) == 5


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_p_equal_q_keeps_u_equal_v(solver):
    # with p = q and u = v data the difference branch starts from zero and
    # has zero source (F_u = F_v), so Z- stays exactly 0 and U == V at every
    # level on the Sylvester path; a leak between the slices of the branch
    # stack (solve, image or source) breaks this.  Method I eliminates X and
    # Y separately (dgesv), so there U and V agree to rounding only.
    spec = GridSpec(L0=-10, L1=10, J=24, t0=1.0, n_steps=21, step_rule="independent", l=0.01)
    prob, _ = manufactured_problem(RunConfig(J=24, p=1.5, q=1.5))
    trajectory, reports = run(prob, spec, solver=solver, sing_policy="limit")
    assert len(reports) == 20
    for state in trajectory:
        U, V = state.U.values, state.V.values
        if solver == "sylvester":
            assert np.array_equal(U, V)
        else:
            assert np.abs(U - V).max() <= 1e-12 * np.abs(U).max()


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_run_assembles_step_operators_once(monkeypatch, solver):
    # the step operators do not depend on n: one assembly serves every step
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.5, n_steps=6, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=4))
    assembly_calls = _counting(monkeypatch, epdsys.stepper, "assemble_step_operators")
    _, reports = run(prob, spec, solver=solver, sing_policy="limit")
    assert len(reports) == 5
    assert len(assembly_calls) == 1


def test_step_reports_phase_times():
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=6, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=9))
    _, reports = run(prob, spec, sing_policy="limit")
    for r in reports:
        assert min(r.rhs_time, r.solve_time, r.residual_time, r.source_time) >= 0.0
        assert r.rhs_time + r.solve_time + r.residual_time + r.source_time <= r.wall_time


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_reports_carry_the_shift_and_both_margins(solver):
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=6, step_rule="independent", l=0.05)
    grid = build_grid(spec)
    prob, _ = manufactured_problem(RunConfig(J=9))
    _, reports = run(prob, spec, solver=solver, sing_policy="limit")
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy="limit")
    plan = plan_solves(assemble_step_operators(opset, grid), grid, prob.a, fold=False)
    assert 0.0 < plan.factor_time
    # row n - 1 of the plan's arrays is step n
    assert [r.n for r in reports] == [1, 2, 3, 4, 5]
    assert plan.margins.shape == (5, 2) and plan.attaining.shape == (5, 2, 2)
    assert plan.shifts.shape == (5,)
    for r in reports:
        assert r.c == plan.shifts[r.n - 1] == step_shift(grid, r.n, prob.a)
        assert r.margins == tuple(plan.margins[r.n - 1])
        assert r.margin == min(r.margins)
        # the plan keeps the shifted eigenvalue pair that attains each margin:
        # its indices give a denominator of the solve equal to the margin
        assert plan.kernels == ("diagonal", "diagonal")
        for pair, sums, sign, margin, (lam, mu) in zip(
            plan.pairs, plan.sums, plan.signs.ravel(), r.margins, plan.attaining[r.n - 1]
        ):
            s = sign * r.c
            i = np.flatnonzero(pair.lams + s == lam.real)
            j = np.flatnonzero(pair.mus + s == mu.real)
            assert margin in np.abs(sums[np.ix_(i, j)] + 2 * s)


def test_min_margin_ties_go_to_the_earliest_step_then_diff():
    # the smallest margin 0.5 is reached at steps 2 and 4, on both branches
    # at step 2: the earliest step wins, then "diff" before "sum"
    margins = np.array([[1.0, 2.0], [0.5, 0.5], [3.0, 1.0], [0.5, 0.5]])
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=0.5, n_steps=5))
    ops = assemble_step_operators(build_operator_set(grid, 0.25, 0.25), grid)
    plan = dataclasses.replace(plan_solves(ops, grid, 1.0, fold=False), margins=margins)
    assert isinstance(plan, epdsys.stepper.SolvePlan)
    # the returned pair is the plan's attaining pair at that step and branch
    for margins, expected in (
        (margins, (0.5, 2, "diff")),
        (np.array([[1.0, 0.7], [0.7, 2.0]]), (0.7, 1, "diff")),
        (np.array([[0.7, 0.9], [0.7, 0.7]]), (0.7, 1, "sum")),
    ):
        plan = dataclasses.replace(plan, margins=margins)
        *found, pair = plan.min_margin()
        assert tuple(found) == expected
        step_n, column = expected[1], tuple(BRANCH_SIGNS).index(expected[2])
        assert np.array_equal(pair, plan.attaining[step_n - 1, column])


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_step_makes_four_tridiagonal_products(monkeypatch, solver):
    # a step forms one image, of the level it solves: K Z + Z K' over the
    # two-slice branch stack, a left and a right product per call; its
    # right-hand side and residual reuse images.  run forms the two seed
    # levels' images once (Taylor seeding reads u_tt's spatial terms off
    # level 0's image), and nothing else applies a banded operator.
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=12, step_rule="independent", l=0.05)
    phase = [None]
    products = Counter()  # (phase, stack depth of the operator) -> calls

    def counted_image(self, Z, original=StepOperators.image):
        products[phase[0], Z.shape[0]] += 2  # K Z and Z K'
        return original(self, Z)

    monkeypatch.setattr(StepOperators, "image", counted_image)
    for name in ("__matmul__", "__rmatmul__"):
        def counted(self, X, original=getattr(TriDiagMatrix, name)):
            products[phase[0], "TriDiagMatrix"] += 1
            return original(self, X)

        monkeypatch.setattr(TriDiagMatrix, name, counted)

    def scoped(*args, original=epdsys.stepper.step, **kwargs):
        phase[0] = "step"
        try:
            return original(*args, **kwargs)
        finally:
            phase[0] = None

    monkeypatch.setattr(epdsys.stepper, "step", scoped)
    for seed_mode in ("exact", "taylor"):
        products.clear()
        prob, _ = manufactured_problem(RunConfig(J=9, t0=0.5, seed_mode=seed_mode))
        _, reports = run(prob, spec, solver=solver, sing_policy="limit")
        steps = len(reports)
        assert steps == 11
        assert products == {("step", 2): 2 * steps, (None, 2): 2 * 2}, seed_mode


@pytest.mark.parametrize("solver, problems_per_step", [("sylvester", 0), ("kronecker", 1)])
def test_only_the_kronecker_path_builds_coupled_problems(monkeypatch, solver, problems_per_step):
    # the Sylvester path runs in branch variables from the plan; Method I
    # assembles its dense U/V system from a CoupledProblem every step
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=8, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=9))
    built = _counting(monkeypatch, CoupledProblem, "__post_init__")
    _, reports = run(prob, spec, solver=solver, sing_policy="limit")
    assert len(reports) == 7
    assert len(built) == problems_per_step * len(reports)


def test_flipped_branch_signs_fail_the_kronecker_residual(monkeypatch):
    # Method I solves the U/V system with R = c_n I - k Theta; its residual
    # is read in branch form with the shifts of BRANCH_SIGNS, so a wrong
    # sign table shows there
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=6, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=9))
    _, reports = run(prob, spec, solver="kronecker", sing_policy="limit")
    assert max(r.residual_coupled for r in reports) <= 1e-13
    monkeypatch.setitem(epdsys.sylvester.BRANCH_SIGNS, "sum", -1.0)
    monkeypatch.setitem(epdsys.sylvester.BRANCH_SIGNS, "diff", 1.0)
    _, reports = run(prob, spec, solver="kronecker", sing_policy="limit")
    assert max(r.residual_coupled for r in reports) > 1e-6


def test_non_finite_forcing_names_its_level_before_the_solve(monkeypatch):
    # step k-1 samples the forcing of level k, the level it forms, so steps
    # 1 .. k-1 are solved and level k is never yielded
    k = 4
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=8, step_rule="independent", l=0.05)
    t_k = build_grid(spec).time(k)
    prob, _ = manufactured_problem(RunConfig(J=9))

    def G1_nan_at_k(x, y, t, forcing=prob.forcing):
        G1, G2 = forcing(x, y, t)
        return G1 + (np.nan if abs(t - t_k) < 1e-9 else 0.0), G2

    prob = dataclasses.replace(prob, forcing=G1_nan_at_k)
    solve_calls = _counting(monkeypatch, epdsys.stepper, "_solve")
    with pytest.raises(InvalidSpecError, match=rf"forcing at level {k} \(t_{k} = 0\.7\)"):
        run(prob, spec, sing_policy="limit")
    assert len(solve_calls) == k - 1
    yielded = []
    with pytest.raises(InvalidSpecError, match=rf"forcing at level {k} \(t_{k} = 0\.7\)"):
        for state, _ in march(prob, spec, sing_policy="limit"):
            yielded.append(state.level)
    assert yielded == list(range(k))


@pytest.mark.parametrize(
    "seed_mode, bad_level, name",
    [("exact", 0, "exact solution"), ("exact", 1, "exact solution"), ("taylor", 0, "initial data")],
    ids=["0", "1", "taylor-u0"],
)
def test_non_finite_seed_level_is_named_before_any_solve(monkeypatch, seed_mode, bad_level, name):
    spec = GridSpec(L0=-10, L1=10, J=9, t0=0.5, n_steps=4, step_rule="independent", l=0.05)
    t_bad = build_grid(spec).time(bad_level)
    prob, exact = manufactured_problem(RunConfig(J=9, t0=0.5, seed_mode=seed_mode))

    def exact_nan(x, y, t):
        u, v = exact(x, y, t)
        return u, v + (np.nan if t == t_bad else 0.0)

    if seed_mode == "exact":
        prob = dataclasses.replace(prob, exact=exact_nan)
    else:
        u0, u1, v0, v1 = prob.data
        prob = dataclasses.replace(prob, data=(lambda x, y: u0(x, y) + np.nan, u1, v0, v1))
    solve_calls = _counting(monkeypatch, epdsys.stepper, "_solve")
    with pytest.raises(
        InvalidSpecError, match=rf"{name} at level {bad_level} \(t_{bad_level} = .*\) contains NaN"
    ):
        run(prob, spec, sing_policy="limit")
    assert solve_calls == []


@pytest.mark.parametrize("seed_mode", ["exact", "taylor"])
def test_run_seeds_through_init_levels_once(monkeypatch, seed_mode):
    # init_levels is the one seeding entry point: run calls it, once
    spec = GridSpec(L0=-10, L1=10, J=4, t0=0.5, n_steps=5, step_rule="independent", l=0.05)
    prob, _ = manufactured_problem(RunConfig(J=4, t0=0.5, seed_mode=seed_mode))
    seed_calls = _counting(monkeypatch, epdsys.stepper, "init_levels")
    trajectory, _ = run(prob, spec, sing_policy="limit")
    assert len(seed_calls) == 1
    assert len(trajectory) == 6


@pytest.mark.parametrize("seed_mode", ["exact", "taylor"])
def test_init_levels_carry_their_sources(seed_mode):
    # each seed level carries the source that level_source forms from its
    # state, bit for bit: Taylor seeding scales the level-0 terms it sampled
    prob, spec = reference_j9(seed_mode)
    grid, ops, _ = prepare(prob, spec)
    levels = init_levels(prob, grid, ops)
    assert [level.state.level for level in levels] == [0, 1]
    for level in levels:
        assert np.array_equal(level.source, level_source(prob, grid, level.state))


@pytest.mark.parametrize("solver", ["sylvester", "kronecker"])
def test_only_the_last_level_of_a_march_has_no_source(monkeypatch, solver):
    # step n forms the source of level n+1 only when the plan has a step n+1,
    # so level_source runs once for each of levels 0 .. N-1 and never for N
    prob, spec = reference_j9()
    grid = build_grid(spec)
    formed = []

    def recording(*args, original=epdsys.stepper.step, **kwargs):
        level, report = original(*args, **kwargs)
        formed.append(level)
        return level, report

    monkeypatch.setattr(epdsys.stepper, "step", recording)
    source_calls = _counting(monkeypatch, epdsys.stepper, "level_source")
    states = [state for state, _ in march(prob, spec, solver=solver)]
    assert all(level.state is state for level, state in zip(formed, states[2:], strict=True))
    assert [level.state.level for level in formed] == [2, 3]
    assert formed[-1].source is None
    for level in formed[:-1]:
        assert np.array_equal(level.source, level_source(prob, grid, level.state))
    assert len(source_calls) == spec.n_steps


def test_constant_exact_solution_is_broadcast_to_the_grid():
    # a pair of constants seeds like any other exact solution, as discrete_errors reads it
    spec = GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3)
    grid = build_grid(spec)
    prob = ProblemDef(a=0.0, lam=0.0, gamma=0.0, p=2.0, q=2.0, exact=lambda x, y, t: (1.0, 1.0),
                      nonlinear=False)
    s0, s1 = seed_states(prob, grid)
    for state in (s0, s1):
        assert state.U.values.shape == state.V.values.shape == (grid.size, grid.size)
        assert np.all(state.U.values == 1.0) and np.all(state.V.values == 1.0)
    trajectory, _ = run(prob, spec)
    assert discrete_errors(trajectory, prob.exact, grid).er <= 1e-14


def test_non_finite_level_is_named_not_taken_for_a_blow_up(monkeypatch):
    # |U|^(p-1) V = 1e600 overflows the source of level 0: the first step
    # names it before its solve, rather than solving for a level 2 that is
    # not finite or taking it for a BlowUpError
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=3.0, q=3.0,
                      exact=lambda x, y, t: (1e200, 1e200))
    solve_calls = _counting(monkeypatch, epdsys.stepper, "_solve")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        InvalidSpecError, match=r"explicit source of level 0 \(t_0 = 1\) contains NaN/Inf"
    ):
        run(prob, GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))
    assert solve_calls == []


def test_raising_exact_solution_is_invalid_spec():
    # the exact seeding is sampled like the forcing and the data
    def broken(x, y, t):
        raise ValueError("exact solution undefined")

    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0, exact=broken)
    with pytest.raises(InvalidSpecError, match="sampling failed on nodes"):
        run(prob, GridSpec(L0=-1, L1=1, J=3, t0=1.0, n_steps=3))


def test_factored_pairs_are_the_identity_minus_the_image():
    # the plan factors (I/2 - alpha sigma K, I/2 - alpha sigma K') of the
    # bands whose image the steps use, in BRANCH_SIGNS order:
    # f.L Z + Z f.R = Z - alpha sigma K(Z)
    grid = build_grid(GridSpec(L0=-1, L1=1, J=5, t0=0.5, step_rule="independent", l=0.1))
    ops = assemble_step_operators(build_operator_set(grid, 0.3, -0.2), grid)
    plan = plan_solves(ops, grid, 1.0, fold=False)
    Z = np.random.default_rng(5).standard_normal((2, grid.size, grid.size))
    KZ = ops.image(Z)
    assert tuple(f.branch for f in plan.pairs) == tuple(BRANCH_SIGNS)
    for f, Zb, KZb in zip(plan.pairs, Z, KZ):
        expected = f.L @ Zb + Zb @ f.R
        np.testing.assert_allclose(Zb - ops.implicit_weight * KZb, expected, rtol=0, atol=1e-14)
