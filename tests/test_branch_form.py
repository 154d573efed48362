"""Property tests for the step's right-hand side, residual and seeding in branch form.

`assemble_rhs` builds the branch right-hand sides C1 +- C2 in the branch
variables U +- V from the levels' images K(Z) (`StepOperators.image`) and
sources (`level_source`), and Taylor seeding forms u_tt +- v_tt from level
0's image.  Both are checked here against the two-equation U/V forms,
written out from the scheme's coefficients with `_lyap` and `_cross`, and
`residual` of a coupled pair, which evaluates those two equations itself,
against the same form with dense coefficients.  The three operators of a
branch are checked against their dense matrices as functions of the image,
and the step's own residual, from the image of the new level in branch
form, against `residual` of the U/V problem: two independent evaluations.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.grid import CoupledState, Field, GridSpec, build_grid
from epdsys.operators import (
    BRANCH_SIGNS,
    SING_LIMIT,
    SING_ZERO,
    TriDiagMatrix,
    assemble_step_operators,
    build_operator_set,
    step_shift,
)
from epdsys.stepper import (
    BranchLevel, ProblemDef, _power, _step_residual, assemble_rhs, init_levels,
)
from epdsys.sylvester import CoupledProblem, residual

seeds = st.integers(min_value=0, max_value=2**32 - 1)
unit = st.floats(min_value=0.0, max_value=1.0)
coefs = st.floats(min_value=-1.0, max_value=1.0)


def _lyap(M: TriDiagMatrix, X: np.ndarray) -> np.ndarray:
    """M X + X M^T: M differences along both axes."""
    return M @ X + X @ M.T


def _cross(R: TriDiagMatrix, S: TriDiagMatrix, X: np.ndarray) -> np.ndarray:
    """R X + X S: R along x, S along y."""
    return R @ X + X @ S


def reference_rhs_terms(hist, opset, grid, alpha, prob, n, forcing):
    """The terms of C1 and C2 in U/V form, each equation on its own."""
    (Un, Vn), (Um, Vm) = hist
    sigma, h, l2 = grid.sigma, grid.h, grid.l * grid.l
    I = TriDiagMatrix.identity(grid.size)
    Wa = 0.5 * I - (alpha * sigma) * opset.A
    Wh = 0.5 * I - ((alpha - 0.5) * sigma) * opset.A
    k, b = alpha * sigma * h, (1.0 - 2.0 * alpha) * sigma * h
    two_c = 2.0 * step_shift(grid, n, prob.a)

    def terms(own_n, own_m, other_n, other_m, expo, G):
        out = [
            2.0 * _lyap(Wh, own_n),
            -_lyap(Wa, own_m),
            b * _cross(opset.Theta, opset.Lambda, other_n),
            two_c * other_m,
            _cross(k * opset.Theta, k * opset.Lambda, other_m),
        ]
        if G:
            out.append(0.5 * l2 * (G[n] + G[n - 1]))
        if prob.nonlinear:
            out.append(0.5 * l2 * (_power(own_n, other_n, expo) + _power(own_m, other_m, expo)))
        return out

    G1, G2 = ({level: pair[i] for level, pair in forcing.items()} for i in (0, 1))
    return terms(Un, Um, Vn, Vm, prob.p, G1), terms(Vn, Vm, Un, Um, prob.q, G2)


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds, J=st.integers(min_value=1, max_value=9), alpha=unit, lam=coefs, gamma=coefs,
    a=st.floats(min_value=-3.0, max_value=3.0), t0=st.floats(min_value=0.1, max_value=2.0),
    n=st.integers(min_value=1, max_value=4), sing_policy=st.sampled_from([SING_ZERO, SING_LIMIT]),
    nonlinear=st.booleans(), forced=st.booleans(),
)
def test_assemble_rhs_equals_the_uv_form(
    seed, J, alpha, lam, gamma, a, t0, n, sing_policy, nonlinear, forced
):
    rng = np.random.default_rng(seed)
    # L0 = -1 puts a node on the axis for odd J, so both policies matter there
    grid = build_grid(GridSpec(
        L0=-1.0, L1=1.0, J=J, t0=t0, alpha=alpha, step_rule="independent",
        l=0.1 * rng.uniform(0.1, 1),
    ))
    size = (grid.size, grid.size)
    forcing = {
        level: (rng.standard_normal(size), rng.standard_normal(size))
        for level in ((n - 1, n) if forced else ())
    }
    level_at = {grid.time(level): level for level in forcing}
    prob = ProblemDef(
        a=a, lam=lam, gamma=gamma, p=1.0 + rng.uniform(0.1, 2.0), q=1.0 + rng.uniform(0.1, 2.0),
        data=(None,) * 4, nonlinear=nonlinear,
        forcing=(lambda x, y, t: forcing[level_at[t]]) if forced else None,
    )
    opset = build_operator_set(grid, lam, gamma, sing_policy=sing_policy)
    ops = assemble_step_operators(opset, grid)
    hist = [tuple(rng.standard_normal(size) for _ in range(2)) for _ in range(2)]
    history = tuple(
        CoupledState(Field(U), Field(V), level) for (U, V), level in zip(hist, (n, n - 1))
    )

    levels = tuple(BranchLevel.of(state, ops, prob, grid) for state in history)
    C = assemble_rhs(levels, ops, step_shift(grid, n, a))

    terms1, terms2 = reference_rhs_terms(hist, opset, grid, alpha, prob, n, forcing)
    C1, C2 = sum(terms1), sum(terms2)
    scale = sum(np.linalg.norm(t) for t in terms1 + terms2)
    assert C.shape == (2, grid.size, grid.size)
    for C_branch, reference in zip(C, (C1 + C2, C1 - C2)):
        assert np.linalg.norm(C_branch - reference) <= 1e-12 * scale


def direct_residual(p, X, Y):
    """The coupled residual from the two equations, all coefficients dense."""
    W, R, S, Wr = (np.asarray(M) for M in (p.W, p.R, p.S, p.W_right))
    r1 = W @ X + X @ Wr + R @ Y + Y @ S - p.C1
    r2 = W @ Y + Y @ Wr + R @ X + X @ S - p.C2
    return np.hypot(np.linalg.norm(r1), np.linalg.norm(r2)) / np.hypot(
        np.linalg.norm(p.C1), np.linalg.norm(p.C2)
    )


@settings(max_examples=120, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=12), scale=st.floats(1e-3, 1e3))
def test_residual_equals_the_two_equation_form(seed, n, scale):
    rng = np.random.default_rng(seed)
    W, R, S, Wr = (
        TriDiagMatrix(*(scale * rng.standard_normal(m) for m in (n - 1, n, n - 1)))
        for _ in range(4)
    )
    C1, C2, X, Y = (rng.standard_normal((n, n)) for _ in range(4))
    banded = CoupledProblem(W=W, R=R, S=S, C1=C1, C2=C2, W_right=Wr)
    dense = CoupledProblem(
        W=W.dense(), R=R.dense(), S=S.dense(), C1=C1, C2=C2, W_right=Wr.dense()
    )
    expected = direct_residual(dense, X, Y)
    for p in (banded, dense):
        assert abs(residual(p, (X, Y)) - expected) <= 1e-12 * expected


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds, J=st.integers(min_value=1, max_value=9), lam=coefs, gamma=coefs,
    alpha=st.one_of(st.sampled_from([0.0, 0.5]), unit),
    sing_policy=st.sampled_from([SING_ZERO, SING_LIMIT]),
)
def test_branch_operators_are_affine_in_the_image(seed, J, lam, gamma, alpha, sing_policy):
    # the factored pair, the level-n and the level-(n-1) operators of each
    # branch, written out as dense matrices, against their image identities
    rng = np.random.default_rng(seed)
    grid = build_grid(GridSpec(
        L0=-1.0, L1=1.0, J=J, alpha=alpha, step_rule="independent", l=0.1 * rng.uniform(0.1, 1)
    ))
    opset = build_operator_set(grid, lam, gamma, sing_policy)
    ops = assemble_step_operators(opset, grid)
    sigma, h = grid.sigma, grid.h
    I = np.eye(grid.size)
    A, Theta, Lam = (M.dense() for M in (opset.A, opset.Theta, opset.Lambda))
    W = 0.5 * I - alpha * sigma * A
    W_h = 0.5 * I - (alpha - 0.5) * sigma * A
    k, b = alpha * sigma * h, (1.0 - 2.0 * alpha) * sigma * h
    Z = rng.standard_normal((2, grid.size, grid.size))
    KZ = ops.image(Z)
    for Zb, KZb, s in zip(Z, KZ, BRANCH_SIGNS.values()):
        L, R = W - s * k * Theta, W.T - s * k * Lam
        pairs = {
            "factored": ((L, R), Zb - ops.implicit_weight * KZb),
            "level n": ((2 * W_h + s * b * Theta, 2 * W_h.T + s * b * Lam),
                        2 * Zb + ops.explicit_weight * KZb),
            "level n-1": ((-L, -R), -(Zb - ops.implicit_weight * KZb)),
        }
        for (left, right), image_form in pairs.values():
            dense = left @ Zb + Zb @ right
            assert np.linalg.norm(image_form - dense) <= 1e-13 * max(np.linalg.norm(dense), 1.0)


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds, J=st.integers(min_value=1, max_value=9), alpha=unit, lam=coefs, gamma=coefs,
    c=st.floats(min_value=-3.0, max_value=3.0), sing_policy=st.sampled_from([SING_ZERO, SING_LIMIT]),
)
def test_step_residual_equals_the_uv_residual(seed, J, alpha, lam, gamma, c, sing_policy):
    rng = np.random.default_rng(seed)
    grid = build_grid(GridSpec(
        L0=-1.0, L1=1.0, J=J, alpha=alpha, step_rule="independent", l=0.1 * rng.uniform(0.1, 1)
    ))
    opset = build_operator_set(grid, lam, gamma, sing_policy)
    ops = assemble_step_operators(opset, grid)
    k = alpha * grid.sigma * grid.h
    W = 0.5 * TriDiagMatrix.identity(grid.size) - (alpha * grid.sigma) * opset.A
    kTheta, kLambda = k * opset.Theta, k * opset.Lambda
    P, Q, C_sum, C_diff = (rng.standard_normal((grid.size, grid.size)) for _ in range(4))
    I_c = TriDiagMatrix.identity(grid.size, c)
    X, Y = 0.5 * (P + Q), 0.5 * (P - Q)
    uv = CoupledProblem(
        W=W, R=I_c - kTheta, S=I_c - kLambda,
        C1=0.5 * (C_sum + C_diff), C2=0.5 * (C_sum - C_diff), W_right=W.T,
    )
    expected = residual(uv, (X, Y))
    # the step checks the new level (P, Q) through its image
    Z = np.stack((P, Q))
    C = np.stack((C_sum, C_diff))
    got = _step_residual(Z, ops.image(Z), C, np.linalg.norm(C), ops, c)
    assert abs(got - expected) <= 1e-12 * expected


def reference_taylor_levels(prob, grid, opset, data, forcing):
    """Levels 0 and 1 of two-term Taylor seeding in U/V form, and the norms
    of the terms of level 1, each equation on its own.

    u_tt = (A U + U A^T) / h^2 + (Theta V + V Lambda) / h + F_u - (2a/t0) v_t,
    and likewise v_tt; at t0 = 0 the one-sided limit system
    u_tt + 2a v_tt = RHS_u, v_tt + 2a u_tt = RHS_v is solved as a 2 x 2 system.
    """
    U0, Ut, V0, Vt = data
    h, l, a, t0 = grid.h, grid.l, prob.a, grid.t0
    A, Theta, Lam = opset.A, opset.Theta, opset.Lambda
    G1, G2 = forcing
    F_u = G1 + _power(U0, V0, prob.p)
    F_v = G2 + _power(V0, U0, prob.q)
    rhs_u = _lyap(A, U0) / (h * h) + _cross(Theta, Lam, V0) / h + F_u
    rhs_v = _lyap(A, V0) / (h * h) + _cross(Theta, Lam, U0) / h + F_v
    if t0 > 0.0:
        u_tt = rhs_u - (2.0 * a / t0) * Vt
        v_tt = rhs_v - (2.0 * a / t0) * Ut
    else:
        denom = 1.0 - 4.0 * a * a
        u_tt = (rhs_u - 2.0 * a * rhs_v) / denom
        v_tt = (rhs_v - 2.0 * a * rhs_u) / denom
    terms = [U0, l * Ut, 0.5 * l * l * u_tt, V0, l * Vt, 0.5 * l * l * v_tt]
    U1, V1 = sum(terms[:3]), sum(terms[3:])
    return (U0, V0, U1, V1), sum(np.linalg.norm(t) for t in terms)


@settings(max_examples=120, deadline=None)
@given(
    seed=seeds, J=st.integers(min_value=1, max_value=9), lam=coefs, gamma=coefs,
    a=st.floats(min_value=-3.0, max_value=3.0),
    t0=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.0)),
    sing_policy=st.sampled_from([SING_ZERO, SING_LIMIT]),
)
def test_taylor_seeding_equals_the_uv_form(seed, J, lam, gamma, a, t0, sing_policy):
    # branch form: Z_tt = K(Z^0) / h^2 + F -+ (2a/t0) Z_t, or divided by
    # 1 +- 2a at t0 = 0, against the two equations and the 2 x 2 limit system
    assume(t0 > 0.0 or abs(1.0 - 4.0 * a * a) > 0.1)
    rng = np.random.default_rng(seed)
    grid = build_grid(GridSpec(
        L0=-1.0, L1=1.0, J=J, t0=t0, step_rule="independent", l=0.1 * rng.uniform(0.1, 1)
    ))
    size = (grid.size, grid.size)
    data = tuple(rng.standard_normal(size) for _ in range(4))
    if t0 == 0.0:  # the EPD condition at t = 0: zero initial velocities
        data = (data[0], np.zeros(size), data[2], np.zeros(size))
    forcing = tuple(rng.standard_normal(size) for _ in range(2))
    prob = ProblemDef(
        a=a, lam=lam, gamma=gamma, p=1.0 + rng.uniform(0.1, 2.0), q=1.0 + rng.uniform(0.1, 2.0),
        data=tuple((lambda x, y, d=d: d) for d in data),
        forcing=lambda x, y, t: forcing,
    )
    opset = build_operator_set(grid, lam, gamma, sing_policy=sing_policy)
    ops = assemble_step_operators(opset, grid)
    level0, level1 = init_levels(prob, grid, ops)
    s0, s1 = level0.state, level1.state
    expected, scale = reference_taylor_levels(prob, grid, opset, data, forcing)
    assert s0.level == 0 and s1.level == 1
    for got, reference in zip((s0.U, s0.V, s1.U, s1.V), expected):
        assert np.linalg.norm(got.values - reference) <= 1e-13 * scale
