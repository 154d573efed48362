"""Time stepping for the quasi-linear coupled scheme.

Every step advances (U, V) by solving the coupled Lyapunov-Sylvester pair

    W X + X W' + R Y + Y S = C1
    W Y + Y W' + R X + X S = C2

where W = W_alpha, W' = W_alpha^T, R = R_{n,alpha}, S = S_{n,alpha} and the
right-hand sides collect the two known levels, the explicit nonlinearities
and the forcing.  All scalings come from the pointwise difference equation
(the l^2-multiplied form), so the nonlinearity and forcing enter with weight
l^2/2 per level and the gradient history with weight (1-2 alpha) sigma h.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Sequence

import numpy as np

from .exceptions import BlowUpError, InvalidSpecError, SingularTimeError
from .grid import CoupledState, Field, Grid, GridSpec, build_grid, sample
from .operators import (
    OperatorSet, StepOperators, TriDiagMatrix, assemble_step_operators, build_operator_set,
)
from .sylvester import CoupledProblem, _solve_coupled, kronecker_solve, residual, solvability_margin

SOLVER_SYLVESTER = "sylvester"
SOLVER_KRONECKER = "kronecker"

BLOWUP_CAP = 1e8


@dataclasses.dataclass(frozen=True)
class ProblemDef:
    """Continuous problem data: coefficients, nonlinearity, forcing, seeding.

    Exactly one of `exact` (a callable (X, Y, t) -> (u, v) used to sample the
    two seed levels) and `data` (the tuple (u0, u1, v0, v1) of callables
    (x, y) -> value for Taylor seeding) must be set.  `nonlinear=False` drops
    the power-law terms, giving the linear system.
    """

    a: float
    lam: float
    gamma: float
    p: float
    q: float
    alpha: float | None = None
    forcing: tuple[Callable, Callable] | None = None
    exact: Callable | None = None
    data: tuple[Callable, Callable, Callable, Callable] | None = None
    nonlinear: bool = True
    allow_singular_t0: bool = False
    taylor_terms: int = 2

    def __post_init__(self):
        if self.p <= 1 or self.q <= 1:
            raise InvalidSpecError(f"need p, q > 1, got p={self.p}, q={self.q}")
        if (self.exact is None) == (self.data is None):
            raise InvalidSpecError("exactly one seeding source (exact or data) must be set")
        if self.taylor_terms not in (1, 2):
            raise InvalidSpecError("taylor_terms must be 1 or 2")


@dataclasses.dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; sup_norm is the combined Frobenius norm."""

    n: int
    sup_norm: float
    residual_coupled: float
    margin: float
    wall_time: float
    solve_time: float


def _power(own: np.ndarray, other: np.ndarray, expo: float) -> np.ndarray:
    """Entrywise |own|^(expo-1) * other, the power-law coupling term."""
    return np.abs(own) ** (expo - 1.0) * other


def nonlinear_G(X: Field, Y: Field, p: float) -> Field:
    """Entrywise |X|^(p-1) * Y."""
    return Field(_power(X.values, Y.values, p), level=X.level)


def nonlinear_H(X: Field, Y: Field, q: float) -> Field:
    """Entrywise |Y|^(q-1) * X."""
    return Field(_power(Y.values, X.values, q), level=X.level)


def _lyap(M: TriDiagMatrix, X: np.ndarray) -> np.ndarray:
    """M X + X M^T: M differences along both axes."""
    return M @ X + X @ M.T


def _cross(R: TriDiagMatrix, S: TriDiagMatrix, X: np.ndarray) -> np.ndarray:
    """R X + X S: R along x, S along y."""
    return R @ X + X @ S


def _sample_at(f: Callable, grid: Grid, t: float) -> np.ndarray:
    """f(x, y, t) on the grid nodes at a fixed time."""
    return sample(lambda x, y: f(x, y, t), grid).values


def init_levels(prob: ProblemDef, grid: Grid, opset: OperatorSet | None = None):
    """Seed levels 0 and 1, either from an exact solution or a Taylor expansion.

    Taylor mode computes U^1 = u0 + l u1 + (l^2/2) u_tt with u_tt evaluated
    from the PDE using the discrete spatial operators.  At t0 = 0 with a != 0
    the damping coefficient is singular; with `allow_singular_t0` the pair
    (u_tt, v_tt) is recovered from the one-sided limit system
    u_tt + 2a v_tt = RHS_u, v_tt + 2a u_tt = RHS_v (valid for u1 = v1 = 0).
    """
    t0 = grid.t0
    if prob.exact is not None:
        X, Y = grid.meshgrid()
        u0, v0 = prob.exact(X, Y, t0)
        u1, v1 = prob.exact(X, Y, t0 + grid.l)
        s0 = CoupledState(Field(np.array(u0, dtype=float), 0), Field(np.array(v0, dtype=float), 0))
        s1 = CoupledState(Field(np.array(u1, dtype=float), 1), Field(np.array(v1, dtype=float), 1))
        return s0, s1

    u0f, u1f, v0f, v1f = prob.data
    U0 = sample(u0f, grid, level=0)
    V0 = sample(v0f, grid, level=0)
    Ut = sample(u1f, grid, level=0).values
    Vt = sample(v1f, grid, level=0).values
    l = grid.l

    if prob.taylor_terms == 1:
        U1 = Field(U0.values + l * Ut, level=1)
        V1 = Field(V0.values + l * Vt, level=1)
        return CoupledState(U0, V0), CoupledState(U1, V1)

    if opset is None:
        opset = build_operator_set(grid, prob.lam, prob.gamma)

    h = grid.h

    def rhs_no_damping(own, other, expo, forcing):
        out = _lyap(opset.A, own) / (h * h) + _cross(opset.Theta, opset.Lambda, other) / h
        if prob.nonlinear:
            out = out + _power(own, other, expo)
        if forcing is not None:
            out = out + _sample_at(forcing, grid, t0)
        return out

    G1 = prob.forcing[0] if prob.forcing else None
    G2 = prob.forcing[1] if prob.forcing else None
    rhs_u = rhs_no_damping(U0.values, V0.values, prob.p, G1)
    rhs_v = rhs_no_damping(V0.values, U0.values, prob.q, G2)

    if t0 > 0.0:
        gam = 2.0 * prob.a / t0
        u_tt = rhs_u - gam * Vt
        v_tt = rhs_v - gam * Ut
    elif prob.a == 0.0:
        u_tt = rhs_u
        v_tt = rhs_v
    else:
        if not prob.allow_singular_t0:
            raise SingularTimeError(
                "taylor seeding at t0 = 0 with a != 0 needs allow_singular_t0"
            )
        denom = 1.0 - 4.0 * prob.a * prob.a
        if abs(denom) < 1e-12:
            raise SingularTimeError("regularized t0 = 0 seeding degenerate at 4a^2 = 1")
        u_tt = (rhs_u - 2.0 * prob.a * rhs_v) / denom
        v_tt = (rhs_v - 2.0 * prob.a * rhs_u) / denom

    U1 = Field(U0.values + l * Ut + 0.5 * l * l * u_tt, level=1)
    V1 = Field(V0.values + l * Vt + 0.5 * l * l * v_tt, level=1)
    return CoupledState(U0, V0), CoupledState(U1, V1)


def assemble_rhs(
    history: tuple[CoupledState, CoupledState],
    ops: StepOperators,
    opset: OperatorSet,
    prob: ProblemDef,
    grid: Grid,
    n: int,
) -> tuple[Field, Field]:
    """Right-hand sides (C1, C2) of the coupled solve for level n+1."""
    state_n, state_nm1 = history
    if state_n.level != n or state_nm1.level != n - 1:
        raise InvalidSpecError(
            f"history levels ({state_n.level}, {state_nm1.level}) do not match n={n}"
        )
    Un, Vn = state_n.U.values, state_n.V.values
    Um, Vm = state_nm1.U.values, state_nm1.V.values

    Wh = ops.W_alpha_minus_half
    Wa = ops.W_alpha
    sig_h = grid.sigma * grid.h
    one_m2a = 1.0 - 2.0 * ops.alpha
    l2 = grid.l * grid.l

    C1 = 2.0 * _lyap(Wh, Un) - _lyap(Wa, Um)
    C1 += one_m2a * sig_h * _cross(opset.Theta, opset.Lambda, Vn)
    C1 += _cross(ops.R_neg, ops.S_neg, Vm)

    C2 = 2.0 * _lyap(Wh, Vn) - _lyap(Wa, Vm)
    C2 += one_m2a * sig_h * _cross(opset.Theta, opset.Lambda, Un)
    C2 += _cross(ops.R_neg, ops.S_neg, Um)

    if prob.nonlinear:
        C1 += 0.5 * l2 * (_power(Un, Vn, prob.p) + _power(Um, Vm, prob.p))
        C2 += 0.5 * l2 * (_power(Vn, Un, prob.q) + _power(Vm, Um, prob.q))

    if prob.forcing is not None:
        G1, G2 = prob.forcing
        t_n, t_m = grid.time(n), grid.time(n - 1)
        C1 += 0.5 * l2 * (_sample_at(G1, grid, t_n) + _sample_at(G1, grid, t_m))
        C2 += 0.5 * l2 * (_sample_at(G2, grid, t_n) + _sample_at(G2, grid, t_m))

    return Field(C1, level=n + 1), Field(C2, level=n + 1)


def step(
    history: tuple[CoupledState, CoupledState],
    ops: StepOperators,
    opset: OperatorSet,
    prob: ProblemDef,
    grid: Grid,
    n: int,
    solver: str = SOLVER_SYLVESTER,
) -> tuple[CoupledState, StepReport]:
    """Advance one level: assemble the RHS and solve the coupled pair.

    The banded step operators reach the solver and the residual as is; the
    Sylvester solve returns the margin, the Kronecker path computes it.
    """
    t_start = time.perf_counter()
    C1, C2 = assemble_rhs(history, ops, opset, prob, grid, n)
    problem = CoupledProblem(
        W=ops.W_alpha,
        R=ops.R_pos,
        S=ops.S_pos,
        C1=C1.values,
        C2=C2.values,
        W_right=ops.W_alpha.T,
    )
    t_solve = time.perf_counter()
    if solver == SOLVER_SYLVESTER:
        X, Y, margin = _solve_coupled(problem)
    elif solver == SOLVER_KRONECKER:
        X, Y = kronecker_solve(problem)
        try:
            margin = solvability_margin(problem.W, problem.R, problem.S, problem.W_right)
        except np.linalg.LinAlgError:  # non-fatal: diagnostics only
            margin = float("nan")
    else:
        raise InvalidSpecError(f"unknown solver {solver!r}")
    solve_time = time.perf_counter() - t_solve

    res = residual(problem, (X, Y))

    state = CoupledState(Field(X, level=n + 1), Field(Y, level=n + 1))
    report = StepReport(
        n=n,
        sup_norm=state.sup_norm(),
        residual_coupled=res,
        margin=margin,
        wall_time=time.perf_counter() - t_start,
        solve_time=solve_time,
    )
    return state, report


def run(
    prob: ProblemDef,
    spec: GridSpec | Grid,
    solver: str = SOLVER_SYLVESTER,
    blowup_cap: float = BLOWUP_CAP,
    sing_policy: str = "zero",
) -> tuple[list[CoupledState], list[StepReport]]:
    """Run the full simulation: seed two levels, then advance to n_steps.

    sing_policy selects the axis-node treatment of the gradient operators
    ('zero' drops the singular coefficient, 'limit' uses its L'Hopital
    stencil; see operators.build_operator_set).  Raises BlowUpError when the
    combined norm exceeds blowup_cap.
    """
    grid = spec if isinstance(spec, Grid) else build_grid(spec)
    if grid.n_steps < 2:
        raise InvalidSpecError("run needs n_steps >= 2")
    alpha = prob.alpha if prob.alpha is not None else grid.spec.alpha
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy=sing_policy)
    s0, s1 = init_levels(prob, grid, opset)
    trajectory = [s0, s1]
    reports: list[StepReport] = []
    for n in range(1, grid.n_steps):
        ops = assemble_step_operators(opset, grid, n, alpha, prob.a)
        history = (trajectory[-1], trajectory[-2])
        state, report = step(history, ops, opset, prob, grid, n, solver=solver)
        state.U.check_finite()
        state.V.check_finite()
        if report.sup_norm > blowup_cap:
            raise BlowUpError(
                f"blow-up at step {n + 1}: ||(U,V)|| = {report.sup_norm:.3e} > {blowup_cap:.1e}",
                step=n + 1,
                sup_norm=report.sup_norm,
            )
        trajectory.append(state)
        reports.append(report)
    return trajectory, reports


def cfl_guard(grid: Grid, alpha: float, opset: OperatorSet):
    """Sufficient-stability value 4 sigma C_alpha and whether it is < 1.

    C_alpha = alpha * [4 + h (max_j |lam_j| + max_m |gam_m|)].  The bound is
    sufficient, not necessary: a failing guard is a warning, not an error.
    """
    c_alpha = alpha * (
        4.0 + grid.h * (np.max(np.abs(opset.lam_j)) + np.max(np.abs(opset.gam_m)))
    )
    value = 4.0 * grid.sigma * c_alpha
    return value < 1.0, float(value)


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(Er) against log(h).

    Returns +inf when some error vanishes (exact reproduction).
    """
    if len(errors) < 2:
        raise InvalidSpecError("need at least two (h, Er) pairs")
    hs = np.array([h for h, _ in errors], dtype=float)
    ers = np.array([er for _, er in errors], dtype=float)
    if np.any(ers == 0.0):
        return float("inf")
    slope = np.polyfit(np.log(hs), np.log(ers), 1)[0]
    return float(slope)
