"""Time stepping for the quasi-linear coupled scheme.

Every step advances (U, V) by solving the coupled Lyapunov-Sylvester pair

    W X + X W' + R Y + Y S = C1
    W Y + Y W' + R X + X S = C2

where W = W_alpha, W' = W_alpha^T, R = c_n I - k Theta, S = c_n I - k Lambda
(k = alpha sigma h) and the right-hand sides collect the two known levels,
the explicit nonlinearities and the forcing.  All scalings come from the
pointwise difference equation (the l^2-multiplied form), so the nonlinearity
and forcing enter with weight l^2/2 per level and the gradient history with
weight (1-2 alpha) sigma h.

`run` builds the step operators and the solve plan once; the damping shift
c_n = l a / (2 t_n) is the only value computed per step.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Sequence

import numpy as np

from .exceptions import BlowUpError, InvalidSpecError, SingularTimeError
from .grid import CoupledState, Field, Grid, GridSpec, build_grid, sample
from .operators import (
    SING_LIMIT, OperatorSet, StepOperators, TriDiagMatrix, assemble_step_operators,
    build_operator_set, step_shift,
)
from .sylvester import (
    BRANCH_SIGNS, CoupledProblem, _branch_residual, _coupled_margins, _factor_coupled,
    _solve_branches, kronecker_solve,
)

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
    """Per-step diagnostics; sup_norm is the combined Frobenius norm.

    wall_time covers the whole step; rhs_time, solve_time and residual_time
    are its right-hand-side assembly, coupled solve and residual check.
    """

    n: int
    sup_norm: float
    residual_coupled: float
    margin: float
    wall_time: float
    rhs_time: float
    solve_time: float
    residual_time: float


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


def _forcing_at(prob: ProblemDef, grid: Grid, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The forcing pair (G1, G2) on the grid nodes at time level n; a sample
    that is not finite raises InvalidSpecError naming the level and t_n."""
    t = grid.time(n)
    pair = tuple(_sample_at(G, grid, t) for G in prob.forcing)
    if not all(np.isfinite(G).all() for G in pair):
        raise InvalidSpecError(f"forcing at level {n} (t_{n} = {t:.6g}) contains NaN/Inf")
    return pair


@dataclasses.dataclass(frozen=True)
class SolvePlan:
    """Branch factors shared by the steps of a run, and their checked margins.

    `factors` factor the shift-free sum pair (W_alpha - k Theta,
    W_alpha^T - k Lambda) and difference pair (W_alpha + k Theta,
    W_alpha^T + k Lambda), k = alpha sigma h; the Sylvester path solves step
    n with them shifted by +c_n and -c_n.  A branch whose two coefficients
    are diagonally similar to symmetric tridiagonals takes the "diagonal"
    kernel (one eigendecomposition per side, then four GEMMs and an
    entrywise division per step); any other branch takes the "schur" kernel
    (real Schur forms, trsyl per step).  `kernels` names them; on the
    reference grid (axis node, limit policy) the sum branch is diagonal for
    lam, gamma < 1 and the difference branch for lam, gamma < 1/2.
    `schedule` maps each step n to its (sum, diff) margins, all of them
    above the solvability floor; both solvers report these.
    """

    factors: tuple
    schedule: dict[int, tuple[float, float]]

    @property
    def kernels(self) -> tuple[str, str]:
        """The (sum, diff) solve kernels: "diagonal" or "schur"."""
        return tuple(f.kernel for f in self.factors)

    def min_margin(self) -> tuple[float, int, str]:
        """The smallest margin of the schedule, with its step and branch."""
        return min(
            (m, n, branch)
            for n, margins in self.schedule.items()
            for branch, m in zip(("sum", "diff"), margins)
        )


def plan_solves(ops: StepOperators, grid: Grid, a: float) -> SolvePlan:
    """Factor the shift-free branch pairs once and check every step's margin.

    Raises SolvabilityError naming the first failing step, its branch and
    its eigenvalue pair before any solve.
    """
    factors = _factor_coupled(ops.W_alpha, -1.0 * ops.kTheta, -1.0 * ops.kLambda, ops.W_alpha.T)
    schedule = {
        n: _coupled_margins(factors, step_shift(grid, n, a), step=n)
        for n in range(1, grid.n_steps)
    }
    return SolvePlan(factors, schedule)


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
    prob: ProblemDef,
    grid: Grid,
    n: int,
    forcing_at: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """The branch right-hand sides, stacked (C+, C-), of the solve for level n+1.

    C+- = C1 +- C2 in the branch variables Z+- = U +- V, in which the scheme
    decouples:

        C+- = Ln+- Z+-^n + Z+-^n Rn+- + Lm+- Z+-^(n-1) + Z+-^(n-1) Rm+-
              +- 2 c_n Z+-^(n-1) + (l^2/2) (F_u +- F_v)

    where Ln+-, Lm+- are the slices of `ops.rhs_left` and Rn+-, Rm+- those
    of `ops.rhs_right`: one left and one right pass over the stack (Z+^n,
    Z-^n, Z+^(n-1), Z-^(n-1)); 2 c_n takes the branch's sign in
    `BRANCH_SIGNS`.  F_u and F_v sum the nonlinearity and the forcing of
    the u and v equations over levels n and n-1.

    `forcing_at(k)` returns the forcing pair at level k; run() passes one
    that keeps the last two levels, so each level is sampled once.
    """
    state_n, state_nm1 = history
    if state_n.level != n or state_nm1.level != n - 1:
        raise InvalidSpecError(
            f"history levels ({state_n.level}, {state_nm1.level}) do not match n={n}"
        )
    Un, Vn = state_n.U.values, state_n.V.values
    Um, Vm = state_nm1.U.values, state_nm1.V.values
    c = step_shift(grid, n, prob.a)

    Z = np.stack((Un + Vn, Un - Vn, Um + Vm, Um - Vm))
    T = ops.rhs_left @ Z
    T += Z @ ops.rhs_right
    for T_m, Z_m, s in zip(T[2:], Z[2:], BRANCH_SIGNS.values()):
        T_m += (2.0 * s * c) * Z_m
    C = T[:2] + T[2:]

    F_u = F_v = 0.0
    if prob.nonlinear:
        F_u = _power(Un, Vn, prob.p) + _power(Um, Vm, prob.p)
        F_v = _power(Vn, Un, prob.q) + _power(Vm, Um, prob.q)
    if prob.forcing is not None:
        if forcing_at is None:
            forcing_at = functools.partial(_forcing_at, prob, grid)
        # level n-1 first: asking for n first would evict n-1 from a two-level cache
        (G1_m, G2_m), (G1_n, G2_n) = forcing_at(n - 1), forcing_at(n)
        F_u = F_u + (G1_n + G1_m)
        F_v = F_v + (G2_n + G2_m)
    half_l2 = 0.5 * grid.l * grid.l
    C[0] += half_l2 * (F_u + F_v)
    C[1] += half_l2 * (F_u - F_v)
    return C


def step(
    history: tuple[CoupledState, CoupledState],
    ops: StepOperators,
    prob: ProblemDef,
    grid: Grid,
    n: int,
    plan: SolvePlan,
    solver: str = SOLVER_SYLVESTER,
    forcing_at: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[CoupledState, StepReport]:
    """Advance one level in the branch variables; store U and V once, at the end.

    The Sylvester path solves the branches with the factors of `plan`
    shifted by +-c_n; the Kronecker path solves the dense U/V system with
    R = c_n I - k Theta and S = c_n I - k Lambda.  Both report the plan's
    margin for step n and the residual of the branch equations on the
    plan's banded pairs, which on the Kronecker path checks BRANCH_SIGNS.
    """
    t_start = time.perf_counter()
    C = assemble_rhs(history, ops, prob, grid, n, forcing_at)
    rhs_time = time.perf_counter() - t_start
    c = step_shift(grid, n, prob.a)
    t_solve = time.perf_counter()
    if solver == SOLVER_SYLVESTER:
        P, Q = _solve_branches(plan.factors, C, c)
        X, Y = 0.5 * (P + Q), 0.5 * (P - Q)
    elif solver == SOLVER_KRONECKER:
        I_c = TriDiagMatrix.identity(grid.size, c)
        X, Y = kronecker_solve(CoupledProblem(
            W=ops.W_alpha,
            R=I_c - ops.kTheta,
            S=I_c - ops.kLambda,
            C1=0.5 * (C[0] + C[1]),
            C2=0.5 * (C[0] - C[1]),
            W_right=ops.W_alpha.T,
        ))
        P, Q = X + Y, X - Y
    else:
        raise InvalidSpecError(f"unknown solver {solver!r}")
    solve_time = time.perf_counter() - t_solve

    t_residual = time.perf_counter()
    res = _branch_residual([(f.L, f.R) for f in plan.factors], (P, Q), C, c)
    residual_time = time.perf_counter() - t_residual

    state = CoupledState(Field(X, level=n + 1), Field(Y, level=n + 1))
    report = StepReport(
        n=n,
        sup_norm=state.sup_norm(),
        residual_coupled=res,
        margin=min(plan.schedule[n]),
        wall_time=time.perf_counter() - t_start,
        rhs_time=rhs_time,
        solve_time=solve_time,
        residual_time=residual_time,
    )
    return state, report


def run(
    prob: ProblemDef,
    spec: GridSpec | Grid,
    solver: str = SOLVER_SYLVESTER,
    blowup_cap: float = BLOWUP_CAP,
    sing_policy: str = SING_LIMIT,
) -> tuple[list[CoupledState], list[StepReport]]:
    """Run the full simulation: seed two levels, then advance to n_steps.

    sing_policy selects the axis-node treatment of the gradient operators
    ('zero' drops the singular coefficient, 'limit' uses its L'Hopital
    stencil; see operators.build_operator_set).  The step operators are
    built once; the solve plan factors the branch pairs once and checks
    every step's margin before the first solve on either solver
    (SolvabilityError names the step).  Raises BlowUpError when the
    combined norm exceeds blowup_cap.
    """
    grid = spec if isinstance(spec, Grid) else build_grid(spec)
    if grid.n_steps < 2:
        raise InvalidSpecError("run needs n_steps >= 2")
    alpha = prob.alpha if prob.alpha is not None else grid.spec.alpha
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy=sing_policy)
    ops = assemble_step_operators(opset, grid, alpha)
    plan = plan_solves(ops, grid, prob.a)
    forcing_at = functools.lru_cache(maxsize=2)(functools.partial(_forcing_at, prob, grid))
    s0, s1 = init_levels(prob, grid, opset)
    for seed in (s0, s1):
        seed.U.check_finite()
        seed.V.check_finite()
    trajectory = [s0, s1]
    reports: list[StepReport] = []
    for n in range(1, grid.n_steps):
        history = (trajectory[-1], trajectory[-2])
        state, report = step(
            history, ops, prob, grid, n, plan, solver=solver, forcing_at=forcing_at
        )
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
