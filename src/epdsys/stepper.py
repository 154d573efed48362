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
c_n = l a / (2 t_n) is the only coefficient computed per step.  Each level
is carried in the branch variables Z+- = U +- V with its banded image
K(Z) (`StepOperators.image`), computed once when the level is formed, and
its source (nonlinearity and forcing) is computed once: every banded
operator of a step is a combination of these, so a step forms one image,
of the level it solves.  The stacked pair (Z+, Z-) is the unit of every
per-step operation: the right-hand side, the batched branch solve
(`sylvester._solve`), the image, the residual and the reported norm.
"""

from __future__ import annotations

import dataclasses
import math
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
    CoupledProblem, _Factors, _factor_coupled, _margins, _ratio, _solve, kronecker_solve,
)

SOLVER_SYLVESTER = "sylvester"
SOLVER_KRONECKER = "kronecker"

BLOWUP_CAP = 1e8


@dataclasses.dataclass(frozen=True)
class ProblemDef:
    """Continuous problem data: coefficients, nonlinearity, forcing, seeding.

    `forcing` is None or one callable (x, y, t) -> (G1, G2), the forcing of
    the u and v equations, called once per time level with the grid's
    coordinate matrices.  Exactly one of `exact` (a callable
    (x, y, t) -> (u, v) used to sample the two seed levels) and `data` (the
    tuple (u0, u1, v0, v1) of callables (x, y) -> value for Taylor seeding)
    must be set.  Each value of a pair may be an array or a constant.
    `nonlinear=False` drops the power-law terms, giving the linear system.
    The weight alpha of the scheme is a mesh parameter (`GridSpec.alpha`).
    """

    a: float
    lam: float
    gamma: float
    p: float
    q: float
    forcing: Callable | None = None
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
    """Per-step diagnostics; sup_norm is the combined Frobenius norm
    ||(U, V)|| = ||(Z+, Z-)|| / sqrt(2) of the new level.

    `margins` are the plan's (sum, diff) margins of step n and `margin` the
    smaller one; c is the step's shift c_n.  wall_time covers the whole step;
    rhs_time, solve_time and residual_time are its right-hand-side assembly,
    coupled solve and residual check, which includes the image of the new
    level that the next two right-hand sides reuse.
    """

    n: int
    sup_norm: float
    residual_coupled: float
    margin: float
    margins: tuple[float, float]
    c: float
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


def _sample_pair(f: Callable, grid: Grid, level: int, name: str) -> np.ndarray:
    """The pair f(X, Y, t_level) on the grid nodes, written into one (2, n, n) array.

    Raises InvalidSpecError naming the nodes when f raises or does not return
    a pair of grid-shaped or broadcastable values, and naming `name`, the
    level and t when a sample is not finite.
    """
    X, Y = grid.meshgrid()
    t = grid.time(level)
    pair = np.empty((2,) + X.shape)
    try:
        pair[0], pair[1] = f(X, Y, t)
    except Exception as exc:
        raise InvalidSpecError(
            f"sampling failed on nodes x in [{grid.nodes_x[0]}, {grid.nodes_x[-1]}]: {exc}"
        ) from exc
    if not np.isfinite(pair).all():
        raise InvalidSpecError(f"{name} at level {level} (t_{level} = {t:.6g}) contains NaN/Inf")
    return pair


@dataclasses.dataclass(frozen=True)
class SolvePlan:
    """Branch factors shared by the steps of a run, and their checked margins.

    `factors` factor the shift-free sum pair (W_alpha - k Theta,
    W_alpha^T - k Lambda) and difference pair (W_alpha + k Theta,
    W_alpha^T + k Lambda), k = alpha sigma h, as one two-slice stack; the
    Sylvester path solves step n with them shifted by +c_n and -c_n.  A
    branch whose two coefficients are diagonally similar to symmetric
    tridiagonals takes the "diagonal" kernel (one eigendecomposition per
    side, then four batched GEMMs and an entrywise division per step for
    the stack); any other branch takes the "schur" kernel (real Schur forms,
    trsyl per step on its slice).  `kernels` names them; on the reference
    grid (axis node, limit policy) the sum branch is diagonal for
    lam, gamma < 1 and the difference branch for lam, gamma < 1/2.
    `schedule` maps each step n to its (sum, diff) margins, all of them
    above the solvability floor; both solvers report these.  `margin_pairs`
    maps each step to the shifted eigenvalue pairs (lam, mu) that attain them.
    `factor_time` is the wall time of the factorization.
    """

    factors: _Factors
    schedule: dict[int, tuple[float, float]]
    margin_pairs: dict[int, tuple[tuple[complex, complex], tuple[complex, complex]]]
    factor_time: float

    @property
    def kernels(self) -> tuple[str, str]:
        """The (sum, diff) solve kernels: "diagonal" or "schur"."""
        return self.factors.kernels

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
    t_start = time.perf_counter()
    factors = _factor_coupled(ops.W_alpha, -1.0 * ops.kTheta, -1.0 * ops.kLambda, ops.W_alpha.T)
    factor_time = time.perf_counter() - t_start
    steps = range(1, grid.n_steps)
    margins, attaining = _margins(factors, [step_shift(grid, n, a) for n in steps], steps)
    schedule = dict(zip(steps, map(tuple, margins.tolist())))
    margin_pairs = {n: tuple(map(tuple, p)) for n, p in zip(steps, attaining.tolist())}
    return SolvePlan(factors, schedule, margin_pairs, factor_time)


def init_levels(prob: ProblemDef, grid: Grid, opset: OperatorSet | None = None):
    """Seed levels 0 and 1, either from an exact solution or a Taylor expansion.

    Taylor mode computes U^1 = u0 + l u1 + (l^2/2) u_tt with u_tt evaluated
    from the PDE using the discrete spatial operators.  At t0 = 0 with a != 0
    the damping coefficient is singular; with `allow_singular_t0` the pair
    (u_tt, v_tt) is recovered from the one-sided limit system
    u_tt + 2a v_tt = RHS_u, v_tt + 2a u_tt = RHS_v (valid for u1 = v1 = 0).
    """
    return _seed_levels(prob, grid, opset)[:2]


def _seed_levels(prob: ProblemDef, grid: Grid, opset: OperatorSet | None):
    """`init_levels`, and the explicit terms of level 0 when the seeding
    computed them (two-term Taylor mode), else None."""
    t0 = grid.t0
    if prob.exact is not None:
        def seed(level):
            u, v = _sample_pair(prob.exact, grid, level, "exact solution")
            return CoupledState(Field(u, level), Field(v, level))

        return seed(0), seed(1), None

    u0f, u1f, v0f, v1f = prob.data
    U0 = sample(u0f, grid, level=0)
    V0 = sample(v0f, grid, level=0)
    Ut = sample(u1f, grid, level=0).values
    Vt = sample(v1f, grid, level=0).values
    l = grid.l

    if prob.taylor_terms == 1:
        U1 = Field(U0.values + l * Ut, level=1)
        V1 = Field(V0.values + l * Vt, level=1)
        return CoupledState(U0, V0), CoupledState(U1, V1), None

    if opset is None:
        opset = build_operator_set(grid, prob.lam, prob.gamma)

    h = grid.h
    A, Theta, Lam = opset.A, opset.Theta, opset.Lambda
    F0 = _explicit_terms(prob, grid, CoupledState(U0, V0))
    F_u, F_v = F0
    rhs_u = _lyap(A, U0.values) / (h * h) + _cross(Theta, Lam, V0.values) / h + F_u
    rhs_v = _lyap(A, V0.values) / (h * h) + _cross(Theta, Lam, U0.values) / h + F_v

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
    return CoupledState(U0, V0), CoupledState(U1, V1), F0


def _explicit_terms(prob: ProblemDef, grid: Grid, state: CoupledState) -> np.ndarray:
    """(F_u, F_v) = (|U|^(p-1) V + G1, |V|^(q-1) U + G2) at the level of `state`, stacked."""
    U, V = state.U.values, state.V.values
    if prob.forcing is None:
        F = np.zeros((2,) + U.shape)
    else:
        F = _sample_pair(prob.forcing, grid, state.level, "forcing")
    if prob.nonlinear:
        F[0] += _power(U, V, prob.p)
        F[1] += _power(V, U, prob.q)
    return F


def level_source(prob: ProblemDef, grid: Grid, state: CoupledState) -> np.ndarray:
    """The explicit source of one time level, stacked (S+, S-) = (l^2/2) (F_u +- F_v).

    The source of level n enters the steps n and n+1 with the same weight,
    so `run` computes it once and carries it.  A forcing sample that is not
    finite raises InvalidSpecError naming the level and t_n.
    """
    return _branch_source(grid, _explicit_terms(prob, grid, state))


def _branch_source(grid: Grid, F: np.ndarray) -> np.ndarray:
    """(l^2/2) (F_u +- F_v) from the stacked explicit terms (F_u, F_v)."""
    return _sum_diff(F, 0.5 * grid.l * grid.l)


def _sum_diff(P, scale: float = 1.0) -> np.ndarray:
    """scale (P0 + P1, P0 - P1), written into one (2, n, n) array."""
    out = np.empty((2,) + P[0].shape)
    np.add(P[0], P[1], out=out[0])
    np.subtract(P[0], P[1], out=out[1])
    out *= scale
    return out


@dataclasses.dataclass(frozen=True)
class BranchLevel:
    """One time level in the branch variables, with its image.

    Z = (U + V, U - V) is stacked in BRANCH_SIGNS order and KZ = K(Z) is its
    image (`StepOperators.image`).  The step that forms the level checks its
    residual with KZ, and the right-hand sides of the next two steps reuse it.
    """

    state: CoupledState
    Z: np.ndarray
    KZ: np.ndarray

    @classmethod
    def of(cls, state: CoupledState, ops: StepOperators) -> "BranchLevel":
        """The branch pair of `state` and its image."""
        Z = _sum_diff((state.U.values, state.V.values))
        return cls(state, Z, ops.image(Z))


def assemble_rhs(
    levels: tuple[BranchLevel, BranchLevel],
    sources: tuple[np.ndarray, np.ndarray],
    ops: StepOperators,
    c: float,
) -> np.ndarray:
    """The branch right-hand sides, stacked (C+, C-), of the solve for level n+1.

    C+- = C1 +- C2 in the branch variables Z+- = U +- V, in which the scheme
    decouples.  Every banded operator of a branch is affine in the image K(Z)
    (`StepOperators`), so with w_e = (1 - 2 alpha) sigma and w_i = alpha sigma

        C+- = 2 Z+-^n + w_e K(Z+-^n) - Z+-^(n-1) + w_i K(Z+-^(n-1))
              +- 2 c_n Z+-^(n-1) + S+-^n + S+-^(n-1)

    is formed entrywise from the carried images, with no banded product;
    2 c_n takes the branch's sign in `BRANCH_SIGNS`.  `levels` holds the
    levels (n, n-1), `sources` their `level_source` and c the step's shift
    c_n.
    """
    level_n, level_m = levels
    if level_m.state.level != level_n.state.level - 1:
        raise InvalidSpecError(
            f"history levels ({level_n.state.level}, {level_m.state.level}) are not consecutive"
        )
    C = ((2.0 * c) * ops.signs - 1.0) * level_m.Z
    C += 2.0 * level_n.Z
    C += ops.explicit_weight * level_n.KZ
    C += ops.implicit_weight * level_m.KZ
    source_n, source_m = sources
    C += source_n + source_m
    return C


def _step_residual(level: BranchLevel, C: np.ndarray, ops: StepOperators, c: float) -> float:
    """Relative Frobenius residual of both branch equations of a step,
    Z - alpha sigma K(Z) +- 2 c_n Z = C, from the new level's image.

    This is the plan's pair shifted by +-c_n, evaluated banded in physical
    space, independent of the solve's eigenbasis.  One norm over the stack
    gives the ratio of the two U/V equations, by the parallelogram identity
    (see `sylvester._branch_residual`); 0/0 counts as 0.
    """
    r = (1.0 + (2.0 * c) * ops.signs) * level.Z
    r -= ops.implicit_weight * level.KZ
    r -= C
    return _ratio(np.linalg.norm(r), np.linalg.norm(C))


def step(
    levels: tuple[BranchLevel, BranchLevel],
    source_m: np.ndarray,
    ops: StepOperators,
    prob: ProblemDef,
    grid: Grid,
    n: int,
    plan: SolvePlan,
    solver: str = SOLVER_SYLVESTER,
) -> tuple[BranchLevel, StepReport, np.ndarray]:
    """Advance one level in the branch variables; form U and V once, at the end.

    `levels` holds the levels (n, n-1) and `source_m` the `level_source` of
    level n-1.  The step computes the source of level n and returns it with
    the new level and its image, for steps n+1 and n+2.  The Sylvester path
    solves the branches with the factors of `plan` shifted by +-c_n; the
    Kronecker path solves the dense U/V system with R = c_n I - k Theta and
    S = c_n I - k Lambda.  Both report the plan's margins for step n and the
    residual of the branch equations (`_step_residual`), which on the
    Kronecker path checks BRANCH_SIGNS.
    """
    t_start = time.perf_counter()
    c = step_shift(grid, n, prob.a)
    source = level_source(prob, grid, levels[0].state)
    C = assemble_rhs(levels, (source, source_m), ops, c)
    rhs_time = time.perf_counter() - t_start
    t_solve = time.perf_counter()
    if solver == SOLVER_SYLVESTER:
        Z = _solve(plan.factors, C, c)
        X, Y = _sum_diff(Z, 0.5)
    elif solver == SOLVER_KRONECKER:
        I_c = TriDiagMatrix.identity(grid.size, c)
        C1, C2 = _sum_diff(C, 0.5)
        X, Y = kronecker_solve(CoupledProblem(
            W=ops.W_alpha,
            R=I_c - ops.kTheta,
            S=I_c - ops.kLambda,
            C1=C1,
            C2=C2,
            W_right=ops.W_alpha.T,
        ))
        Z = _sum_diff((X, Y))
    else:
        raise InvalidSpecError(f"unknown solver {solver!r}")
    solve_time = time.perf_counter() - t_solve

    t_residual = time.perf_counter()
    state = CoupledState(Field(X, level=n + 1), Field(Y, level=n + 1))
    level = BranchLevel(state, Z, ops.image(Z))
    res = _step_residual(level, C, ops, c)
    residual_time = time.perf_counter() - t_residual

    margins = plan.schedule[n]
    report = StepReport(
        n=n,
        sup_norm=math.sqrt(0.5) * float(np.linalg.norm(Z)),
        residual_coupled=res,
        margin=min(margins),
        margins=margins,
        c=c,
        wall_time=time.perf_counter() - t_start,
        rhs_time=rhs_time,
        solve_time=solve_time,
        residual_time=residual_time,
    )
    return level, report, source


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
    (SolvabilityError names the step).  Each level's image (`BranchLevel`)
    and source (nonlinearity and forcing, `level_source`) are computed once
    and used by every step they enter.  Raises BlowUpError when the combined
    norm exceeds blowup_cap.
    """
    grid = spec if isinstance(spec, Grid) else build_grid(spec)
    if grid.n_steps < 2:
        raise InvalidSpecError("run needs n_steps >= 2")
    opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy=sing_policy)
    ops = assemble_step_operators(opset, grid, grid.spec.alpha)
    plan = plan_solves(ops, grid, prob.a)
    s0, s1, terms0 = _seed_levels(prob, grid, opset)
    for seed in (s0, s1):
        seed.U.check_finite()
        seed.V.check_finite()
    trajectory = [s0, s1]
    reports: list[StepReport] = []
    if terms0 is None:
        terms0 = _explicit_terms(prob, grid, s0)
    source = _branch_source(grid, terms0)
    levels = (BranchLevel.of(s1, ops), BranchLevel.of(s0, ops))
    for n in range(1, grid.n_steps):
        level, report, source = step(levels, source, ops, prob, grid, n, plan, solver=solver)
        state = level.state
        if not math.isfinite(report.sup_norm):  # names the field that is not finite
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
        levels = (level, levels[0])
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
