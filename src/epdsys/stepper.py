"""Time stepping for the quasi-linear coupled scheme.

Every step advances (U, V) by solving the coupled Lyapunov-Sylvester pair

    W X + X W' + R Y + Y S = C1
    W Y + Y W' + R X + X S = C2

where W = I/2 - alpha sigma A, W' = W^T, R = c_n I - k Theta and
S = c_n I - k Lambda (k = alpha sigma h), and the right-hand sides collect
the two known levels, the explicit nonlinearities and the forcing.  All
scalings come from the pointwise difference equation (the l^2-multiplied
form), so the nonlinearity and forcing enter with weight l^2/2 per level
and the gradient history with weight (1-2 alpha) sigma h.  In the branch
variables Z+- = U +- V the pair decouples into the branches
(I/2 - alpha sigma K + s c_n I) Z + Z (I/2 - alpha sigma K' + s c_n I) = C
of the bands (K, K') = (A + s h Theta, A^T + s h Lambda), s = +-1, the one
stored form of the step operator (`StepOperators.bands`).

`prepare` is the one setup of a run: it checks the solver, builds the grid,
the step operators and the solve plan once, and refuses before any solve.
`march` calls it, seeds levels 0 and 1 through `init_levels` (exact pair or
Taylor expansion), and calls `step` per level with the last two levels,
yielding each level as it is formed and keeping only the two that the next
step reads; nothing runs until its first level is drawn.  `run` is `march`
collected into one trajectory array, and the one function that keeps every
level, so the one that budgets a trajectory's memory
(`MAX_TRAJECTORY_BYTES`); the step count and the work of every run are
capped by the mesh check (`grid.MAX_STEPS`, `grid.MAX_WORK`).  A caller
that folds the levels (`bench.run_convergence`, `epdsys solve`, validate's
zero-trajectory check) draws them from `march`, validate's solvability
schedule is `prepare` alone, and `bench.run_table1` calls `run`, whose
reports the table1 benchmark captures by wrapping `bench.run`.  The damping
shift c_n = l a / (2 t_n) is the only coefficient that changes from step to
step; the plan computes and checks all of them once
(`sylvester.SolvePlan.shifts`), and step n reads row n - 1.  Every callable
of the problem (forcing, exact pair, Taylor data) is sampled by
`grid.sample`.  Each level is a `BranchLevel`: the branch variables
Z+- = U +- V, their banded image K(Z) (`StepOperators.image`) and their
source (nonlinearity and forcing), all formed once, with the level.  Every
term of a step's right-hand side is a combination of these, so a step forms
one image and one source, of the level it solves, and no caller carries a
source beside its level.  The stacked pair (Z+, Z-) is the unit of every
per-step operation: the right-hand side, the batched branch solve
(`sylvester._solve`), the image, the residual and the reported norm.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from typing import Callable, Iterator, Sequence

import numpy as np

from .exceptions import BlowUpError, InvalidSpecError, SingularTimeError
from .grid import CoupledState, Field, Grid, GridSpec, build_grid, sample
from .operators import (
    BRANCH_SIGNS, SING_LIMIT, StepOperators, TriDiagMatrix, _sum_diff,
    assemble_step_operators, build_operator_set, step_shift,
)
from .sylvester import (
    CoupledProblem, SolvePlan, _check_kronecker_size, _factor, _ratio, _solve, kronecker_solve,
)

SOLVER_SYLVESTER = "sylvester"
SOLVER_KRONECKER = "kronecker"

BLOWUP_CAP = 1e8

# Byte budget for the U/V trajectory that `run` keeps, 16 (n_steps + 1) (J+2)^2
# bytes, read at call time (the reference J = 799 needs 2.6e9).  A run that
# streams its levels through `march` holds two of them and has no such budget;
# the step count and work of every run are capped by `grid.MAX_STEPS` and
# `grid.MAX_WORK`.
MAX_TRAJECTORY_BYTES = 2**34


def _check_solver(solver: str):
    if solver not in (SOLVER_SYLVESTER, SOLVER_KRONECKER):
        raise InvalidSpecError(f"unknown solver {solver!r}")


@dataclasses.dataclass(frozen=True)
class ProblemDef:
    """Continuous problem data: coefficients, nonlinearity, forcing, seeding.

    `forcing` is None or one callable (x, y, t) -> (G1, G2), the forcing of
    the u and v equations, called once per time level with the grid's
    coordinate matrices.  Exactly one of `exact` (a callable
    (x, y, t) -> (u, v) used to sample the two seed levels) and `data` (the
    tuple (u0, u1, v0, v1) of callables (x, y) -> value for Taylor seeding)
    must be set; at t0 = 0 with a != 0, `data` needs u1 = v1 = 0 (`init_levels`).
    Each value of a pair may be an array or a constant.
    `nonlinear=False` drops the power-law terms, giving the linear system.
    The weight alpha of the scheme is a mesh parameter (`GridSpec.alpha`).
    A coefficient a, lam, gamma, p or q that is not finite raises
    InvalidSpecError naming it, as does p <= 1 or q <= 1.
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

    def __post_init__(self):
        for name in ("a", "lam", "gamma", "p", "q"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpecError(f"{name!r} must be finite, got {getattr(self, name)}")
        if self.p <= 1 or self.q <= 1:
            raise InvalidSpecError(f"need p, q > 1, got p={self.p}, q={self.q}")
        if (self.exact is None) == (self.data is None):
            raise InvalidSpecError("exactly one seeding source (exact or data) must be set")


@dataclasses.dataclass(frozen=True)
class StepReport:
    """Per-step diagnostics; sup_norm is the combined Frobenius norm
    ||(U, V)|| = ||(Z+, Z-)|| / sqrt(2) of the new level.

    `margins` are the plan's (sum, diff) margins of step n and `margin` the
    smaller one; c is the step's shift c_n.  A report exists only for a
    level that `step` checked: finite, with sup_norm <= BLOWUP_CAP.
    wall_time covers the whole step; rhs_time, solve_time, residual_time and
    source_time are its phases: the entrywise right-hand-side assembly, the
    coupled solve, the residual check, which includes the image of the new
    level, and the new level's source (`level_source`), 0.0 on the run's
    last step, whose level no step reads.
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
    source_time: float


def _power(own: np.ndarray, other: np.ndarray, expo: float) -> np.ndarray:
    """Entrywise |own|^(expo-1) * other, the power-law coupling term."""
    return np.abs(own) ** (expo - 1.0) * other


def plan_solves(ops: StepOperators, grid: Grid, a: float) -> SolvePlan:
    """The run's `SolvePlan`: the shift-free branch pairs factored once and
    checked at every step's shift c_n, row n - 1 for step n.

    Each branch's pair is (I/2 - alpha sigma K, I/2 - alpha sigma K') of its
    bands (`StepOperators.bands`), in BRANCH_SIGNS order; Method I reads its
    U/V coefficients off the same pairs.  On the reference grid (axis node,
    limit policy) the sum branch takes the diagonal kernel for lam, gamma < 1
    and the difference branch for lam, gamma < 1/2, else the Schur kernel.
    Raises InvalidSpecError when a step operator or a pair is not finite (a
    lam, gamma, alpha or sigma so large that it overflows) and, for a finite
    a, when a shift c_n is not finite (a t_n so small that a / t_n
    overflows), naming step n and t_n; and SolvabilityError naming the first
    failing step, its branch and its eigenvalue pair, a NaN margin included
    (a NaN a); all before any solve.
    """
    half = TriDiagMatrix.identity(grid.size, 0.5)
    w = ops.implicit_weight
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        pairs = [(half - w * K, half - w * Kr) for K, Kr in ops.bands]
    bands = [band for pair in pairs for M in pair for band in (M.sub, M.diag, M.sup)]
    if not (math.isfinite(ops.explicit_weight) and np.isfinite(ops.image_planes).all()
            and all(np.isfinite(band).all() for band in bands)):
        raise InvalidSpecError(
            f"the step operators are not finite (alpha sigma = {w:.3g}, h = {grid.h:.3g})"
        )
    steps = range(1, grid.n_steps)
    shifts = [step_shift(grid, n, a) for n in steps]
    for n, c in zip(steps, shifts):
        if math.isfinite(a) and not math.isfinite(c):  # the mesh's fault, not a's
            raise InvalidSpecError(
                f"step {n}: the shift c_{n} = l a / (2 t_{n}) = {c} is not finite "
                f"(t_{n} = {grid.time(n):.6g}, l = {grid.l:.6g})"
            )
    return _factor(pairs, tuple(BRANCH_SIGNS), shifts, steps)


def init_levels(prob: ProblemDef, grid: Grid, ops: StepOperators):
    """Seed levels 0 and 1: the two `BranchLevel`s (0, 1), each with its image and source.

    Exact mode samples `prob.exact` at t0 and t1.  Taylor mode samples
    (u0, v0) and (u1, v1) and computes U^1 = u0 + l u1 + (l^2/2) u_tt in the
    branch variables Z+- = U +- V, where the spatial terms of u_tt +- v_tt
    are the image of level 0 over h^2 (`StepOperators`): rhs = K(Z^0) / h^2
    + (F_u +- F_v) and Z_tt = rhs -+ (2a / t0) Z_t, with the sign of the
    branch.  At t0 = 0 with a != 0 the damping is singular and the EPD
    Cauchy condition is u1 = v1 = 0: a sampled velocity that is not zero
    raises SingularTimeError; a zero one takes the one-sided limit system
    u_tt + 2a v_tt = RHS_u, v_tt + 2a u_tt = RHS_v, Z_tt = rhs / (1 +- 2a),
    singular at a = +-1/2.  Level 0's image and explicit terms serve the
    first step as well: its source is the l^2/2 multiple of the same sampled
    terms.  A sample that is not finite raises InvalidSpecError
    naming its source and level (`grid.sample`), and so does a Taylor level
    1 that is not finite, checked here where it is computed.
    """
    if prob.exact is not None:
        def seed(level):
            u, v = sample(prob.exact, grid, level, "exact solution")
            return BranchLevel.of(CoupledState(Field(u), Field(v), level), ops, prob, grid)

        return seed(0), seed(1)

    u0f, u1f, v0f, v1f = prob.data
    U0, V0 = sample(lambda X, Y, t: (u0f(X, Y), v0f(X, Y)), grid, 0, "initial data")
    state0 = CoupledState(Field(U0), Field(V0), level=0)
    Z0 = _sum_diff((U0, V0))
    Zt = _sum_diff(sample(lambda X, Y, t: (u1f(X, Y), v1f(X, Y)), grid, 0, "initial velocity"))
    F = _sum_diff(_explicit_terms(prob, grid, state0))
    l2 = 0.5 * grid.l * grid.l
    level0 = BranchLevel(state0, Z0, ops.image(Z0), l2 * F)
    rhs = level0.KZ / (grid.h * grid.h) + F
    t0, a = grid.t0, prob.a
    if t0 > 0.0:
        Ztt = rhs - ((2.0 * a / t0) * ops.signs) * Zt
    else:
        if a != 0.0 and np.any(Zt):
            raise SingularTimeError(f"t0 = 0 with a = {a:g} needs zero initial velocity (u1, v1)")
        denom = 1.0 + (2.0 * a) * ops.signs
        if np.any(np.abs(denom) < 1e-12):
            raise SingularTimeError("regularized t0 = 0 seeding degenerate at a = +-1/2")
        Ztt = rhs / denom
    Z1 = level0.Z + grid.l * Zt + l2 * Ztt
    U1, V1 = _sum_diff(Z1, 0.5)
    state1 = CoupledState(Field(U1), Field(V1), level=1).check_finite()
    return level0, BranchLevel(state1, Z1, ops.image(Z1), level_source(prob, grid, state1))


def _explicit_terms(prob: ProblemDef, grid: Grid, state: CoupledState) -> np.ndarray:
    """(F_u, F_v) = (|U|^(p-1) V + G1, |V|^(q-1) U + G2) at the level of `state`, stacked."""
    U, V = state.U.values, state.V.values
    if prob.forcing is None:
        F = np.zeros((2,) + U.shape)
    else:
        F = sample(prob.forcing, grid, state.level, "forcing")
    if prob.nonlinear:
        F[0] += _power(U, V, prob.p)
        F[1] += _power(V, U, prob.q)
    return F


def level_source(prob: ProblemDef, grid: Grid, state: CoupledState) -> np.ndarray:
    """The explicit source of one time level, stacked (S+, S-) = (l^2/2) (F_u +- F_v).

    The source of level n enters the steps n and n+1 with the same weight,
    so it is computed once, with the level, and carried on its
    `BranchLevel`.  A forcing sample that is not finite raises
    InvalidSpecError naming the level and t_n.
    """
    return _sum_diff(_explicit_terms(prob, grid, state), 0.5 * grid.l * grid.l)


@dataclasses.dataclass(frozen=True)
class BranchLevel:
    """One time level in the branch variables, with its image and its source.

    Z = (U + V, U - V) is stacked in BRANCH_SIGNS order, KZ = K(Z) is its
    image (`StepOperators.image`) and `source` its `level_source`.  The step
    that forms the level checks its residual with KZ, and the right-hand
    sides of the next two steps reuse KZ and the source.  The last level of a
    run, which no step reads, has source None.
    """

    state: CoupledState
    Z: np.ndarray
    KZ: np.ndarray
    source: np.ndarray | None

    @classmethod
    def of(
        cls, state: CoupledState, ops: StepOperators, prob: ProblemDef, grid: Grid
    ) -> "BranchLevel":
        """The branch pair of `state`, its image and its source."""
        Z = _sum_diff((state.U.values, state.V.values))
        return cls(state, Z, ops.image(Z), level_source(prob, grid, state))


def assemble_rhs(
    levels: tuple[BranchLevel, BranchLevel], ops: StepOperators, c: float
) -> np.ndarray:
    """The branch right-hand sides, stacked (C+, C-), of the solve for level n+1.

    C+- = C1 +- C2 in the branch variables Z+- = U +- V, in which the scheme
    decouples.  Every banded operator of a branch is affine in the image K(Z)
    (`StepOperators`), so with w_e = (1 - 2 alpha) sigma and w_i = alpha sigma

        C+- = 2 Z+-^n + w_e K(Z+-^n) - Z+-^(n-1) + w_i K(Z+-^(n-1))
              +- 2 c_n Z+-^(n-1) + S+-^n + S+-^(n-1)

    is formed entrywise from the levels' images and sources, with no banded
    product; 2 c_n takes the branch's sign in `BRANCH_SIGNS`.  `levels` holds
    the levels (n, n-1) and c is the step's shift c_n.  Levels that are not
    consecutive, or a level without a source (a run's last level), raise
    InvalidSpecError naming them.
    """
    level_n, level_m = levels
    if level_m.state.level != level_n.state.level - 1:
        raise InvalidSpecError(
            f"history levels ({level_n.state.level}, {level_m.state.level}) are not consecutive"
        )
    for level in levels:
        if level.source is None:
            raise InvalidSpecError(f"history level {level.state.level} has no source")
    C = ((2.0 * c) * ops.signs - 1.0) * level_m.Z
    C += 2.0 * level_n.Z
    C += ops.explicit_weight * level_n.KZ
    C += ops.implicit_weight * level_m.KZ
    C += level_n.source + level_m.source
    return C


def _step_residual(
    Z: np.ndarray, KZ: np.ndarray, C: np.ndarray, C_norm: float, ops: StepOperators, c: float
) -> float:
    """Relative Frobenius residual of both branch equations of a step,
    Z - alpha sigma K(Z) +- 2 c_n Z = C, from the new level Z and its image
    KZ = K(Z); C_norm = ||C||.

    This is the plan's pair shifted by +-c_n, evaluated banded in physical
    space, independent of the solve's eigenbasis.  The branch residuals are
    r+- = r1 +- r2 of the two U/V equations, and by the parallelogram
    identity ||r+||^2 + ||r-||^2 = 2 (||r1||^2 + ||r2||^2), likewise for C,
    so one norm over the stack gives the ratio of the two U/V equations
    (`sylvester.residual` evaluates those directly); 0/0 counts as 0.
    """
    r = (1.0 + (2.0 * c) * ops.signs) * Z
    r -= ops.implicit_weight * KZ
    r -= C
    return _ratio(np.linalg.norm(r), C_norm)


def step(
    levels: tuple[BranchLevel, BranchLevel],
    ops: StepOperators,
    prob: ProblemDef,
    grid: Grid,
    plan: SolvePlan,
    solver: str = SOLVER_SYLVESTER,
) -> tuple[BranchLevel, StepReport]:
    """Advance one level in the branch variables; form U and V once, at the end.

    `levels` holds the levels (n, n-1), each with its image and source: the
    step's index n is the level of `levels[0]`.  The step returns the new
    level n+1, with its image and, when the plan has a step n+1, its source,
    for steps n+1 and n+2; the run's last level keeps source None.  The
    step's shift c_n is row n - 1 of the plan's checked shifts, and the
    Sylvester path solves the branches at that row, shifted by +-c_n.  The
    Kronecker path solves the dense U/V system whose coefficients it reads
    off the same factored pairs (L+-, R+-): W = (L+ + L-)/2,
    R = c_n I + (L+ - L-)/2, W' = (R+ + R-)/2 and S = c_n I + (R+ - R-)/2.
    Both report the plan's margins for step n and the residual of the
    branch equations (`_step_residual`), which on the Kronecker path checks
    BRANCH_SIGNS.  A step outside the plan's rows, or a right-hand side
    that is not finite, raises InvalidSpecError before the solve, naming the
    step or the source that holds NaN/Inf.  The step checks the level it
    forms: one that is not finite raises InvalidSpecError naming level n+1,
    and one whose combined norm exceeds BLOWUP_CAP, read at call time,
    raises BlowUpError with step = n+1; only a level that passes both gets
    its source, so a forcing sample of level n+1 that is not finite is
    named after the solve of step n.
    """
    _check_solver(solver)
    t_start = time.perf_counter()
    n = levels[0].state.level
    if not 1 <= n <= plan.shifts.size:
        raise InvalidSpecError(f"step {n} is outside the plan's steps 1..{plan.shifts.size}")
    c = float(plan.shifts[n - 1])
    C = assemble_rhs(levels, ops, c)
    C_norm = float(np.linalg.norm(C))
    if not math.isfinite(C_norm):  # name the first level whose source is not finite
        for k, S in ((n - 1, levels[1].source), (n, levels[0].source)):
            if not np.isfinite(S).all():
                raise InvalidSpecError(
                    f"explicit source of level {k} (t_{k} = {grid.time(k):.6g}) contains NaN/Inf"
                )
        raise InvalidSpecError(f"the right-hand side of step {n} is not finite")
    rhs_time = time.perf_counter() - t_start
    t_solve = time.perf_counter()
    if solver == SOLVER_SYLVESTER:
        Z = _solve(plan, C, n - 1)
        X, Y = _sum_diff(Z, 0.5)
    else:
        (Ls, Rs), (Ld, Rd) = ((pair.L, pair.R) for pair in plan.pairs)
        I_c = TriDiagMatrix.identity(grid.size, c)
        C1, C2 = _sum_diff(C, 0.5)
        X, Y = kronecker_solve(CoupledProblem(
            W=0.5 * (Ls + Ld),
            R=I_c + 0.5 * (Ls - Ld),
            S=I_c + 0.5 * (Rs - Rd),
            C1=C1,
            C2=C2,
            W_right=0.5 * (Rs + Rd),
        ))
        Z = _sum_diff((X, Y))
    solve_time = time.perf_counter() - t_solve

    t_residual = time.perf_counter()
    KZ = ops.image(Z)
    res = _step_residual(Z, KZ, C, C_norm, ops, c)
    # C is not read past the residual; free it before the new level's source
    # is formed, so the source adds no (2, n, n) plane to the step's peak
    del C
    residual_time = time.perf_counter() - t_residual

    state = CoupledState(Field(X), Field(Y), level=n + 1)
    sup_norm = math.sqrt(0.5) * float(np.linalg.norm(Z))
    if not math.isfinite(sup_norm):  # names the level that is not finite
        state.check_finite()
    if sup_norm > BLOWUP_CAP:
        raise BlowUpError(
            f"blow-up at step {state.level}: ||(U,V)|| = {sup_norm:.3e} > {BLOWUP_CAP:.1e}",
            step=state.level,
            sup_norm=sup_norm,
        )
    t_source = time.perf_counter()
    source = level_source(prob, grid, state) if n < plan.shifts.size else None
    source_time = 0.0 if source is None else time.perf_counter() - t_source
    margins = tuple(plan.margins[n - 1].tolist())
    return BranchLevel(state, Z, KZ, source), StepReport(
        n=n,
        sup_norm=sup_norm,
        residual_coupled=res,
        margin=min(margins),
        margins=margins,
        c=c,
        wall_time=time.perf_counter() - t_start,
        rhs_time=rhs_time,
        solve_time=solve_time,
        residual_time=residual_time,
        source_time=source_time,
    )


def prepare(
    prob: ProblemDef,
    spec: GridSpec | Grid,
    solver: str = SOLVER_SYLVESTER,
    sing_policy: str = SING_LIMIT,
) -> tuple[Grid, StepOperators, SolvePlan]:
    """The setup of a run, in order: its grid, step operators and solve plan.

    First the checks that need no operator: an unknown solver raises
    InvalidSpecError, the grid is built from `spec` (or taken as given) with
    its mesh checks, a run of fewer than two steps raises InvalidSpecError,
    and Method I on a grid above the dense guard raises SizeGuardError
    (`sylvester._check_kronecker_size`, the message `kronecker_solve`
    raises).  Then the step operators are built once, with the axis-node
    treatment `sing_policy` ('zero' drops the singular coefficient, 'limit'
    uses its L'Hopital stencil; see operators.build_operator_set), and
    `plan_solves` factors the branch pairs once and checks every step's
    margin, raising SolvabilityError naming the step before any solve.
    `march` calls it on its first draw and `epdsys validate` runs it alone,
    so both refuse the same runs; a hand loop starts from it.
    """
    _check_solver(solver)
    grid = spec if isinstance(spec, Grid) else build_grid(spec)
    if grid.n_steps < 2:
        raise InvalidSpecError("run needs n_steps >= 2")
    if solver == SOLVER_KRONECKER:
        _check_kronecker_size(grid.size)
    # an operator that overflows is named by `plan_solves`, with no numpy warning first
    with np.errstate(over="ignore", invalid="ignore"):
        opset = build_operator_set(grid, prob.lam, prob.gamma, sing_policy=sing_policy)
        ops = assemble_step_operators(opset, grid)
    return grid, ops, plan_solves(ops, grid, prob.a)


def march(
    prob: ProblemDef,
    spec: GridSpec | Grid,
    solver: str = SOLVER_SYLVESTER,
    sing_policy: str = SING_LIMIT,
) -> Iterator[tuple[CoupledState, StepReport | None]]:
    """Yield the run's levels in order: (state, report) per level, report None for 0 and 1.

    Its setup is `prepare(prob, spec, solver, sing_policy)`: the grid, the
    step operators and the solve plan, built once and checked before the
    first solve; `init_levels` then seeds levels 0 and 1, and `step` forms
    each further level.  Each level's image and source (nonlinearity and
    forcing, `level_source`) are formed once, on its `BranchLevel`, and used
    by every step they enter; the generator threads only the two levels the
    next step reads.  It only sets up, seeds and yields: the function that
    forms a level checks it (a blow-up is `step`'s BlowUpError).  Nothing is
    built or checked until the first level is drawn; drawing it raises what
    `prepare` raises, in its order: an unknown solver, then the mesh and
    the dense guard, before any operator is built, then SolvabilityError.
    It keeps two levels and checks no memory budget; the step count and the
    work are capped by the mesh check (`grid.MAX_STEPS`, `grid.MAX_WORK`).
    """
    grid, ops, plan = prepare(prob, spec, solver, sing_policy)
    level0, level1 = init_levels(prob, grid, ops)
    yield level0.state, None
    yield level1.state, None
    levels = (level1, level0)
    for _ in range(1, grid.n_steps):
        level, report = step(levels, ops, prob, grid, plan, solver=solver)
        levels = (level, levels[0])
        yield level.state, report


def run(
    prob: ProblemDef,
    spec: GridSpec | Grid,
    solver: str = SOLVER_SYLVESTER,
    sing_policy: str = SING_LIMIT,
) -> tuple[list[CoupledState], list[StepReport]]:
    """`march` collected: every level's state, levels 0..n_steps, and every step's report.

    `run` is the one function that keeps the whole trajectory, so it alone
    budgets its memory: after the solver check and the mesh, a trajectory of
    16 (n_steps + 1) (J+2)^2 bytes above MAX_TRAJECTORY_BYTES, read at call
    time, raises InvalidSpecError before any operator is built.  It then
    draws the first level of `march` on its grid at once, so it raises what
    `prepare` raises, in the same order.  The trajectory is one array of
    exactly the budgeted bytes, (n_steps + 1, 2, J+2, J+2), allocated once
    the first level is drawn; each level is copied into it, and the returned
    states' `Field`s are views of it, so keeping any one state keeps the
    whole array.  A caller that folds the levels (`bench.run_convergence`,
    `epdsys solve`, validate's zero-trajectory check) streams them from
    `march` instead, which holds two.  `bench.run_table1` keeps `run`
    because the table1 benchmark captures its reports by wrapping
    `bench.run`.
    """
    _check_solver(solver)
    grid = spec if isinstance(spec, Grid) else build_grid(spec)
    trajectory_bytes = 16 * (grid.n_steps + 1) * grid.size**2
    if trajectory_bytes > MAX_TRAJECTORY_BYTES:
        raise InvalidSpecError(
            f"the trajectory of {grid.n_steps} steps at J={grid.spec.J} would take "
            f"{trajectory_bytes:,} bytes, above the budget {MAX_TRAJECTORY_BYTES:,}"
        )
    levels = march(prob, grid, solver=solver, sing_policy=sing_policy)
    first = next(levels)
    trajectory = np.empty((grid.n_steps + 1, 2, grid.size, grid.size))
    states, reports = [], []
    for plane, (state, report) in zip(trajectory, itertools.chain([first], levels)):
        plane[0], plane[1] = state.U.values, state.V.values
        states.append(CoupledState(Field(plane[0]), Field(plane[1]), state.level))
        reports.append(report)
    return states, reports[2:]


def cfl_guard(grid: Grid, lam: float, gamma: float):
    """Sufficient-stability value 4 sigma C_alpha and whether it is < 1.

    C_alpha = alpha * [4 + h (max_j |lam / x_j| + max_m |gamma / y_m|)] with
    the grid's alpha (`GridSpec.alpha`), the maxima over the nodes off the
    axes (`Grid.singular`).  Both maxima divide by the node nearest 0, and
    rounding is monotone, so |lam| / min|x_j| is the maximum exactly.  The
    bound is sufficient, not necessary: a failing guard is a warning, not an
    error.
    """
    nearest = np.min(np.abs(np.delete(grid.nodes, grid.singular)))
    c_alpha = grid.spec.alpha * (4.0 + grid.h * (abs(lam) / nearest + abs(gamma) / nearest))
    value = 4.0 * grid.sigma * c_alpha
    return value < 1.0, float(value)


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(Er) against log(h).

    Raises InvalidSpecError unless the pairs hold at least two distinct h.
    Returns +inf when some error vanishes (exact reproduction).
    """
    hs = np.array([h for h, _ in errors], dtype=float)
    ers = np.array([er for _, er in errors], dtype=float)
    if np.unique(hs).size < 2:
        raise InvalidSpecError(f"need (h, Er) pairs at two distinct h, got h = {hs.tolist()}")
    if np.any(ers == 0.0):
        return float("inf")
    slope = np.polyfit(np.log(hs), np.log(ers), 1)[0]
    return float(slope)
