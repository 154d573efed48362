"""Method II's quadrant stack: a plan made with `fold` over bitwise-mirrored
tridiagonal pairs also factors each pair restricted to its modes even in
both directions, and `_solve` takes that stack for a right-hand side that is
bitwise even in its rows and columns.  It must agree with the Kronecker
oracle and with the full stack, return an exactly even solution, leave the
margins alone, and give every other right-hand side the full stack's result
bit for bit.  `prepare` folds only a Method II run whose work reaches
`stepper.QUADRANT_MIN_WORK`."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.bench import DEFAULT_BENCH_J, RunConfig, grid_spec_for, manufactured_problem
from epdsys.exceptions import SolvabilityError
from epdsys.operators import BRANCH_SIGNS, TriDiagMatrix
from epdsys.stepper import QUADRANT_MIN_WORK, march, prepare
from epdsys.sylvester import (
    CoupledProblem,
    _factor,
    _fold_band,
    _mirrored,
    _solve,
    _symmetrizer,
    kronecker_solve,
)

from kronecker_bounds import agreement_bound

BRANCHES = tuple(BRANCH_SIGNS)
sizes = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shifts = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def mirrored_band(rng, n, schur=False):
    """A random TriDiagMatrix equal to its flip bitwise (diag[i] = diag[n-1-i],
    sub = sup[::-1]).  Every sub * sup > 0, so it is symmetrizable, unless
    `schur`, which flips the sign of sub[0] (n >= 3) so that it is not."""
    half = 3.0 + rng.standard_normal((n + 1) // 2)
    diag = np.concatenate([half, half[: n // 2][::-1]])
    signs = rng.choice([-1.0, 1.0], n - 1)
    sub = signs * signs[::-1] * rng.uniform(0.5, 1.5, n - 1)
    if schur:
        sub[0] = -sub[0]
    M = TriDiagMatrix(sub=sub, diag=diag, sup=sub[::-1].copy())
    assert _mirrored(M)
    return M


def even(C):
    """C summed with its flips, bitwise even in rows and columns."""
    C = C + C[..., ::-1, :]
    return C + C[..., ::-1]


@st.composite
def mirrored_stacks(draw):
    """A stack of two mirrored pairs (sum, diff), each transposed (R = L^T) or
    not and on either kernel, and a shift; None where the plan refuses it."""
    n, seed, s = draw(sizes), draw(seeds), draw(shifts)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in BRANCHES:
        schur = n >= 3 and draw(st.booleans())
        L = mirrored_band(rng, n, schur)
        R = L.T if draw(st.booleans()) else mirrored_band(rng, n, schur and draw(st.booleans()))
        pairs.append((L, R))
    return n, rng, pairs, s


def plans(pairs, s):
    """The plan of the pairs at shift s with and without its quadrant stack."""
    try:
        return _factor(pairs, BRANCHES, [s], fold=True), _factor(pairs, BRANCHES, [s])
    except SolvabilityError:
        assume(False)


def branch_oracle(L, R, C, s):
    """Method I's solution of (L + s I) X + X (R + s I) = C, as a coupled
    pair with R = S = 0, and the bound two backward-stable solves may part by."""
    n = L.size
    Z, I = np.zeros((n, n)), np.eye(n)
    p = CoupledProblem(W=L.dense() + s * I, R=Z, S=Z, C1=C, C2=C, W_right=R.dense() + s * I)
    return kronecker_solve(p)[0], agreement_bound(p)


@settings(max_examples=120, deadline=None)
@given(stack=mirrored_stacks())
def test_quadrant_solve_of_an_even_rhs_matches_kronecker_and_the_full_stack(stack):
    n, rng, pairs, s = stack
    plan, full = plans(pairs, s)
    m = (n + 1) // 2
    assert plan.quadrant is not None and full.quadrant is None
    assert plan.quadrant.QL.shape == (2, m, m)
    assert plan.quadrant.kernels == plan.kernels
    assert (plan.quadrant.QR is plan.quadrant.QL) == (plan.QR is plan.QL)
    # the margins are the full pairs', bit for bit
    assert np.array_equal(plan.margins, full.margins)
    assert np.array_equal(plan.attaining, full.attaining)
    C = even(rng.standard_normal((2, n, n)))
    X = _solve(plan, C, 0)
    X_full = _solve(full, C, 0)
    assert X.flags.c_contiguous
    assert np.array_equal(X, X[:, ::-1]) and np.array_equal(X, X[:, :, ::-1])
    for (L, R), Xb, Xb_full, sign in zip(pairs, X, X_full, plan.signs.ravel()):
        X_kron, bound = branch_oracle(L, R, C[0] if sign > 0 else C[1], sign * s)
        scale = max(np.abs(X_kron).max(), 1.0)
        assert np.abs(Xb - X_kron).max() / scale <= bound
        assert np.abs(Xb - Xb_full).max() / scale <= bound


@settings(max_examples=80, deadline=None)
@given(stack=mirrored_stacks(), kind=st.sampled_from(["random", "rows only", "one bit off"]))
def test_rhs_that_is_not_even_takes_the_full_stack_bitwise(stack, kind):
    n, rng, pairs, s = stack
    plan, full = plans(pairs, s)
    C = rng.standard_normal((2, n, n))
    if kind == "rows only":
        C = C + C[:, ::-1]
    elif kind == "one bit off":
        C = even(C)
        C[1, 0, -1] = np.nextafter(C[1, 0, -1], np.inf)
    assert np.array_equal(_solve(plan, C, 0), _solve(full, C, 0))


@settings(max_examples=120, deadline=None)
@given(n=sizes, seed=seeds, rows=st.booleans(), schur=st.booleans())
def test_folded_band_keeps_its_kernel_and_its_even_eigenvalues(n, seed, rows, schur):
    # the fold doubles the centre's sub or moves a diagonal entry, so the
    # folded band is symmetrizable exactly when the full one is
    M = mirrored_band(np.random.default_rng(seed), n, schur and n >= 3)
    Me = _fold_band(M, rows)
    assert Me.size == (n + 1) // 2
    assert (_symmetrizer(Me) is None) == (_symmetrizer(M) is None)
    # the folded band is the restriction to even vectors, E^T-folded or folded
    # through E: its eigenvalues are among the full band's
    lams = np.linalg.eigvals(M.dense())
    for mu in np.linalg.eigvals(Me.dense()):
        assert np.abs(lams - mu).min() <= 1e-10 * max(np.abs(lams).max(), 1.0)


def long_spec(config, n_steps):
    """The config's grid spec at its own J, [t0, T] in n_steps steps."""
    l = (config.T - config.t0) / n_steps
    return dataclasses.replace(grid_spec_for(config), n_steps=n_steps, step_rule="independent", l=l)


@pytest.mark.parametrize(("lam", "gamma"), [(0.25, 0.25), (0.25, 0.3)])
def test_method_two_levels_are_exactly_even_on_a_centred_grid(lam, gamma):
    # 120 steps at J = 24 reach QUADRANT_MIN_WORK
    config = RunConfig(J=24, lam=lam, gamma=gamma, a=2.5)
    prob, _ = manufactured_problem(config)
    spec = long_spec(config, 120)
    _, _, plan = prepare(prob, spec)
    assert plan.quadrant is not None and plan.quadrant.QL.shape == (2, 13, 13)
    levels = list(march(prob, spec))
    assert len(levels) == 121
    for state, report in levels:
        for F in (state.U.values, state.V.values):
            assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1]), state.level
        assert report is None or report.residual_coupled <= 1e-14


@pytest.mark.parametrize(("J", "n_steps"), [(24, 119), (24, 120), (49, 15), (49, 16), (99, 2), (99, 3)])
def test_a_run_folds_from_quadrant_min_work_on(J, n_steps):
    config = RunConfig(J=J)
    prob, _ = manufactured_problem(config)
    _, _, plan = prepare(prob, long_spec(config, n_steps))
    assert (plan.quadrant is not None) == (n_steps * (J + 2) ** 3 >= QUADRANT_MIN_WORK)


def test_no_table1_row_is_folded():
    # each row runs one to three steps: the quadrant would not repay its setup
    config = RunConfig(J=49)
    prob, _ = manufactured_problem(config)
    for J in DEFAULT_BENCH_J:
        _, _, plan = prepare(prob, grid_spec_for(config, J))
        assert plan.quadrant is None, J


@pytest.mark.parametrize(
    ("L0", "L1", "solver"), [(-3.0, 7.0, "sylvester"), (-10.0, 10.0, "kronecker")]
)
def test_no_quadrant_stack_off_a_centred_grid_or_for_method_one(L0, L1, solver):
    # the asymmetric grid's bands are not mirrored; Method I reads only the
    # pairs.  Both runs are long enough to fold otherwise
    config = RunConfig(J=24, L0=L0, L1=L1)
    prob, _ = manufactured_problem(config)
    _, _, plan = prepare(prob, long_spec(config, 120), solver=solver)
    assert plan.quadrant is None
