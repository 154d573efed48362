"""Property tests for the diagonal (fast diagonalization) kernel.

A tridiagonal coefficient whose off-diagonal products sub * sup are all
positive (or whose sub and sup vanish together) is diagonally similar to a
symmetric tridiagonal, so the factor-once solver diagonalizes it with one
`numpy.linalg.eigh`.  Shifted by a random s, that kernel must agree with the
Schur kernel and the Kronecker oracle and report the same margin as
`solvability_margin`; a pair with one row off that condition, and the
step operators of a run with h max |lam_j| >= 1, must take the Schur kernel.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epdsys.bench import RunConfig, grid_spec_for, manufactured_problem
from epdsys.grid import build_grid
from epdsys.operators import TriDiagMatrix, assemble_step_operators, build_operator_set
from epdsys.stepper import plan_solves, run
from epdsys.sylvester import (
    CoupledProblem,
    SylvesterProblem,
    _factor,
    _Pair,
    _shifted_minima,
    _solve,
    _symmetrizer,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_sylvester,
)

from kronecker_bounds import agreement_bound

sizes = st.integers(min_value=2, max_value=10)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shifts = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def symmetrizable(rng, n, shift=0.0, zero_rows=0):
    """A random tridiagonal with sub * sup > 0 except `zero_rows` rows with sub = sup = 0."""
    signs = rng.choice([-1.0, 1.0], n - 1)
    sub = signs * rng.uniform(0.5, 2.0, n - 1)
    sup = signs * rng.uniform(0.5, 2.0, n - 1)
    zero = rng.choice(n - 1, size=min(zero_rows, n - 1), replace=False)
    sub[zero] = sup[zero] = 0.0
    return TriDiagMatrix(sub=sub, diag=shift + rng.standard_normal(n), sup=sup)


def shifted_problem(L, R, C, s):
    """L X + X R = C shifted by s, as a coupled pair with R = S = 0."""
    n = L.size
    Z = np.zeros((n, n))
    I = np.eye(n)
    return CoupledProblem(W=L.dense() + s * I, R=Z, S=Z, C1=C, C2=C, W_right=R.dense() + s * I)


@settings(max_examples=80, deadline=None)
@given(
    n=sizes, seed=seeds, s=shifts, zero_rows=st.integers(min_value=0, max_value=2),
    transposed=st.booleans(),
)
def test_diagonal_kernel_matches_schur_and_kronecker(n, seed, s, zero_rows, transposed):
    # the transposed pair (L, L^T) shares one eigh: its QR is QL
    rng = np.random.default_rng(seed)
    L = symmetrizable(rng, n, rng.standard_normal(), zero_rows)
    R = L.T if transposed else symmetrizable(rng, n, rng.standard_normal())
    C = rng.standard_normal((n, n))
    p = shifted_problem(L, R, C, s)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)

    f = _factor([(L, R)], shifts=[s])
    assert f.kernels == ("diagonal",)
    assert (f.QR is f.QL) == transposed
    X = _solve(f, C[None], 0)[0]
    (X_schur,) = _solve(_factor([(p.W, p.W_right)]), C[None], 0)
    X_kron, _ = kronecker_solve(p)
    scale = max(np.abs(X_kron).max(), 1.0)
    bound = agreement_bound(p)
    assert np.abs(X - X_schur).max() / scale <= bound
    assert np.abs(X - X_kron).max() / scale <= bound


@settings(max_examples=80, deadline=None)
@given(n=sizes, seed=seeds, s=shifts)
def test_diagonal_margin_matches_solvability_margin(n, seed, s):
    rng = np.random.default_rng(seed)
    L, R = (symmetrizable(rng, n, rng.standard_normal()) for _ in range(2))
    p = shifted_problem(L, R, np.eye(n), s)
    reference = solvability_margin(p.W, p.R, p.S, p.W_right)
    assume(reference > 1e-6)
    f = _factor([(L, R)], shifts=[s])
    assert f.kernels == ("diagonal",)
    assert f.margins[0, 0] == pytest.approx(reference, rel=1e-10)


def clustered_spectrum(rng, size, centres):
    """Ascending values within a few ulps of `centres`, so that shifted sums tie and round."""
    v = rng.choice(centres, size)
    return np.sort(v + rng.integers(-3, 4, size) * np.spacing(v))


@settings(max_examples=200, deadline=None)
@given(
    n=sizes, m=sizes, seed=seeds,
    centres=st.lists(
        st.sampled_from([-1.5, -1.0, -0.3, 0.0, 0.3, 0.7, 1.0, 2.0]), min_size=1, max_size=3
    ),
    s=st.lists(
        st.one_of(shifts, st.sampled_from([0.0, 2.0**-53, 1e-17, 1 / 3])), min_size=1, max_size=8
    ),
)
# the denominators on both sides of -2 s tie at 2^-52, where the shifted
# pair's own sum (lam + s) + (mu + s) reads 0
@example(n=1, m=4, seed=0, centres=[], s=[2.0**-53])
def test_margin_schedule_equals_the_full_table(n, m, seed, centres, s):
    # the schedule evaluates the sorted sums next to -2 s only; its margins
    # must be bitwise the smallest denominator of the full n x m table
    if centres:
        rng = np.random.default_rng(seed)
        lams = clustered_spectrum(rng, n, centres)
        mus = clustered_spectrum(rng, m, [-c for c in centres])
    else:
        lams = np.array([3.0000000000000013])
        mus = np.array(
            [-3.0000000000000018, -3.0000000000000018, -3.0000000000000013, -2.999999999999998]
        )
    pair = _Pair(L=None, R=None, TL=None, TR=None, lams=lams, mus=mus, branch=None)
    s = np.array(s)
    sums = np.add.outer(lams, mus)
    margins, attaining = _shifted_minima(pair, sums, s)
    for k, sk in enumerate(s):
        assert margins[k] == np.abs(sums + 2 * sk).min()
        # the attaining pair is a shifted pair whose denominator is the margin
        lam, mu = attaining[k]
        i, j = np.flatnonzero(lams + sk == lam.real), np.flatnonzero(mus + sk == mu.real)
        assert margins[k] in np.abs(sums[np.ix_(i, j)] + 2 * sk)


@settings(max_examples=40, deadline=None)
@given(
    n=sizes, seed=seeds, row=st.integers(min_value=0, max_value=8), s=shifts,
    flaw=st.sampled_from([-1.0, 0.0]),
)
# cond(K) = 2.6e6: the kernels part by 7.2e-10, above a fixed 1e-10
@example(n=7, seed=208, row=0, s=-0.15526895132308116, flaw=0.0)
def test_one_row_off_the_condition_takes_the_schur_kernel(n, seed, row, s, flaw):
    # flaw -1: sub * sup < 0 on one row; flaw 0: sub = 0 but sup != 0 there
    rng = np.random.default_rng(seed)
    L = symmetrizable(rng, n, rng.standard_normal())
    R = symmetrizable(rng, n, rng.standard_normal())
    L.sub[row % (n - 1)] *= flaw
    C = rng.standard_normal((n, n))
    p = shifted_problem(L, R, C, s)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)

    f = _factor([(L, R)], shifts=[s])
    assert f.kernels == ("schur",)
    X_kron, _ = kronecker_solve(p)
    scale = max(np.abs(X_kron).max(), 1.0)
    assert np.abs(_solve(f, C[None], 0)[0] - X_kron).max() / scale <= agreement_bound(p)


def test_dense_coefficients_take_the_schur_kernel(rng):
    L = symmetrizable(rng, 6, 3.0)
    assert _factor([(L.dense(), L.T)]).kernels == ("schur",)
    assert _factor([(L, L.T)]).kernels == ("diagonal",)


def test_overflowing_symmetrizer_takes_the_schur_kernel(rng):
    # sub * sup = 1e-300 > 0 on every row, but the scaling d_i = (sup / sub)^(i/2)
    # = 10^(150 i) overflows at i = 3 (and underflows to 0 for the transpose)
    n = 4
    L = TriDiagMatrix(sub=np.full(n - 1, 1e-300), diag=np.arange(1.0, n + 1), sup=np.ones(n - 1))
    assert _symmetrizer(L) is None and _symmetrizer(L.T) is None
    assert _factor([(L, L.T)]).kernels == ("schur",)
    p = SylvesterProblem(L, L.T, rng.standard_normal((n, n)))
    assert residual(p, solve_sylvester(p)) <= 1e-14


def test_run_past_the_cell_peclet_bound_takes_the_schur_kernel(monkeypatch):
    # lam = gamma = 1.5 at J = 9 gives h max |lam_j| = 1.5: off-diagonal
    # products of both branch pairs change sign, so neither is symmetrizable
    config = RunConfig(J=9, lam=1.5, gamma=1.5)
    spec = grid_spec_for(config)
    grid = build_grid(spec)
    nearest = np.abs(np.delete(grid.nodes, grid.singular)).min()
    assert grid.h * config.lam / nearest >= 1.0
    opset = build_operator_set(grid, config.lam, config.gamma, sing_policy="limit")
    ops = assemble_step_operators(opset, grid)
    assert plan_solves(ops, grid, config.a, fold=False).kernels == ("schur", "schur")

    eigh_calls = []
    original = np.linalg.eigh
    monkeypatch.setattr(
        np.linalg, "eigh",
        lambda *args, **kwargs: eigh_calls.append(1) or original(*args, **kwargs),
    )
    prob, _ = manufactured_problem(config)
    _, reports = run(prob, spec, sing_policy="limit")
    assert eigh_calls == []
    assert max(r.residual_coupled for r in reports) <= 1e-13
