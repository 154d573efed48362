"""Property tests for the real-Schur Bartels-Stewart kernel.

The coefficients carry complex-conjugate eigenvalue pairs, so their real
Schur forms contain 2 x 2 diagonal blocks; the kernel must solve through
them, report the same margin as solvability_margin and name a pair that
sits on a common spectrum.  The factor-once solver, shifted by a random s,
must agree with factoring the shifted pair afresh and with the Kronecker
oracle, and a shift that puts a pair on a common spectrum must raise.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.exceptions import SolvabilityError
from epdsys.grid import GridSpec, build_grid
from epdsys.operators import (
    BRANCH_SIGNS, SING_LIMIT, TriDiagMatrix, build_operator_set,
)
from epdsys.sylvester import (
    CoupledProblem,
    SylvesterProblem,
    _branch_pairs,
    _factor,
    _solve,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_coupled,
    solve_sylvester,
)

sizes = st.integers(min_value=2, max_value=10)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shifts = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def with_complex_pairs(rng, n, shift=0.0, first_pair=None):
    """A non-normal real n x n matrix with n // 2 complex-conjugate eigenvalue pairs.

    It is orthogonally similar to a block upper triangular matrix whose
    diagonal blocks [[re, im], [-im, re]] carry the pairs re +- i im;
    `first_pair` fixes (re, im) of the first block.
    """
    D = 0.3 * np.triu(rng.standard_normal((n, n)), k=2)
    for k in range(0, n - 1, 2):
        re, im = shift + rng.standard_normal(), 0.5 + rng.random()
        if k == 0 and first_pair is not None:
            re, im = first_pair
        D[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
    if n % 2:
        D[-1, -1] = shift + rng.standard_normal()
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ D @ Q.T


def has_2x2_block(M):
    T, _ = scipy.linalg.schur(M)
    return bool(np.any(np.diag(T, -1) != 0.0))


def coupled_factors(W, R, S, W_right, shifts=(0.0,)):
    """The plan `solve_coupled` makes of the (sum, diff) pairs (W + s R, Wr + s S),
    at `shifts` (`solve_coupled` takes shift 0)."""
    return _factor(_branch_pairs(W, R, S, W_right), tuple(BRANCH_SIGNS), shifts)


def coupled_from_branches(sum_left, sum_right, diff_left, diff_right, C1, C2):
    """The coupled problem whose decoupled branches have the given coefficients."""
    W, R = 0.5 * (sum_left + diff_left), 0.5 * (sum_left - diff_left)
    Wr, S = 0.5 * (sum_right + diff_right), 0.5 * (sum_right - diff_right)
    return CoupledProblem(W, R, S, C1, C2, W_right=Wr)


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds)
def test_complex_pair_coupled_solve_matches_kronecker(n, seed):
    rng = np.random.default_rng(seed)
    branches = [with_complex_pairs(rng, n, shift=1.0) for _ in range(4)]
    p = coupled_from_branches(
        *branches, rng.standard_normal((n, n)), rng.standard_normal((n, n))
    )
    assert all(has_2x2_block(M) for M in (p.W + p.R, p.W_right + p.S, p.W - p.R, p.W_right - p.S))
    reference = solvability_margin(p.W, p.R, p.S, p.W_right)
    assume(reference > 1e-6)

    X1, Y1 = solve_coupled(p)
    margin = coupled_factors(p.W, p.R, p.S, p.W_right).margins.min()
    assert margin == pytest.approx(reference, rel=1e-10)
    X2, Y2 = kronecker_solve(p)
    scale = max(np.abs(X2).max(), np.abs(Y2).max(), 1.0)
    assert max(np.abs(X1 - X2).max(), np.abs(Y1 - Y2).max()) / scale <= 1e-10
    assert residual(p, (X1, Y1)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds)
def test_complex_pair_on_common_spectrum_is_named(n, seed):
    # the difference branch gets re + i im on the left and -re - i im on the right
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal(), 0.5 + rng.random()
    diff_left = with_complex_pairs(rng, n, first_pair=(re, im))
    diff_right = with_complex_pairs(rng, n, first_pair=(-re, im))
    sum_left, sum_right = (with_complex_pairs(rng, n, shift=4.0) for _ in range(2))
    C = rng.standard_normal((n, n))
    p = coupled_from_branches(sum_left, sum_right, diff_left, diff_right, C, C)
    with pytest.raises(SolvabilityError) as err:
        solve_coupled(p)
    assert err.value.branch == "diff"
    lam, mu = err.value.pair
    assert abs(lam + mu) <= 1e-12 * max(1.0, abs(lam))
    assert abs(lam.imag) == pytest.approx(im, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds, s=shifts)
def test_shifted_factors_match_fresh_factorization_and_kronecker(n, seed, s):
    rng = np.random.default_rng(seed)
    L0 = with_complex_pairs(rng, n, shift=rng.standard_normal())
    R0 = with_complex_pairs(rng, n, shift=rng.standard_normal())
    C = rng.standard_normal((n, n))
    I = np.eye(n)
    Z = np.zeros((n, n))
    # the single equation as a coupled pair with R = S = 0
    p = CoupledProblem(W=L0 + s * I, R=Z, S=Z, C1=C, C2=C, W_right=R0 + s * I)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)

    f = _factor([(L0, R0)], shifts=[s])
    X = _solve(f, C[None], 0)[0]
    fresh = _factor([(L0 + s * I, R0 + s * I)])
    (X_fresh,) = _solve(fresh, C[None], 0)
    margin_fresh = fresh.margins[0, 0]
    X_kron, _ = kronecker_solve(p)
    scale = max(np.abs(X_kron).max(), 1.0)
    assert np.abs(X - X_fresh).max() / scale <= 1e-10
    assert np.abs(X - X_kron).max() / scale <= 1e-10
    assert f.margins[0, 0] == pytest.approx(margin_fresh, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds, c=shifts)
def test_shifted_coupled_margins_match_fresh_factorization(n, seed, c):
    rng = np.random.default_rng(seed)
    W, Wr, R0, S0 = (with_complex_pairs(rng, n, shift=1.0) for _ in range(4))
    I = np.eye(n)
    R, S = R0 + c * I, S0 + c * I
    reference = (
        solvability_margin(W + R, np.zeros((n, n)), np.zeros((n, n)), Wr + S),
        solvability_margin(W - R, np.zeros((n, n)), np.zeros((n, n)), Wr - S),
    )
    assume(min(reference) > 1e-6)
    shifted = tuple(coupled_factors(W, R0, S0, Wr, [c]).margins[0])
    assert shifted == pytest.approx(reference, rel=1e-10)
    margin = coupled_factors(W, R, S, Wr).margins.min()
    assert margin == pytest.approx(min(reference), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(n=sizes, seed=seeds, step=st.integers(min_value=1, max_value=500))
def test_shift_onto_a_pair_is_named(n, seed, step):
    # L0 carries re1 +- i im and R0 re2 -+ i im: their sum re1 + re2 is real,
    # so the shift s = -(re1 + re2) / 2 puts that pair on a common spectrum
    rng = np.random.default_rng(seed)
    re1, re2, im = rng.standard_normal(), rng.standard_normal(), 0.5 + rng.random()
    L0 = with_complex_pairs(rng, n, first_pair=(re1, im))
    R0 = with_complex_pairs(rng, n, first_pair=(re2, im))
    s = -0.5 * (re1 + re2)
    with pytest.raises(SolvabilityError) as err:
        _factor([(L0, R0)], ("diff",), [-s], [step])  # the difference branch is shifted by -c
    assert err.value.branch == "diff"
    assert err.value.step == step
    # the pair is named as eigenvalues of the shifted coefficients
    lam, mu = err.value.pair
    assert abs(lam + mu) <= 1e-12 * max(1.0, abs(lam))
    assert lam.real - s == pytest.approx(re1, abs=1e-10)
    assert abs(lam.imag) == pytest.approx(im, rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds, J=st.sampled_from([1, 3, 5, 7, 9]),
    lam=st.floats(min_value=0.51, max_value=0.99), gamma=st.floats(min_value=0.51, max_value=0.99),
    c=st.floats(min_value=0.0, max_value=0.25),
)
def test_mixed_kernel_stack_matches_kronecker_and_single_solves(seed, J, lam, gamma, c):
    # on a grid with an axis node under `limit`, 1/2 < lam, gamma < 1 gives
    # a diagonal sum branch and a Schur difference branch in one stack
    rng = np.random.default_rng(seed)
    grid = build_grid(
        GridSpec(L0=-1.0, L1=1.0, J=J, step_rule="independent", l=0.1 * rng.uniform(0.1, 1))
    )
    assert grid.singular.size == 1
    opset = build_operator_set(grid, lam, gamma, SING_LIMIT)
    n, w = grid.size, 0.25 * grid.sigma
    W = 0.5 * TriDiagMatrix.identity(n) - w * opset.A
    kTheta, kLambda = (w * grid.h) * opset.Theta, (w * grid.h) * opset.Lambda
    I_c = TriDiagMatrix.identity(n, c)
    C1, C2 = rng.standard_normal((2, n, n))
    p = CoupledProblem(W=W, R=I_c - kTheta, S=I_c - kLambda, C1=C1, C2=C2, W_right=W.T)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)
    F = coupled_factors(W, -1.0 * kTheta, -1.0 * kLambda, W.T, [c])
    assert F.kernels == ("diagonal", "schur")

    C = np.stack((C1 + C2, C1 - C2))
    Z = _solve(F, C, 0)
    X_kron, Y_kron = kronecker_solve(p)
    scale = max(np.abs(X_kron).max(), np.abs(Y_kron).max(), 1.0)
    X, Y = 0.5 * (Z[0] + Z[1]), 0.5 * (Z[0] - Z[1])
    assert max(np.abs(X - X_kron).max(), np.abs(Y - Y_kron).max()) / scale <= 1e-10
    # each slice against a stack of one on the same kernel
    for b, (pair, sign) in enumerate(zip(F.pairs, BRANCH_SIGNS.values())):
        I_s = TriDiagMatrix.identity(n, sign * c)
        L, R = pair.L + I_s, pair.R + I_s
        assert _factor([(L, R)]).kernels == (pair.kernel,)
        single = solve_sylvester(SylvesterProblem(L, R, C[b]))
        assert np.abs(Z[b] - single).max() / max(np.abs(single).max(), 1.0) <= 1e-10
