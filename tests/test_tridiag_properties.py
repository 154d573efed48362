"""Property tests: the banded step operators against their dense forms.

TriDiagMatrix coefficients pass unchanged through CoupledProblem, the
Sylvester solver and the residual; these checks tie every banded path to
dense matrix products and to the Kronecker oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.exceptions import InvalidSpecError
from epdsys.operators import TriDiagMatrix
from epdsys.sylvester import (
    CoupledProblem,
    SylvesterProblem,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_coupled,
    solve_sylvester,
)

sizes = st.integers(min_value=2, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_tridiag(rng, n, scale=1.0, shift=0.0):
    return TriDiagMatrix(
        sub=scale * rng.standard_normal(n - 1),
        diag=shift + scale * rng.standard_normal(n),
        sup=scale * rng.standard_normal(n - 1),
    )


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds)
def test_banded_products_equal_dense(n, seed):
    rng = np.random.default_rng(seed)
    M = random_tridiag(rng, n)
    X = rng.standard_normal((n, n))
    D = M.dense()
    assert np.allclose(M @ X, D @ X, rtol=1e-14, atol=1e-14)
    assert np.allclose(X @ M, X @ D, rtol=1e-14, atol=1e-14)
    assert np.allclose(X @ M.T, X @ D.T, rtol=1e-14, atol=1e-14)
    assert np.array_equal(np.asarray(M), D)


@settings(max_examples=60, deadline=None)
@given(n=sizes, seed=seeds)
def test_banded_coupled_solve_matches_kronecker(n, seed):
    rng = np.random.default_rng(seed)
    W = random_tridiag(rng, n, shift=1.0)
    R = random_tridiag(rng, n, scale=0.4)
    S = random_tridiag(rng, n, scale=0.4)
    assume(solvability_margin(W, R, S, W.T) > 1e-6)
    p = CoupledProblem(
        W, R, S, rng.standard_normal((n, n)), rng.standard_normal((n, n)), W_right=W.T
    )
    X1, Y1 = solve_coupled(p)
    X2, Y2 = kronecker_solve(p)
    scale = max(np.abs(X2).max(), np.abs(Y2).max(), 1.0)
    assert max(np.abs(X1 - X2).max(), np.abs(Y1 - Y2).max()) / scale <= 1e-10
    assert residual(p, (X1, Y1)) <= 1e-9
    # a dense coefficient of the same size mixes in
    mixed = CoupledProblem(W, R.dense(), S, p.C1, p.C2, W_right=W.T)
    X3, Y3 = solve_coupled(mixed)
    assert max(np.abs(X3 - X2).max(), np.abs(Y3 - Y2).max()) / scale <= 1e-10


@settings(max_examples=30, deadline=None)
@given(n=sizes, other=sizes, seed=seeds)
def test_mixed_sizes_rejected(n, other, seed):
    assume(n != other)
    rng = np.random.default_rng(seed)
    W = random_tridiag(rng, n, shift=1.0)
    dense = rng.standard_normal((other, other))
    C = rng.standard_normal((n, n))
    with pytest.raises(InvalidSpecError):
        CoupledProblem(W, dense, W, C, C)
    with pytest.raises(InvalidSpecError):
        SylvesterProblem(W, dense, C)


def test_tridiag_and_dense_left_coefficient_agree(rng):
    # a TriDiagMatrix left coefficient and its dense copy give the same X
    n = 6
    L = random_tridiag(rng, n, shift=3.0)
    R = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    C = rng.standard_normal((n, n))
    X_banded = solve_sylvester(SylvesterProblem(L, R, C))
    X_dense = solve_sylvester(SylvesterProblem(L.dense(), R, C))
    assert np.allclose(X_banded, X_dense, atol=1e-12)
