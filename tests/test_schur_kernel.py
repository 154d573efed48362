"""Property tests for the real-Schur Bartels-Stewart kernel.

The coefficients carry complex-conjugate eigenvalue pairs, so their real
Schur forms contain 2 x 2 diagonal blocks; the kernel must solve through
them, report the same margin as solvability_margin and name a pair that
sits on a common spectrum.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.exceptions import SolvabilityError
from epdsys.sylvester import (
    CoupledProblem,
    _solve_coupled,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_coupled,
)

sizes = st.integers(min_value=2, max_value=10)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


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

    X1, Y1, margin = _solve_coupled(p)
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
