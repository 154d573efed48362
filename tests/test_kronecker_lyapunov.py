"""Method I's reduced systems: a mirrored problem with even right-hand sides
is solved on its quadrant, and a branch (L, M) with M = L^T bitwise in
half-vectorized form, its symmetric and skew parts apart, and the skew part
only when the right-hand side is not exactly symmetric."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epdsys.bench import RunConfig, grid_spec_for, manufactured_problem
from epdsys.exceptions import SolvabilityError
from epdsys.operators import TriDiagMatrix
from epdsys.stepper import march, run
from epdsys.sylvester import CoupledProblem, kronecker_solve, residual, solvability_margin

from kronecker_bounds import agreement_bound, coupled_kronecker_matrix


def _transposed_pair(rng, n, banded, symmetric=False):
    """A coupled pair with W_right = W^T and S = R^T: both branches are Lyapunov.

    With `symmetric`, C1 and C2 are exactly symmetric, as at every step of a
    lambda = gamma run."""
    if banded:
        W = TriDiagMatrix(rng.standard_normal(n - 1), 4.0 + rng.standard_normal(n), rng.standard_normal(n - 1))
        R = TriDiagMatrix(*(0.4 * rng.standard_normal(k) for k in (n - 1, n, n - 1)))
    else:
        W = 4.0 * np.eye(n) + rng.standard_normal((n, n))
        R = 0.4 * rng.standard_normal((n, n))
    C1, C2 = rng.standard_normal((2, n, n))
    if symmetric:
        C1, C2 = C1 + C1.T, C2 + C2.T
    return CoupledProblem(W, R, R.T, C1, C2, W_right=W.T)


def _recording_dgesv(monkeypatch):
    """Record the order of every system LAPACK dgesv factors."""
    sizes = []
    original = scipy.linalg.lapack.dgesv

    def recorded(A, *args, **kwargs):
        sizes.append(A.shape[0])
        return original(A, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgesv", recorded)
    return sizes


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8), seed=st.integers(0, 2**32 - 1), banded=st.booleans(),
    symmetric=st.booleans(),
)
def test_transposed_pair_matches_the_dense_coupled_solve(n, seed, banded, symmetric):
    rng = np.random.default_rng(seed)
    p = _transposed_pair(rng, n, banded and n > 1, symmetric)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)
    X, Y = kronecker_solve(p)
    b = np.concatenate([p.C1.ravel(order="F"), p.C2.ravel(order="F")])
    x = np.linalg.solve(coupled_kronecker_matrix(p), b)
    X_ref, Y_ref = (v.reshape((n, n), order="F") for v in np.split(x, 2))
    scale = max(np.abs(X_ref).max(), np.abs(Y_ref).max(), 1.0)
    assert max(np.abs(X - X_ref).max(), np.abs(Y - Y_ref).max()) / scale <= agreement_bound(p)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_transposed_pair_factors_the_half_systems(monkeypatch, rng, n):
    sizes = _recording_dgesv(monkeypatch)
    kronecker_solve(_transposed_pair(rng, n, banded=False))
    # per branch: n(n+1)/2 symmetric unknowns, then n(n-1)/2 skew (none at n = 1)
    half = [n * (n + 1) // 2] + ([n * (n - 1) // 2] if n > 1 else [])
    assert sizes == 2 * half


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symmetric_right_hand_sides_factor_only_the_symmetric_parts(monkeypatch, rng, n):
    sizes = _recording_dgesv(monkeypatch)
    X, Y = kronecker_solve(_transposed_pair(rng, n, banded=False, symmetric=True))
    # per branch: the n(n+1)/2 symmetric unknowns alone; the skew part is exactly 0
    assert sizes == [n * (n + 1) // 2] * 2
    assert np.array_equal(X, X.T) and np.array_equal(Y, Y.T)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_untransposed_pair_factors_the_full_system(monkeypatch, rng, n):
    sizes = _recording_dgesv(monkeypatch)
    p = _transposed_pair(rng, n, banded=False)
    # W_right off W^T in one entry: no branch is Lyapunov
    Wr = p.W.T.copy()
    Wr[0, -1] += 1e-3
    kronecker_solve(CoupledProblem(p.W, p.R, p.S, p.C1, p.C2, W_right=Wr))
    assert sizes == [n * n, n * n]


def _check_method_one_run_sizes(monkeypatch, config, N, half):
    """A Method I run of `config` factors, per step and branch, the symmetric
    part at size N (`half`) or the general system at size N, and no more."""
    prob, _ = manufactured_problem(config)
    sizes = _recording_dgesv(monkeypatch)
    _, reports = run(prob, grid_spec_for(config), solver="kronecker", sing_policy="limit")
    per_step = [N * (N + 1) // 2] * 2 if half else [N * N] * 2
    assert sizes == per_step * len(reports)
    assert max(r.residual_coupled for r in reports) <= 1e-12


@pytest.mark.parametrize(("lam", "gamma", "a", "half"), [(0.25, 0.25, 2.5, True), (0.25, 0.3, 2.6, False)])
def test_stepper_branches_are_lyapunov_exactly_when_lambda_equals_gamma(monkeypatch, lam, gamma, a, half):
    # the centred grid folds n = 11 to its quadrant of 6, and at lambda =
    # gamma every right-hand side is exactly symmetric: no skew system
    _check_method_one_run_sizes(monkeypatch, RunConfig(J=9, lam=lam, gamma=gamma, a=a), 6, half)


@pytest.mark.parametrize(
    ("lam", "gamma", "a", "half"), [(0.25, 0.25, 2.5, True), (0.25, 0.3, 2.6, False)]
)
def test_stepper_branches_on_an_asymmetric_grid_are_not_folded(monkeypatch, lam, gamma, a, half):
    config = RunConfig(J=9, L0=-3.0, L1=7.0, lam=lam, gamma=gamma, a=a)
    _check_method_one_run_sizes(monkeypatch, config, 11, half)


@pytest.mark.parametrize("J", [9, 24])
def test_method_one_levels_are_exactly_symmetric_when_lambda_equals_gamma(J):
    config = RunConfig(J=J)
    assert config.lam == config.gamma
    prob, _ = manufactured_problem(config)
    levels = list(march(prob, grid_spec_for(config), solver="kronecker"))
    assert len(levels) > 2
    for state, _ in levels:
        U, V = state.U.values, state.V.values
        assert np.array_equal(U, U.T) and np.array_equal(V, V.T), state.level


@pytest.mark.parametrize(("lam", "gamma", "a"), [(0.25, 0.25, 2.5), (0.25, 0.3, 2.5)])
def test_method_one_levels_are_exactly_even_on_a_centred_grid(lam, gamma, a):
    config = RunConfig(J=24, lam=lam, gamma=gamma, a=a)
    prob, _ = manufactured_problem(config)
    levels = list(march(prob, grid_spec_for(config), solver="kronecker"))
    assert len(levels) > 2
    for state, _ in levels:
        for F in (state.U.values, state.V.values):
            assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1]), state.level
            assert lam != gamma or np.array_equal(F, F.T), state.level


def _mirror_sum(A):
    """A + A[::-1, ::-1], bitwise equal to its own flip."""
    return A + A[::-1, ::-1]


def _even_sum(C):
    """C summed with its flips, bitwise even in rows and columns."""
    C = C + C[::-1]
    return C + C[:, ::-1]


def _mirrored_pair(rng, n, lyapunov, symmetric=False):
    """A coupled pair whose coefficients commute with the flip and whose
    right-hand sides are even; Lyapunov branches with `lyapunov`."""
    W = 4.0 * np.eye(n) + _mirror_sum(rng.standard_normal((n, n)))
    R = 0.4 * _mirror_sum(rng.standard_normal((n, n)))
    if lyapunov:
        Wr, S = W.T, R.T
    else:
        Wr = 4.0 * np.eye(n) + _mirror_sum(rng.standard_normal((n, n)))
        S = 0.4 * _mirror_sum(rng.standard_normal((n, n)))
    C1, C2 = (_even_sum(C) for C in rng.standard_normal((2, n, n)))
    if symmetric:
        C1, C2 = C1 + C1.T, C2 + C2.T
    return CoupledProblem(W, R, S, C1, C2, W_right=Wr)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1), lyapunov=st.booleans(),
    symmetric=st.booleans(),
)
def test_mirrored_pair_is_folded_and_matches_the_dense_coupled_solve(n, seed, lyapunov, symmetric):
    rng = np.random.default_rng(seed)
    p = _mirrored_pair(rng, n, lyapunov, symmetric)
    assume(solvability_margin(p.W, p.R, p.S, p.W_right) > 1e-6)
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = _recording_dgesv(monkeypatch)
        X, Y = kronecker_solve(p)
    m = (n + 1) // 2
    if not lyapunov:
        assert sizes == [m * m] * 2
    elif symmetric:
        assert sizes == [m * (m + 1) // 2] * 2
    else:
        assert sizes == ([m * (m + 1) // 2] + ([m * (m - 1) // 2] if m > 1 else [])) * 2
    b = np.concatenate([p.C1.ravel(order="F"), p.C2.ravel(order="F")])
    x = np.linalg.solve(coupled_kronecker_matrix(p), b)
    X_ref, Y_ref = (v.reshape((n, n), order="F") for v in np.split(x, 2))
    scale = max(np.abs(X_ref).max(), np.abs(Y_ref).max(), 1.0)
    assert max(np.abs(X - X_ref).max(), np.abs(Y - Y_ref).max()) / scale <= agreement_bound(p)
    for F in (X, Y):
        assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1])


@pytest.mark.parametrize("lyapunov", [True, False])
@pytest.mark.parametrize("where", ["C1", "W"])
def test_one_asymmetric_bit_takes_the_full_path(monkeypatch, rng, lyapunov, where):
    n = 5
    p = _mirrored_pair(rng, n, lyapunov)
    # C2 = 0, so the branches' right-hand sides C1 +- C2 keep C1's last bit
    p = CoupledProblem(p.W, p.R, p.S, p.C1, np.zeros((n, n)), W_right=p.W_right)
    blocks = {"W": np.array(p.W), "C1": p.C1.copy()}
    A = blocks[where]
    A[0, 1] = np.nextafter(A[0, 1], np.inf)  # one bit off the mirror
    Wr = blocks["W"].T if lyapunov else p.W_right
    sizes = _recording_dgesv(monkeypatch)
    kronecker_solve(CoupledProblem(blocks["W"], p.R, p.S, blocks["C1"], p.C2, W_right=Wr))
    full = [n * (n + 1) // 2, n * (n - 1) // 2] if lyapunov else [n * n]
    assert sizes == full * 2
    sizes.clear()
    kronecker_solve(p)
    assert sizes == ([6, 3] if lyapunov else [9]) * 2


def test_mirrored_branch_singular_in_an_odd_mode_is_solved_on_its_even_modes():
    # L = I - u u^T, u = (1, 0, -1)/sqrt(2), commutes with the flip and is
    # singular in u alone, which is odd, so L P + P L^T is singular only in
    # the odd-odd mode u u^T.  The fold solves the even modes, where it is
    # regular, and returns the even solution; the full system is refused, and
    # so is a run's step, by its margin, before any solve.
    L = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    zero = np.zeros((3, 3))
    C = np.ones((3, 3))
    p = CoupledProblem(L, zero, zero, C, C, W_right=L.T)
    assert solvability_margin(p.W, p.R, p.S, p.W_right) <= 1e-15
    X, Y = kronecker_solve(p)
    assert residual(p, (X, Y)) <= 1e-15
    for F in (X, Y):
        assert np.array_equal(F, F[::-1]) and np.array_equal(F, F[:, ::-1])
    odd = C.copy()
    odd[0, 0] = np.nextafter(1.0, 2.0)
    with pytest.raises(SolvabilityError, match=r"singular in the sum branch \(symmetric part\)"):
        kronecker_solve(CoupledProblem(L, zero, zero, odd, odd, W_right=L.T))


def test_singular_lyapunov_branch_is_named():
    # W - R = diag(1, -1, 2): lam_0 + lam_1 = 0 makes the difference branch
    # singular, on its symmetric part; W + R = diag(5, 7, 4) is not
    W, R = 3.0 * np.eye(3), np.diag([2.0, 4.0, 1.0])
    C = np.ones((3, 3))
    with pytest.raises(SolvabilityError, match=r"singular in the diff branch \(symmetric part\)") as err:
        kronecker_solve(CoupledProblem(W, R, R.T, C, C, W_right=W.T))
    assert err.value.branch == "diff"
