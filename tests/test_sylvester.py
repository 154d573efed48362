import tracemalloc

import numpy as np
import pytest

import epdsys.sylvester

from epdsys.exceptions import InvalidSpecError, SizeGuardError, SolvabilityError
from epdsys.operators import TriDiagMatrix
from epdsys.sylvester import (
    KRONECKER_MAX_BYTES,
    KRONECKER_MAX_SIZE,
    CoupledProblem,
    SylvesterProblem,
    kronecker_solve,
    residual,
    solvability_margin,
    solve_coupled,
    solve_sylvester,
)
from kronecker_bounds import coupled_kronecker_matrix


def test_half_identity_coefficients_reduce_to_identity(rng):
    C = rng.standard_normal((5, 5))
    p = SylvesterProblem(0.5 * np.eye(5), 0.5 * np.eye(5), C)
    assert np.allclose(solve_sylvester(p), C, atol=1e-14)


def test_diagonal_closed_form():
    p = SylvesterProblem(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.ones((2, 2)))
    X = solve_sylvester(p)
    assert np.allclose(X, [[0.25, 0.2], [0.2, 1.0 / 6.0]], atol=1e-14)


def test_common_spectrum_rejected():
    p = SylvesterProblem(np.array([[1.0]]), np.array([[-1.0]]), np.array([[2.0]]))
    with pytest.raises(SolvabilityError) as err:
        solve_sylvester(p)
    assert err.value.pair is not None


def test_dense_left_coefficient_fallback(rng):
    # non-tridiagonal L exercises the double-Schur path; verify by residual
    n = 7
    L = rng.standard_normal((n, n)) + 3 * np.eye(n)
    R = rng.standard_normal((n, n)) + 3 * np.eye(n)
    C = rng.standard_normal((n, n))
    X = solve_sylvester(SylvesterProblem(L, R, C))
    assert np.linalg.norm(L @ X + X @ R - C) / np.linalg.norm(C) < 1e-12


def test_solve_residual_contract(rng):
    for n in (1, 2, 3, 8, 15):
        L = np.diag(2.0 + rng.random(n))
        L[np.arange(n - 1), np.arange(1, n)] = 0.3 * rng.standard_normal(n - 1)
        L[np.arange(1, n), np.arange(n - 1)] = 0.3 * rng.standard_normal(n - 1)
        R = np.diag(2.0 + rng.random(n))
        C = rng.standard_normal((n, n))
        p = SylvesterProblem(L, R, C)
        X = solve_sylvester(p)
        assert residual(p, X) <= 1e-10


def test_coupled_scalar_system():
    M = np.arange(9.0).reshape(3, 3) - 4.0
    p = CoupledProblem(np.eye(3), 0.5 * np.eye(3), 0.5 * np.eye(3), M, -M)
    X, Y = solve_coupled(p)
    assert np.allclose(X, M, atol=1e-12)
    assert np.allclose(Y, -M, atol=1e-12)


def test_coupled_zero_rhs_gives_zero():
    Z = np.zeros((4, 4))
    p = CoupledProblem(np.eye(4), 0.3 * np.eye(4), 0.2 * np.eye(4), Z, Z)
    X, Y = solve_coupled(p)
    assert np.all(X == 0.0) and np.all(Y == 0.0)


def test_coupled_branch_failure_is_named():
    # W - R singular in the difference branch: W = I, R = S = I
    M = np.ones((2, 2))
    p = CoupledProblem(np.eye(2), np.eye(2), np.eye(2), M, -M)
    with pytest.raises(SolvabilityError) as err:
        solve_coupled(p)
    assert err.value.branch == "diff"


def test_kronecker_size_one():
    p = CoupledProblem(
        np.array([[2.0]]), np.array([[0.0]]), np.array([[0.0]]),
        np.array([[8.0]]), np.array([[4.0]]),
    )
    X, Y = kronecker_solve(p)
    assert X[0, 0] == pytest.approx(2.0)
    assert Y[0, 0] == pytest.approx(1.0)
    Xs, Ys = solve_coupled(p)
    assert np.allclose(Xs, X) and np.allclose(Ys, Y)


def test_kronecker_size_guard(monkeypatch):
    # kronecker_solve reads the guard at call time
    monkeypatch.setattr(epdsys.sylvester, "KRONECKER_MAX_SIZE", 5)
    n = 6
    Z = np.zeros((n, n))
    p = CoupledProblem(np.eye(n), Z, Z, Z, Z)
    with pytest.raises(SizeGuardError, match="size 6 > guard 5"):
        kronecker_solve(p)


def test_kronecker_byte_budget(monkeypatch):
    # arithmetic only: the largest admitted size's branch system fits the
    # budget, one more does not; the guard stays at J <= 74
    n = KRONECKER_MAX_SIZE
    assert n == 76
    assert 8 * (n * n) ** 2 <= KRONECKER_MAX_BYTES
    assert 8 * ((n + 1) ** 2) ** 2 > KRONECKER_MAX_BYTES

    def no_allocation(*args, **kwargs):
        raise AssertionError("the guard must refuse before building the system")

    monkeypatch.setattr(np, "zeros", no_allocation)
    I = np.eye(n + 1)
    with pytest.raises(SizeGuardError, match="bytes"):
        kronecker_solve(CoupledProblem(I, I, I, I, I))


def test_kronecker_peak_memory_is_the_system_matrix(rng):
    # both branch systems are filled and factored in one 8 n^4-byte buffer:
    # no kron temporaries, no second buffer and no copy for LAPACK
    n = 20
    T = TriDiagMatrix(rng.standard_normal(n - 1), 4.0 + rng.standard_normal(n), rng.standard_normal(n - 1))
    p = CoupledProblem(T, 0.1 * T, 0.1 * T.T, rng.standard_normal((n, n)), rng.standard_normal((n, n)), T.T)
    # the first solve in a process imports scipy.linalg, which is not the solve's memory
    kronecker_solve(p)
    tracemalloc.start()
    try:
        X, Y = kronecker_solve(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n**4
    assert residual(p, (X, Y)) <= 1e-13


def test_singular_kronecker_system_is_named():
    n = 3
    Z = np.zeros((n, n))
    with pytest.raises(SolvabilityError, match="Kronecker system singular"):
        kronecker_solve(CoupledProblem(Z, Z, Z, np.ones((n, n)), np.ones((n, n))))


def test_singular_difference_branch_is_named():
    # W = R and W_right = S: the difference branch's system is exactly zero
    I = np.eye(3)
    M = np.ones((3, 3))
    with pytest.raises(SolvabilityError, match="Kronecker system singular") as err:
        kronecker_solve(CoupledProblem(I, I, I, M, -M))
    assert err.value.branch == "diff"


@pytest.mark.parametrize("banded", [False, True])
def test_kronecker_solve_solves_the_coupled_kronecker_system(rng, banded):
    # Method I solves the branches apart; its (X, Y) must solve the paper's
    # 2 n^2 system in both unknowns
    def coefficient(n, diag, scale):
        if banded:
            sub, sup = (scale * rng.standard_normal(n - 1) for _ in range(2))
            return TriDiagMatrix(sub, diag + scale * rng.standard_normal(n), sup)
        return diag * np.eye(n) + scale * rng.standard_normal((n, n))

    for n in range(1, 9):
        for _ in range(5):
            W, Wr = coefficient(n, 4.0, 1.0), coefficient(n, 4.0, 1.0)
            R, S = coefficient(n, 0.0, 0.4), coefficient(n, 0.0, 0.4)
            C1, C2 = rng.standard_normal((2, n, n))
            p = CoupledProblem(W, R, S, C1, C2, W_right=Wr)
            X, Y = kronecker_solve(p)
            K = coupled_kronecker_matrix(p)
            x = np.concatenate([X.ravel(order="F"), Y.ravel(order="F")])
            b = np.concatenate([C1.ravel(order="F"), C2.ravel(order="F")])
            assert np.linalg.norm(K @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_oracle_equivalence_random(rng):
    accepted = 0
    worst = 0.0
    while accepted < 50:
        n = int(rng.integers(2, 9))
        W = rng.standard_normal((n, n))
        Wr = rng.standard_normal((n, n))
        R = 0.4 * rng.standard_normal((n, n))
        S = 0.4 * rng.standard_normal((n, n))
        if solvability_margin(W, R, S, Wr) <= 1e-6:
            continue
        accepted += 1
        p = CoupledProblem(W, R, S, rng.standard_normal((n, n)), rng.standard_normal((n, n)), W_right=Wr)
        X1, Y1 = solve_coupled(p)
        X2, Y2 = kronecker_solve(p)
        scale = max(np.abs(X2).max(), np.abs(Y2).max(), 1.0)
        worst = max(worst, np.abs(X1 - X2).max() / scale, np.abs(Y1 - Y2).max() / scale)
    assert worst <= 1e-10


def test_decoupling_identity(rng):
    n = 6
    W = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    p = CoupledProblem(
        W, 0.2 * rng.standard_normal((n, n)), 0.2 * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)), rng.standard_normal((n, n)), W_right=W.T,
    )
    X, Y = solve_coupled(p)
    assert residual(p, (X, Y)) <= 1e-10


def test_residual_sees_a_fault_in_the_decoupling(rng, monkeypatch):
    # residual evaluates the pair's own two equations, not the branches that
    # solve_coupled decouples it into, so a wrong decoupling shows there and
    # solve_coupled, which checks that residual, refuses its solution
    n = 6
    W = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    p = CoupledProblem(
        W, 0.2 * rng.standard_normal((n, n)), 0.2 * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)), rng.standard_normal((n, n)), W_right=W.T,
    )
    assert residual(p, solve_coupled(p)) <= 1e-13
    monkeypatch.setattr(
        epdsys.sylvester, "_branch_pairs",
        lambda W, R, S, W_right: tuple((W + s * R, W_right - s * S) for s in (1.0, -1.0)),
    )
    with pytest.raises(SolvabilityError, match=r"relative residual \S+ is not <= 1\.0e-08"):
        solve_coupled(p)


@pytest.mark.parametrize("n", [60, 100, 170])
def test_standalone_solve_refuses_a_residual_above_the_bound(rng, n):
    # L = tridiag(0.1, 5, 10) is symmetrizable with eigenvalue sums in [6, 14],
    # but its symmetrizer spans 10^n, so the transforms lose every digit:
    # the residual is about 1e98 at n = 60, inf at n = 100 and NaN at n = 170
    L = TriDiagMatrix(sub=np.full(n - 1, 0.1), diag=np.full(n, 5.0), sup=np.full(n - 1, 10.0))
    p = SylvesterProblem(L, L.T, rng.standard_normal((n, n)))
    with np.errstate(all="ignore"), pytest.raises(
        SolvabilityError, match=r"^solve refused: relative residual \S+ is not <= 1\.0e-08$"
    ):
        solve_sylvester(p)


def test_linearity_of_solutions(rng):
    n = 5
    W = np.eye(n) + 0.1 * rng.standard_normal((n, n))
    R = 0.1 * rng.standard_normal((n, n))
    S = 0.1 * rng.standard_normal((n, n))
    C1 = rng.standard_normal((n, n))
    C1p = rng.standard_normal((n, n))
    C2 = rng.standard_normal((n, n))
    a, b = 0.7, -1.3
    Xa, Ya = solve_coupled(CoupledProblem(W, R, S, C1, C2))
    Xb, Yb = solve_coupled(CoupledProblem(W, R, S, C1p, C2))
    Xc, Yc = solve_coupled(CoupledProblem(W, R, S, a * C1 + b * C1p, (a + b) * C2))
    assert np.allclose(a * Xa + b * Xb, Xc, atol=1e-10)
    assert np.allclose(a * Ya + b * Yb, Yc, atol=1e-10)


def test_limit_operator_small_l(rng):
    # W = I/2 makes the W-part the identity; R = S = (a'/2) I gives
    # Phi(X, Y) = (X + a' Y, Y + a' X), solvable entrywise by 2x2 systems.
    n = 4
    a_prime = 0.37
    C1 = rng.standard_normal((n, n))
    C2 = rng.standard_normal((n, n))
    p = CoupledProblem(0.5 * np.eye(n), 0.5 * a_prime * np.eye(n), 0.5 * a_prime * np.eye(n), C1, C2)
    X, Y = solve_coupled(p)
    det = 1.0 - a_prime * a_prime
    assert np.allclose(X, (C1 - a_prime * C2) / det, atol=1e-12)
    assert np.allclose(Y, (C2 - a_prime * C1) / det, atol=1e-12)


def test_residual_exact_and_slope(rng):
    n = 5
    L = np.diag(3.0 + rng.random(n))
    R = np.diag(1.0 + rng.random(n))
    C = rng.standard_normal((n, n))
    p = SylvesterProblem(L, R, C)
    X = solve_sylvester(p)
    assert residual(p, X) <= 1e-14
    E = rng.standard_normal((n, n))
    r1 = residual(p, X + 1e-6 * E)
    r2 = residual(p, X + 2e-6 * E)
    assert r2 / r1 == pytest.approx(2.0, rel=1e-3)


def test_residual_zero_conventions():
    Z = np.zeros((3, 3))
    p = SylvesterProblem(np.eye(3), np.eye(3), Z)
    assert residual(p, Z) == 0.0
    assert residual(p, np.ones((3, 3))) == float("inf")


def test_margin_identity_case():
    Z = np.zeros((3, 3))
    assert solvability_margin(0.5 * np.eye(3), Z, Z) == pytest.approx(1.0)


def test_margin_singular_difference_branch():
    I = np.eye(3)
    assert solvability_margin(I, I, I) == pytest.approx(0.0, abs=1e-12)


def test_margin_reference_operators_regression(ref_grid24):
    # frozen: margin of the reference operators at J=24, n=1, alpha=1/4
    from epdsys.operators import build_operator_set, step_shift

    opset = build_operator_set(ref_grid24, 0.25, 0.25)
    w, n = 0.25 * ref_grid24.sigma, ref_grid24.size
    c = step_shift(ref_grid24, 1, 2.5)
    A, Theta, Lam = (M.dense() for M in (opset.A, opset.Theta, opset.Lambda))
    W = 0.5 * np.eye(n) - w * A
    R, S = c * np.eye(n) - (w * ref_grid24.h) * Theta, c * np.eye(n) - (w * ref_grid24.h) * Lam
    margin = solvability_margin(W, R, S, W.T)
    assert margin > 0.0
    assert margin == pytest.approx(1.3408191866e-4, rel=1e-6)


def test_problem_validation():
    with pytest.raises(InvalidSpecError):
        SylvesterProblem(np.eye(3), np.eye(2), np.eye(3))
    with pytest.raises(InvalidSpecError):
        SylvesterProblem(np.eye(3), np.eye(3), np.full((3, 3), np.nan))
    with pytest.raises(InvalidSpecError, match=r"C must be square, got shape \(3, 2\)"):
        SylvesterProblem(np.eye(3), np.eye(3), np.ones((3, 2)))
    with pytest.raises(InvalidSpecError, match="unsupported problem type ndarray"):
        residual(np.eye(3), np.eye(3))
    with pytest.raises(InvalidSpecError):
        CoupledProblem(np.eye(3), np.eye(2), np.eye(3), np.eye(3), np.eye(3))


def test_coupled_problem_accepts_nested_lists():
    p = CoupledProblem([[2.0]], [[0.0]], [[0.0]], [[8.0]], [[4.0]])
    assert isinstance(p.W, np.ndarray) and np.array_equal(p.W_right, p.W)
    X, Y = solve_coupled(p)
    assert X[0, 0] == pytest.approx(2.0) and Y[0, 0] == pytest.approx(1.0)
