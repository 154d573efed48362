import numpy as np
import pytest

from epdsys.exceptions import InvalidSpecError, SizeGuardError, SolvabilityError
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


def test_kronecker_size_guard():
    n = 6
    Z = np.zeros((n, n))
    p = CoupledProblem(np.eye(n), Z, Z, Z, Z)
    with pytest.raises(SizeGuardError):
        kronecker_solve(p, max_size=5)


def test_kronecker_byte_budget(monkeypatch):
    # arithmetic only: the largest admitted size fits the budget, one more does not
    n = KRONECKER_MAX_SIZE
    assert 8 * (2 * n * n) ** 2 <= KRONECKER_MAX_BYTES
    assert 8 * (2 * (n + 1) ** 2) ** 2 > KRONECKER_MAX_BYTES

    def no_allocation(*args, **kwargs):
        raise AssertionError("the guard must refuse before building the system")

    monkeypatch.setattr(np, "kron", no_allocation)
    I = np.eye(n + 1)
    with pytest.raises(SizeGuardError, match="bytes"):
        kronecker_solve(CoupledProblem(I, I, I, I, I))


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
    from epdsys.operators import assemble_step_operators, build_operator_set

    opset = build_operator_set(ref_grid24, 0.25, 0.25)
    ops = assemble_step_operators(opset, ref_grid24, 1, 0.25, 2.5)
    W = ops.W_alpha.dense()
    margin = solvability_margin(W, ops.R_pos.dense(), ops.S_pos.dense(), W.T)
    assert margin > 0.0
    assert margin == pytest.approx(1.3408191866e-4, rel=1e-6)


def test_problem_validation():
    with pytest.raises(InvalidSpecError):
        SylvesterProblem(np.eye(3), np.eye(2), np.eye(3))
    with pytest.raises(InvalidSpecError):
        SylvesterProblem(np.eye(3), np.eye(3), np.full((3, 3), np.nan))
    with pytest.raises(InvalidSpecError):
        CoupledProblem(np.eye(3), np.eye(2), np.eye(3), np.eye(3), np.eye(3))


def test_coupled_problem_accepts_nested_lists():
    p = CoupledProblem([[2.0]], [[0.0]], [[0.0]], [[8.0]], [[4.0]])
    assert isinstance(p.W, np.ndarray) and np.array_equal(p.W_right, p.W)
    X, Y = solve_coupled(p)
    assert X[0, 0] == pytest.approx(2.0) and Y[0, 0] == pytest.approx(1.0)
