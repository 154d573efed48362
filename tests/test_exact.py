from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from epdsys.exact import (
    evaluate_series,
    frobenius_coefficients,
    frobenius_indicial,
    ode_residual,
    pde_residual,
    sample_box,
    separable_solution,
    stationary_additive,
    stationary_multiplicative,
)
from epdsys.exceptions import (
    BranchError,
    InvalidSpecError,
    ResonanceError,
    SingularPointError,
)
from epdsys.stepper import ProblemDef


# ---------------------------------------------------------------------------
# stationary additive family


def test_additive_sqrt_branch():
    form = stationary_additive(0.25, 0.25, 0.0, 1.0, 0.0)
    xs = np.array([0.25, 1.0, 4.0])
    assert np.allclose(form.f(xs), 2.0 * np.sqrt(xs), rtol=1e-14)
    assert form.f(4.0) == pytest.approx(4.0)
    assert form.f(-4.0) == pytest.approx(-4.0)  # odd continuation
    assert form.certificate <= 1e-8


def test_additive_zero_constants():
    form = stationary_additive(0.3, -0.2, 0.0, 0.0, 0.0)
    xs = np.linspace(0.1, 5, 7)
    assert np.allclose(form.f(xs), 0.0)
    assert np.allclose(form.g(xs), 0.0)
    assert form.certificate == 0.0


def test_additive_corrected_log_half_branch():
    # lam = 1/2, K = 4: the corrected particular solution is x^2 (the printed
    # cubic fails its own ODE); f'' + f'/x = 2 + 2 = 4
    form = stationary_additive(0.5, 0.5, 4.0, 0.0, 0.0)
    assert form.f(3.0) == pytest.approx(9.0)
    assert form.certificate <= 1e-8
    # cross-check by the independent FD oracle
    res = ode_residual(form.f, 0.5, 4.0, "const", np.linspace(0.5, 5, 13))
    assert res <= 1e-8


def test_additive_log_neg_half_branch():
    form = stationary_additive(-0.5, -0.5, 2.0, 1.5, 0.5)
    assert form.certificate <= 1e-8
    res = ode_residual(form.f, -0.5, 2.0, "const", np.linspace(0.5, 3, 9),
                       df=form.df, d2f=form.d2f)
    assert res <= 1e-10


def test_additive_generic_fd_cross_check():
    form = stationary_additive(0.25, 0.4, 1.0, 1.0, 2.0)
    xs = np.linspace(0.5, 5, 11)
    assert ode_residual(form.f, 0.25, 1.0, "const", xs) <= 1e-6
    assert ode_residual(form.g, 0.4, -1.0, "const", xs) <= 1e-6


# ---------------------------------------------------------------------------
# stationary multiplicative candidate


def test_multiplicative_zero_amplitudes():
    form = stationary_multiplicative(1 / np.sqrt(2), 1 / np.sqrt(2), 1.0, 0, 0, 0, 0)
    assert form.certificate == 0.0


def test_multiplicative_candidate_certificate_reported():
    lam = 1 / np.sqrt(2)
    form = stationary_multiplicative(lam, lam, 1.0, 1.0, 0.0, 1.0, 0.0)
    # the printed form does not satisfy the ODE: certificate is finite, nonzero
    assert np.isfinite(form.certificate)
    assert form.certificate > 1e-3


def test_multiplicative_lam_zero_pins_sign_convention():
    # lam = 0 gives f = cos(x), which solves f'' = -K f, the K' = -K equation
    form = stationary_multiplicative(0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0)
    xs = np.linspace(0.2, 3.0, 15)
    assert np.allclose(form.f(xs), np.cos(xs), atol=1e-14)
    res_minus = ode_residual(form.f, 0.0, -1.0, "eigen", xs, df=form.df, d2f=form.d2f)
    assert res_minus <= 1e-12
    assert form.certificate > 0.1  # the +K convention residual is large


def test_multiplicative_rejects_nonpositive_k():
    with pytest.raises(BranchError):
        stationary_multiplicative(0.5, 0.5, -1.0, 1, 0, 1, 0)


# ---------------------------------------------------------------------------
# Frobenius engine


def test_indicial_roots():
    assert frobenius_indicial(0.5) == (0.0, 0.0, True)
    r = frobenius_indicial(0.0)
    assert (r.nu1, r.nu2) == (0.0, 1.0) and r.resonant
    r = frobenius_indicial(0.25)
    assert (r.nu1, r.nu2) == (0.0, 0.5) and not r.resonant


def test_bessel_i0_coefficients_rational():
    s = frobenius_coefficients(Fraction(1, 2), 0, 1, 20, a0=1, exact=True)
    assert s.coeffs_exact[2] == Fraction(1, 4)
    assert s.coeffs_exact[4] == Fraction(1, 64)
    for n in range(0, 21, 2):
        assert s.coeffs_exact[n] == Fraction(1, 4**(n // 2) * factorial(n // 2) ** 2)
    for n in range(1, 21, 2):
        assert s.coeffs_exact[n] == 0
    assert s.parity == "even"


def test_recurrence_quarter_half():
    s = frobenius_coefficients(0.25, 0.5, 1.0, 8)
    assert s.coeffs[2] == pytest.approx(1 / 5)
    assert s.coeffs[4] == pytest.approx(1 / 90)


def test_zero_k_truncates():
    s = frobenius_coefficients(0.3, 0.0, 0.0, 10)
    assert np.all(s.coeffs[2:] == 0.0)


def test_resonance_error_names_index():
    with pytest.raises(ResonanceError) as err:
        frobenius_coefficients(-0.5, 0.0, 1.0, 10)
    assert err.value.index == 2


def test_non_root_nu_rejected():
    with pytest.raises(InvalidSpecError):
        frobenius_coefficients(0.25, 0.3, 1.0, 10)
    with pytest.raises(InvalidSpecError, match="not an indicial root"):
        frobenius_coefficients(Fraction(1, 4), Fraction(3, 10), 1, 10, exact=True)


def test_truncation_order_below_two_rejected():
    with pytest.raises(InvalidSpecError, match="N >= 2"):
        frobenius_coefficients(0.5, 0.0, 1.0, 1)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("name", ["lam", "nu", "K", "a0", "a1"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_input_rejected(name, value, exact):
    # the Bessel I0 series (lam = 1/2, nu = 0, K = 1) with one input made non-finite
    args = dict(lam=0.5, nu=0.0, K=1.0, a0=1.0, a1=0.0) | {name: value}
    with pytest.raises(InvalidSpecError, match=f"'{name}' must be finite, got {value}"):
        frobenius_coefficients(N=3, exact=exact, **args)


def test_constrained_a1_rejected():
    with pytest.raises(InvalidSpecError):
        frobenius_coefficients(0.25, 0.0, 1.0, 10, a0=1.0, a1=1.0)
    # lam = 0, nu = 0 leaves a1 free: (1 + nu)(nu + 2 lam) = 0
    s = frobenius_coefficients(0.0, 0.0, 1.0, 10, a0=1.0, a1=1.0)
    assert s.parity == "mixed"


@given(
    lam=st.floats(-0.4, 2.0),
    K=st.floats(-4.0, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_fidelity(lam, K):
    try:
        s = frobenius_coefficients(lam, 0.0, K, 14)
    except ResonanceError:
        return
    a = s.coeffs
    for n in range(2, 15):
        denom = n * (n - 1 + 2 * lam)
        assert denom * a[n] == pytest.approx(K * a[n - 2], rel=1e-14, abs=1e-300)


def test_evaluate_series_bessel_value():
    s = frobenius_coefficients(0.5, 0.0, 1.0, 40)
    value, tail = evaluate_series(s, 1.0)
    assert value == pytest.approx(float(scipy.special.i0(1.0)), rel=1e-13)
    assert tail < 1e-12


def test_evaluate_series_origin():
    s = frobenius_coefficients(0.5, 0.0, 1.0, 10, a0=2.5)
    assert evaluate_series(s, 0.0) == (2.5, 0.0)
    s_neg = frobenius_coefficients(1 / np.sqrt(2) + 0.5, 1 - 2 * (1 / np.sqrt(2) + 0.5), 1.0, 10)
    assert s_neg.nu < 0
    with pytest.raises(SingularPointError):
        evaluate_series(s_neg, 0.0)


def test_tail_bound_at_the_origin_and_past_the_ratio_bound():
    s = frobenius_coefficients(0.5, 0.0, 1.0, 10)
    assert s.tail_bound(0.0) == 0.0
    # ratio K x^2 / (N (N - 1 + 2 lam)) = x^2 / 100 reaches 1 at x = 10: no geometric bound
    assert s.tail_bound(9.0) < float("inf")
    assert s.tail_bound(10.0) == float("inf")
    assert s.tail_bound(-20.0) == float("inf")


def test_series_residual_decreases_with_truncation():
    xs = np.linspace(0.1, 1.0, 10)
    res = [
        ode_residual(frobenius_coefficients(0.5, 0.0, 4.0, N), 0.5, 4.0, "eigen", xs)
        for N in (6, 12, 24, 40)
    ]
    assert res[0] > res[1] > res[2]
    assert res[-1] <= 1e-8


def test_series_negative_x_symmetry():
    s = frobenius_coefficients(0.25, 0.5, 2.0, 20)
    xs = np.linspace(0.1, 1.5, 7)
    res_pos = ode_residual(s, 0.25, 2.0, "eigen", xs)
    res_neg = ode_residual(s, 0.25, 2.0, "eigen", -xs)
    assert res_pos <= 1e-10 and res_neg <= 1e-10


# ---------------------------------------------------------------------------
# separable solutions


def test_separable_k_zero_time_independent():
    sol = separable_solution(0.25, 0.25, 1.0, 0.0, 1.0)
    # psi identically 1
    assert sol.psi.value(0.7) == pytest.approx(1.0)
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0,
                      exact=lambda x, y, t: (sol(x, y, t),) * 2, nonlinear=False)
    pts = sample_box(np.linspace(0.5, 2, 4), np.linspace(0.5, 2, 4), np.linspace(0.5, 2, 4))
    assert pde_residual(sol, sol, prob, pts) <= 1e-8


def test_separable_constant_particular_pair():
    # K != 0 with the constant particular parts -K~/K and +K~/K
    K, Kt = 2.0, 3.0
    sol = separable_solution(0.25, 0.25, 0.5, K, Kt, N=50)
    # f + g at the origin-free part: the constants cancel in the sum
    prob = ProblemDef(a=0.5, lam=0.25, gamma=0.25, p=2.0, q=2.0,
                      exact=lambda x, y, t: (sol(x, y, t),) * 2, nonlinear=False)
    pts = sample_box(np.linspace(0.4, 1.2, 4), np.linspace(0.4, 1.2, 4), np.linspace(0.4, 1.2, 4))
    assert pde_residual(sol, sol, prob, pts) <= 1e-6


def test_separable_time_series_residual():
    sol = separable_solution(0.25, 0.25, 0.5, 1.0, 0.0, N=40)
    ts = np.linspace(0.1, 2.0, 12)
    assert ode_residual(sol.psi, 0.5, 1.0, "eigen", ts) <= 1e-8


# ---------------------------------------------------------------------------
# residual oracles


def test_ode_residual_quadratic_fd():
    res = ode_residual(lambda x: x * x, 0.5, 4.0, "const", np.geomspace(0.1, 10, 15))
    assert res <= 1e-9


def test_ode_residual_zero_function():
    res = ode_residual(lambda x: np.zeros_like(x), 0.7, 3.0, "zero", np.linspace(0.2, 2, 7))
    assert res == 0.0


def test_ode_residual_series_analytic():
    s = frobenius_coefficients(0.5, 0.0, 1.0, 40)
    assert ode_residual(s, 0.5, 1.0, "eigen", np.linspace(0.1, 1, 19)) <= 1e-10


def test_ode_residual_rejects_origin():
    with pytest.raises(InvalidSpecError):
        ode_residual(lambda x: x, 0.5, 1.0, "zero", np.array([0.0, 1.0]))


def test_ode_residual_rejects_an_unknown_rhs_mode():
    with pytest.raises(InvalidSpecError, match="unknown rhs_mode 'linear'"):
        ode_residual(lambda x: x, 0.5, 1.0, "linear", np.array([0.5, 1.0]))


def _manufactured_pair():
    g1 = lambda x, y, t: np.exp(-(0.5 * t * t + x * x + y * y))

    def G1(x, y, t):
        return (t * t - 4 * (x * x + y * y)) * g1(x, y, t) - np.exp(
            -1.5 * (0.5 * t * t + x * x + y * y)
        )

    def G2(x, y, t):
        return (t * t - 4 * (x * x + y * y)) * g1(x, y, t) - np.exp(
            -(4 / 3) * (0.5 * t * t + x * x + y * y)
        )

    prob = ProblemDef(
        a=2.5, lam=0.25, gamma=0.25, p=1.5, q=4 / 3,
        forcing=lambda x, y, t: (G1(x, y, t), G2(x, y, t)),
        exact=lambda x, y, t: (g1(x, y, t), g1(x, y, t)),
    )
    return g1, prob


def test_pde_residual_manufactured_forcing():
    g1, prob = _manufactured_pair()
    pts = sample_box(np.linspace(0.3, 1.5, 5), np.linspace(0.3, 1.5, 5), np.linspace(0.2, 1.0, 5))
    assert pde_residual(g1, g1, prob, pts) <= 1e-5


def test_pde_residual_zero_solution():
    zero = lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float))
    prob = ProblemDef(a=1.0, lam=0.25, gamma=0.25, p=2.0, q=2.0,
                      exact=lambda x, y, t: (zero(x, y, t),) * 2)
    pts = sample_box([0.5, 1.0], [0.5, 1.0], [0.5, 1.0])
    assert pde_residual(zero, zero, prob, pts) == 0.0


def test_pde_residual_rejects_nonpositive_time():
    zero = lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float))
    prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
                      exact=lambda x, y, t: (zero(x, y, t),) * 2)
    with pytest.raises(InvalidSpecError):
        pde_residual(zero, zero, prob, np.array([[0.5, 0.5, 0.0]]))


def test_pde_residual_rejects_samples_that_are_not_xyt_triples():
    zero = lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float))
    prob = ProblemDef(a=1.0, lam=0.0, gamma=0.0, p=2.0, q=2.0,
                      exact=lambda x, y, t: (zero(x, y, t),) * 2)
    with pytest.raises(InvalidSpecError, match=r"\(m, 3\) array"):
        pde_residual(zero, zero, prob, np.array([[0.5, 0.5], [1.0, 1.0]]))
