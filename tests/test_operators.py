import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdsys.exceptions import InvalidSpecError, SingularTimeError
from epdsys.grid import Field, GridSpec, build_grid, sample
from epdsys.operators import (
    SING_LIMIT,
    SING_ZERO,
    TriDiagMatrix,
    assemble_step_operators,
    build_operator_set,
    neumann_second_difference,
    step_shift,
)
from epdsys.stepper import plan_solves


def test_neumann_matrix_j2():
    A = neumann_second_difference(4).dense()
    expected = np.array(
        [
            [-2.0, 2.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    assert np.array_equal(A, expected)


@pytest.mark.parametrize(
    "lam, policy, message",
    [(np.nan, SING_LIMIT, "must be finite"), (np.inf, SING_ZERO, "must be finite"),
     (0.25, "nope", "unknown sing_policy")],
)
def test_build_operator_set_rejects(lam, policy, message):
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3))
    with pytest.raises(InvalidSpecError, match=message):
        build_operator_set(grid, lam, 0.25, sing_policy=policy)


def test_neumann_row_sums_zero():
    A = neumann_second_difference(17).dense()
    assert np.allclose(A.sum(axis=1), 0.0)


def test_zero_lambda_gives_zero_theta():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=6))
    ops = build_operator_set(grid, 0.0, 0.25)
    assert np.all(ops.Theta.dense() == 0.0)
    assert np.any(ops.Lambda.dense() != 0.0)


def test_theta_lambda_structure():
    grid = build_grid(GridSpec(L0=1.0, L1=8.0, J=6))  # all nodes positive, no axis
    ops = build_operator_set(grid, 0.25, 0.5)
    T = ops.Theta.dense()
    L = ops.Lambda.dense()
    n = grid.size
    # zero diagonals, zero boundary rows (Theta) / columns (Lambda)
    assert np.all(np.diag(T) == 0.0) and np.all(np.diag(L) == 0.0)
    assert np.all(T[0, :] == 0.0) and np.all(T[n - 1, :] == 0.0)
    assert np.all(L[:, 0] == 0.0) and np.all(L[:, n - 1] == 0.0)
    for j in range(1, n - 1):
        lam_j = 0.25 / grid.nodes[j]
        assert T[j, j + 1] == pytest.approx(lam_j)
        assert T[j, j - 1] == pytest.approx(-lam_j)
        gam = 0.5 / grid.nodes[j]
        assert L[j + 1, j] == pytest.approx(gam)
        assert L[j - 1, j] == pytest.approx(-gam)


def test_axis_node_zero_policy():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=49))
    ops = build_operator_set(grid, 0.25, 0.25, sing_policy=SING_ZERO)
    assert list(grid.singular) == [25]
    assert np.all(ops.Theta.dense()[25, :] == 0.0)
    # neighbours keep lam / x
    assert ops.Theta.sup[24] == pytest.approx(0.25 / grid.nodes[24])


def test_axis_node_limit_policy():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=49))
    ops = build_operator_set(grid, 0.25, 0.25, sing_policy=SING_LIMIT)
    T = ops.Theta.dense()
    c = 2.0 * 0.25 / grid.h
    assert T[25, 24] == pytest.approx(c)
    assert T[25, 26] == pytest.approx(c)
    assert T[25, 25] == pytest.approx(-2.0 * c)
    # the limit row applied to a sampled even function approximates 2 lam f_xx
    # to O(h^2) (second-difference truncation ~ 2 lam h^2 f_xxxx / 12 ~ 0.08)
    f, _ = sample(lambda x, y, t: (np.exp(-(x * x + y * y)), 0.0), grid, 0, "f")
    row = (ops.Theta @ f)[25, :] * grid.sigma * grid.h / grid.l**2
    exact = 2.0 * 0.25 * (4 * 0.0**2 - 2.0) * np.exp(-(grid.nodes**2))
    assert np.allclose(row, exact, atol=0.1)


def factored_pairs(grid, lam, a=0.0):
    """The (sum, diff) pairs (L, R) that the plan factors, as TriDiagMatrix objects."""
    ops = assemble_step_operators(build_operator_set(grid, lam, lam), grid)
    return [(f.L, f.R) for f in plan_solves(ops, grid, a).pairs]


def test_w_alpha_degenerate_alpha_zero():
    # W_alpha = I/2 - alpha sigma A: at alpha = 0 both branch pairs are I/2
    grid = build_grid(GridSpec(L0=0, L1=3, J=2, alpha=0.0, step_rule="independent", l=1.0))
    for L, R in factored_pairs(grid, 0.0):
        assert np.array_equal(L.dense(), 0.5 * np.eye(4))
        assert np.array_equal(R.dense(), 0.5 * np.eye(4))


def test_w_alpha_interior_diagonal():
    # h = 1, l = 1 so sigma = 1; alpha = 1/4: diag = 1/2 - (1/4)(-2) = 1.0
    # for W = (L+ + L-)/2, Method I's coefficient
    grid = build_grid(GridSpec(L0=0, L1=3, J=2, step_rule="independent", l=1.0))
    (Ls, _), (Ld, _) = factored_pairs(grid, 0.0)
    W = (0.5 * (Ls + Ld)).dense()
    assert W[1, 1] == pytest.approx(1.0)
    assert W[2, 2] == pytest.approx(1.0)


def test_r_pos_zero_diagonal_when_a_zero():
    # Method I's R = c_n I + (L+ - L-)/2 = c_n I - alpha sigma h Theta
    grid = build_grid(GridSpec(L0=1, L1=8, J=6, step_rule="independent", l=0.5))
    opset = build_operator_set(grid, 0.25, 0.25)
    (Ls, _), (Ld, _) = factored_pairs(grid, 0.25)
    c = step_shift(grid, 1, 0.0)
    R = (TriDiagMatrix.identity(grid.size, c) + 0.5 * (Ls - Ld)).dense()
    assert np.all(np.diag(R) == 0.0)
    assert np.allclose(R, -0.25 * grid.sigma * grid.h * opset.Theta.dense())


def test_step_operators_are_tridiagonal():
    grid = build_grid(GridSpec(L0=-10, L1=10, J=9))
    ops = assemble_step_operators(build_operator_set(grid, 0.25, 0.25), grid)
    n = grid.size
    bands = [M for pair in ops.bands for M in pair]
    pairs = [M for pair in factored_pairs(grid, 0.25, 2.5) for M in pair]
    assert len(bands) == len(pairs) == 4
    for M in bands + pairs:
        D = M.dense()
        mask = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > 1
        assert np.all(D[mask] == 0.0)


def test_singular_time_rejected():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3, t0=0.0))
    with pytest.raises(SingularTimeError):
        step_shift(grid, 0, 1.0)


@pytest.mark.parametrize("sub, sup", [(3, 4), (4, 3), (4, 4)])
def test_tridiag_rejects_inconsistent_band_lengths(sub, sup):
    with pytest.raises(InvalidSpecError, match="inconsistent band lengths"):
        TriDiagMatrix(sub=np.zeros(sub), diag=np.zeros(4), sup=np.zeros(sup))


image_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    J=st.integers(min_value=1, max_value=30),
    lam=st.floats(min_value=-2.0, max_value=2.0),
    sing_policy=st.sampled_from([SING_ZERO, SING_LIMIT]),
    # the symmetric grid and an asymmetric one: the transposition needs only
    # the same nodes on both axes
    bounds=st.sampled_from([(-10.0, 10.0), (-3.0, 7.0)]),
)


def _random_image_input(seed, J, lam, gamma, sing_policy, bounds):
    """Step operators at (lam, gamma) on a grid of J, and a random stacked pair Z."""
    grid = build_grid(GridSpec(L0=bounds[0], L1=bounds[1], J=J))
    ops = assemble_step_operators(build_operator_set(grid, lam, gamma, sing_policy), grid)
    return ops, np.random.default_rng(seed).standard_normal((2, grid.size, grid.size))


@settings(max_examples=60, deadline=None)
@given(**image_cases)
def test_image_is_transpose_equivariant_when_lambda_equals_gamma(seed, J, lam, sing_policy, bounds):
    # K' = K^T bitwise at lambda = gamma, and the image's summation order maps
    # onto itself under the transpose, so K(Z^T) = K(Z)^T bit for bit
    ops, Z = _random_image_input(seed, J, lam, lam, sing_policy, bounds)
    image, image_of_transpose = ops.image(Z), ops.image(Z.swapaxes(1, 2).copy())
    for b in range(Z.shape[0]):
        assert np.array_equal(image_of_transpose[b], image[b].T)


@settings(max_examples=80, deadline=None)
@given(
    seed=image_cases["seed"], J=image_cases["J"], lam=image_cases["lam"],
    gamma=st.floats(min_value=-2.0, max_value=2.0), sing_policy=image_cases["sing_policy"],
    L=st.floats(min_value=0.1, max_value=100.0),
)
def test_image_is_flip_equivariant_on_a_centred_grid(seed, J, lam, gamma, sing_policy, L):
    # the mirrored nodes make every band commute with the flip bitwise, and
    # each bracket of the image's sum maps onto itself under a flip of the
    # rows or of the columns, so K(flip Z) = flip K(Z) bit for bit
    ops, Z = _random_image_input(seed, J, lam, gamma, sing_policy, (-L, L))
    for K in (band.dense() for pair in ops.bands for band in pair):
        assert np.array_equal(K, K[::-1, ::-1])
    image = ops.image(Z)
    assert np.array_equal(ops.image(Z[:, ::-1, :].copy()), image[:, ::-1, :])
    assert np.array_equal(ops.image(Z[:, :, ::-1].copy()), image[:, :, ::-1])


@settings(max_examples=60, deadline=None)
@given(**image_cases, gamma=st.floats(min_value=-2.0, max_value=2.0))
def test_image_matches_the_dense_bands(seed, J, lam, gamma, sing_policy, bounds):
    # the bound of the branch-form identities (test_branch_form.py)
    ops, Z = _random_image_input(seed, J, lam, gamma, sing_policy, bounds)
    for Zb, KZb, (K, Kr) in zip(Z, ops.image(Z), ops.bands):
        dense = K.dense() @ Zb + Zb @ Kr.dense()
        assert np.linalg.norm(KZb - dense) <= 1e-13 * max(np.linalg.norm(dense), 1.0)


def test_image_rejects_a_wrongly_shaped_stack():
    grid = build_grid(GridSpec(L0=-1, L1=1, J=3))
    ops = assemble_step_operators(build_operator_set(grid, 0.25, 0.25), grid)
    n = grid.size
    for shape in ((n, n), (1, n, n), (2, n, n + 1)):
        with pytest.raises(InvalidSpecError, match="dimension mismatch"):
            ops.image(np.zeros(shape))


def test_apply_identity_is_noop(rng):
    X = Field(rng.standard_normal((5, 5)))
    I = TriDiagMatrix.identity(5)
    assert np.array_equal(I @ X.values, X.values)
    assert np.array_equal(X.values @ I, X.values)


def test_apply_neumann_annihilates_constants():
    A = neumann_second_difference(6)
    X = Field(np.full((6, 6), 3.7))
    assert np.allclose(A @ X.values, 0.0, atol=1e-14)
    assert np.allclose(X.values @ A.transpose(), 0.0, atol=1e-14)


def test_apply_second_difference_of_squares():
    # field X[j, m] = j^2; interior rows of A X equal 2 exactly
    A = neumann_second_difference(4)
    j = np.arange(4.0)
    X = Field(np.broadcast_to((j * j)[:, None], (4, 4)).copy())
    out = A @ X.values
    assert np.allclose(out[1:3, :], 2.0)


def test_apply_matches_dense_product(rng):
    grid = build_grid(GridSpec(L0=1, L1=8, J=6))
    ops = build_operator_set(grid, 0.3, -0.7)
    X = rng.standard_normal((grid.size, grid.size))
    assert np.allclose(ops.Theta @ X, ops.Theta.dense() @ X, atol=1e-13)
    assert np.allclose(X @ ops.Lambda, X @ ops.Lambda.dense(), atol=1e-13)


def test_quadratic_laplacian_scaled():
    # A @ sample(x^2) / h^2 equals 2 at interior nodes, exactly for quadratics
    grid = build_grid(GridSpec(L0=-2, L1=2, J=7))
    f, _ = sample(lambda x, y, t: (x * x, 0.0), grid, 0, "f")
    A = neumann_second_difference(grid.size)
    out = (A @ f) / grid.h**2
    assert np.allclose(out[1:-1, :], 2.0, atol=1e-10)

