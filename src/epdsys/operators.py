"""Tridiagonal difference operators and the step operators of a run.

Conventions (size N = J+2 throughout):

  A       second difference with homogeneous Neumann rows: interior rows
          [1, -2, 1]; ghost-node elimination doubles the off-diagonal at the
          boundary rows ([-2, 2] and [2, -2]).  Left-multiplication A @ X
          differences along x; the y direction uses X @ A.T so the Neumann
          stencil lands on boundary columns.
  Theta   x-direction gradient weights: row j carries +lam_j / -lam_j on the
          super/sub diagonal, lam_j = lam / x_j; boundary rows zero.
  Lambda  y-direction gradient weights, column-indexed for right
          multiplication: (X @ Lambda)[:, m] = gam_m * (X[:, m+1] - X[:, m-1]),
          gam_m = gamma / y_m; boundary columns zero.

Both axes carry the grid's one node array, so a node on a coordinate axis
(|x_j| <= h/100, `Grid.singular`) is singular for both lam_j = lam / x_j and
gam_m = gamma / y_m.  Two policies are available:

  'zero'   drop the term (lam_j = 0 at the axis row);
  'limit'  replace it by its L'Hopital limit (2 lam / x) v_x -> 2 lam v_xx,
           realized as the second-difference stencil [2 lam/h, -4 lam/h,
           2 lam/h] on the axis row of Theta (same for the axis column of
           Lambda).

'zero' keeps the gradient matrices strictly zero-diagonal but commits an
O(1) local error on axis rows for solutions with nonzero curvature there;
'limit' restores second-order accuracy and is the default everywhere.

The step operators do not depend on the time index: step n adds only the
damping shift c_n I (`step_shift`), with the branch's sign.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .exceptions import InvalidSpecError, SingularTimeError
from .grid import Grid

# Branch s of the coupled pair has the coefficients (W + s R, Wr + s S), so
# R, S shifted by c I shift it by s c.  The branch bands below, and through
# them the branch pairs, margins, solves and residuals, and the step's
# damping term read this table.
BRANCH_SIGNS = {"sum": 1.0, "diff": -1.0}


def _sum_diff(P, scale: float = 1.0) -> np.ndarray:
    """scale (P0 + P1, P0 - P1) in one (2, n, n) array: (U, V) -> (Z+, Z-)
    in BRANCH_SIGNS order at scale 1, and back at scale 0.5."""
    out = np.empty((2,) + P[0].shape)
    np.add(P[0], P[1], out=out[0])
    np.subtract(P[0], P[1], out=out[1])
    out *= scale
    return out


@dataclasses.dataclass(frozen=True)
class TriDiagMatrix:
    """Banded storage for an N x N tridiagonal matrix.

    sub[i] = M[i+1, i], diag[i] = M[i, i], sup[i] = M[i, i+1].

    `M @ X` and `X @ M` are banded O(N^2) products with a dense matrix X;
    numpy defers both to this class (`__array_ufunc__ = None`).  Code that
    needs the dense matrix (LAPACK factorizations, np.kron) gets it through
    `__array__`.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        n = self.diag.size
        if self.sub.shape != (n - 1,) or self.sup.shape != (n - 1,):
            raise InvalidSpecError("inconsistent band lengths")

    @property
    def size(self):
        return self.diag.size

    @property
    def shape(self):
        return (self.size, self.size)

    def dense(self) -> np.ndarray:
        n = self.size
        M = np.zeros((n, n), dtype=self.diag.dtype)
        flat = M.reshape(-1)  # a view: row i, column k sits at i*n + k
        flat[:: n + 1] = self.diag
        flat[1 :: n + 1] = self.sup
        flat[n :: n + 1] = self.sub
        return M

    def __array__(self, dtype=None, copy=None):
        return self.dense() if dtype is None else self.dense().astype(dtype)

    def transpose(self) -> "TriDiagMatrix":
        return TriDiagMatrix(sub=self.sup.copy(), diag=self.diag.copy(), sup=self.sub.copy())

    T = property(transpose)

    def _operand(self, X, axis):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[axis] != self.size:
            raise InvalidSpecError(f"dimension mismatch: {self.shape} vs {X.shape}")
        return X

    def __matmul__(self, X):
        """M @ X, differencing along the rows of X."""
        X = self._operand(X, 0)
        out = self.diag[:, None] * X
        out[1:, :] += self.sub[:, None] * X[:-1, :]
        out[:-1, :] += self.sup[:, None] * X[1:, :]
        return out

    def __rmatmul__(self, X):
        """X @ M, differencing along the columns of X."""
        X = self._operand(X, 1)
        out = X * self.diag[None, :]
        out[:, 1:] += X[:, :-1] * self.sup[None, :]
        out[:, :-1] += X[:, 1:] * self.sub[None, :]
        return out

    def __add__(self, other):
        if not isinstance(other, TriDiagMatrix):
            return self.dense() + other
        return TriDiagMatrix(self.sub + other.sub, self.diag + other.diag, self.sup + other.sup)

    __radd__ = __add__

    def __sub__(self, other):
        return TriDiagMatrix(self.sub - other.sub, self.diag - other.diag, self.sup - other.sup)

    def __rmul__(self, c):
        return TriDiagMatrix(c * self.sub, c * self.diag, c * self.sup)

    @staticmethod
    def identity(n, scale=1.0) -> "TriDiagMatrix":
        return TriDiagMatrix(
            sub=np.zeros(n - 1), diag=np.full(n, float(scale)), sup=np.zeros(n - 1)
        )


@dataclasses.dataclass(frozen=True)
class OperatorSet:
    """The mesh-level matrices A, Theta, Lambda."""

    A: TriDiagMatrix
    Theta: TriDiagMatrix
    Lambda: TriDiagMatrix


@dataclasses.dataclass(frozen=True)
class StepOperators:
    """The step operator of the quasi-linear scheme, shared by every step of a run.

    `bands` is its only stored form: per branch s, in BRANCH_SIGNS order,
    the tridiagonal pair (K, K') = (A + s h Theta, A^T + s h Lambda).  In
    the branch variables Z+- = U +- V every tridiagonal operator of a
    branch is affine in one image, K(Z) = K Z + Z K' (`image`, on the
    stacked pair (Z+, Z-)):

        pair the plan factors     L Z + Z R   = Z - alpha sigma K(Z)
        level n of the RHS        Ln Z + Z Rn = 2 Z + (1 - 2 alpha) sigma K(Z)
        level n-1 of the RHS      Lm Z + Z Rm = -(Z - alpha sigma K(Z))
        spatial terms of u_tt     (A Z + Z A^T) / h^2 + s (Theta Z + Z Lambda) / h
                                  = K(Z) / h^2

    so the plan factors (L, R) = (I/2 - alpha sigma K, I/2 - alpha sigma K'),
    and Method I reads its U/V coefficients off those factored pairs.
    `implicit_weight` = alpha sigma and `explicit_weight` = (1 - 2 alpha)
    sigma are the two weights, `signs` holds the signs s, shaped to scale
    the slices of a stack, and `image_planes` the five coefficient planes
    of the image kernel, built from the bands.

    Step n adds only the damping c_n = l a / (2 t_n) (`step_shift`), which
    shifts branch s by s c_n I on each side.
    """

    bands: tuple[tuple[TriDiagMatrix, TriDiagMatrix], ...]
    implicit_weight: float
    explicit_weight: float
    signs: np.ndarray
    image_planes: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (K Z + Z K')[i, j] = (K_ii + K'_jj) Z[i, j] + K_i,i-1 Z[i-1, j]
        #   + K_i,i+1 Z[i+1, j] + K'_j-1,j Z[i, j-1] + K'_j+1,j Z[i, j+1]:
        # one plane per term, zero where the neighbour lies outside the slice
        n = self.bands[0][0].size
        planes = np.zeros((5, len(self.bands), n, n))
        for plane, (K, Kr) in zip(planes.swapaxes(0, 1), self.bands):
            plane[0] = K.diag[:, None] + Kr.diag[None, :]
            plane[1, 1:, :] = K.sub[:, None]
            plane[2, :-1, :] = K.sup[:, None]
            plane[3, :, 1:] = Kr.sup[None, :]
            plane[4, :, :-1] = Kr.sub[None, :]
        object.__setattr__(self, "image_planes", planes)

    @property
    def size(self) -> int:
        """The grid size n = J+2 of the planes and of a full level."""
        return self.image_planes.shape[-1]

    @functools.cached_property
    def _corner_planes(self) -> np.ndarray:
        """The image planes of the (m+1) x (m+1) corner, m = ceil(n/2), contiguous."""
        m = (self.size + 1) // 2
        return np.ascontiguousarray(self.image_planes[:, :, : m + 1, : m + 1])

    def image(self, Z: np.ndarray) -> np.ndarray:
        """K(Z) = K Z + Z K' of the stacked branch pair Z = (Z+, Z-), or its
        quadrant.

        A full (B, n, n) Z takes the 9-pass kernel (`_image`).  A (B, m, m)
        Z, m = ceil(n/2), stands for the even level whose quadrant it is
        (`_unfold`), and its image is that level's image's quadrant: the
        kernel runs on the level's (m+1) x (m+1) corner, whose row and
        column m are the mirrors of rows and columns n-1-m, with the
        corner's planes, and keeps the first m rows and columns.  Each kept
        entry reads only its neighbours in the corner, with the full
        planes' coefficients, in the same order, so it equals the full
        image's entry bit for bit, for an odd and an even n; the ghost row
        and column, and the row wrap of the flattened corner, reach only
        the entries that are dropped.  The step of a run carried on the
        quadrant (`stepper.march`) forms every image so.
        """
        planes = self.image_planes
        if Z.shape == planes.shape[1:]:
            return _image(planes, Z)
        n = self.size
        m = (n + 1) // 2
        if Z.shape != planes.shape[1:2] + (m, m):
            raise InvalidSpecError(f"dimension mismatch: {planes.shape[1:]} vs {Z.shape}")
        g = _mirror(n)[: m + 1]
        return _image(self._corner_planes, Z.take(g, axis=-2).take(g, axis=-1))[:, :m, :m]


def _image(planes: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The image kernel: sum_t planes[t] * (Z shifted by term t) over a (B, n, n) stack.

    In the flattened stack the neighbours (i, j -+ 1) and (i -+ 1, j) sit 1
    and n places away, so each neighbour term is one shifted product over
    one contiguous run; the planes are zero where a shift would cross a row
    or a slice.  The terms are summed as

        K(Z) = (left Z[i, j-1] + right Z[i, j+1])
             + (up Z[i-1, j] + down Z[i+1, j]) + diag Z,

    9 passes in all, the row pair written straight into the output.  The
    order is the reason.  A flip of the rows maps up onto down and leaves
    the row pair alone, a flip of the columns maps left onto right, and
    when K' = K^T bitwise (lambda = gamma) the transpose maps the row pair
    onto the column pair; the diagonal plane K_ii + K'_jj maps onto itself
    or onto K'_jj + K_ii.  Since fl(a + b) = fl(b + a), the image of a
    transposed Z is the transposed image, and on a centred grid
    (`grid.build_grid`), whose bands satisfy K == K[::-1, ::-1] bitwise,
    the image of a mirrored Z is the mirrored image, bit for bit.  So a
    level even in x and y, or symmetric, keeps an image that is too.
    Summed term by term instead, the images part in the last bits.
    """
    n = Z.shape[-1]
    diagonal, up, down, left, right = planes.reshape(5, -1)
    z = Z.ravel()
    KZ = np.empty_like(z)
    KZ[0] = 0.0  # left is zero in column 0
    np.multiply(left[1:], z[:-1], out=KZ[1:])
    KZ[:-1] += right[:-1] * z[1:]
    column = np.empty_like(z)
    column[:n] = 0.0  # up is zero in row 0
    np.multiply(up[n:], z[:-n], out=column[n:])
    column[:-n] += down[:-n] * z[n:]
    KZ += column
    KZ += diagonal * z
    return KZ.reshape(Z.shape)


@functools.cache
def _mirror(n: int) -> np.ndarray:
    """r(j) = min(j, n-1-j): where entry j of an even vector of size n sits
    in its first ceil(n/2) entries.  Read-only, one array per n."""
    r = np.minimum(np.arange(n), np.arange(n)[::-1])
    r.flags.writeable = False
    return r


def _even(C) -> bool:
    """Whether C, one matrix or a stack, is bitwise even in its rows and in
    its columns: its first k = floor(n/2) rows against their mirrors, then,
    once the rows are even, the first k columns of its first n - k rows
    against theirs."""
    n = C.shape[-1]
    k = n // 2
    return bool(
        (C[..., :k, :] == C[..., : -k - 1 : -1, :]).all()
        and (C[..., : n - k, :k] == C[..., : n - k, : -k - 1 : -1]).all()
    )


def _unfold(P, n: int) -> np.ndarray:
    """The even n x n matrices (or stack) whose m x m quadrant is P, m =
    ceil(n/2): X[..., i, j] = P[..., r(i), r(j)], r(j) = min(j, n-1-j).
    One `take` per axis, so the result is C-contiguous."""
    r = _mirror(n)
    return P.take(r, axis=-2).take(r, axis=-1)


@functools.cache
def _multiplicity(n: int) -> np.ndarray:
    """The (m, m) plane of how many entries of an even n x n matrix each
    entry of its quadrant stands for, m = ceil(n/2): 2 per axis, 1 on the
    centre of an odd n, multiplied over the two axes.  Read-only."""
    w = np.full((n + 1) // 2, 2.0)
    if n % 2:
        w[-1] = 1.0
    W = np.outer(w, w)
    W.flags.writeable = False
    return W


def _norm(P: np.ndarray, n: int) -> float:
    """||P||_F of a stack of width n, or of the even stack of width n whose
    quadrant P is (`_unfold`), as a sum over the quadrant weighted by
    `_multiplicity`.  The weights are powers of 2, so every weighted square
    is the full sum's term exactly, and only the order of the sum differs:
    the two agree within a few ulps."""
    if P.shape[-1] == n:
        return float(np.linalg.norm(P))
    return math.sqrt(float(np.vdot(P, P * _multiplicity(n))))


def neumann_second_difference(n: int) -> TriDiagMatrix:
    """The matrix A: centered second difference with reflected ghost nodes."""
    sub = np.ones(n - 1)
    diag = np.full(n, -2.0)
    sup = np.ones(n - 1)
    sup[0] = 2.0
    sub[-1] = 2.0
    return TriDiagMatrix(sub=sub, diag=diag, sup=sup)


SING_ZERO = "zero"
SING_LIMIT = "limit"


def _gradient(coef: float, grid: Grid, sing_policy: str) -> TriDiagMatrix:
    """The gradient matrix along the rows, with weights w_j = coef / x_j.

    Row j carries +w_j above and -w_j below the diagonal; the boundary rows
    stay zero, and w_j = 0 at the singular nodes, whose rows the 'limit'
    policy fills with the stencil [2 coef/h, -4 coef/h, 2 coef/h].
    """
    nodes, singular, h = grid.nodes, grid.singular, grid.h
    n = nodes.size
    safe = nodes.copy()
    safe[singular] = 1.0
    weights = coef / safe
    weights[singular] = 0.0
    sub = np.zeros(n - 1)
    diag = np.zeros(n)
    sup = np.zeros(n - 1)
    sup[1:] = weights[1:-1]       # M[j, j+1], j = 1..n-2
    sub[:-1] = -weights[1:-1]     # M[j, j-1]
    if sing_policy == SING_LIMIT:
        c = 2.0 * coef / h
        for j in singular:
            if 0 < j < n - 1:
                sup[j] = c
                sub[j - 1] = c
                diag[j] = -2.0 * c
    return TriDiagMatrix(sub=sub, diag=diag, sup=sup)


def build_operator_set(
    grid: Grid, lam: float, gamma: float, sing_policy: str = SING_LIMIT
) -> OperatorSet:
    """Assemble A, Theta, Lambda on the given grid.

    Theta is the gradient along x with weights lam / x_j, and Lambda, which
    multiplies from the right, the transpose of the gradient along y with
    weights gamma / y_m.
    """
    if not (np.isfinite(lam) and np.isfinite(gamma)):
        raise InvalidSpecError("lam and gamma must be finite")
    if sing_policy not in (SING_ZERO, SING_LIMIT):
        raise InvalidSpecError(f"unknown sing_policy {sing_policy!r}")
    return OperatorSet(
        A=neumann_second_difference(grid.size),
        Theta=_gradient(lam, grid, sing_policy),
        Lambda=_gradient(gamma, grid, sing_policy).T,
    )


def step_shift(grid: Grid, n: int, a: float) -> float:
    """c_n = l a_n / 2 with a_n = a / t_n, the only step-dependent coefficient."""
    t_n = grid.time(n)
    if t_n <= 0.0:
        raise SingularTimeError(f"a_n = a/t_n undefined at t_{n} = {t_n}")
    return 0.5 * grid.l * (a / t_n)


def assemble_step_operators(ops: OperatorSet, grid: Grid) -> StepOperators:
    """Build the branch bands (K, K') and the image planes once per run, at
    the grid's weight alpha (`GridSpec.alpha`)."""
    sigma, h, alpha = grid.sigma, grid.h, grid.spec.alpha
    signs = list(BRANCH_SIGNS.values())
    return StepOperators(
        bands=tuple((ops.A + (s * h) * ops.Theta, ops.A.T + (s * h) * ops.Lambda) for s in signs),
        implicit_weight=alpha * sigma,
        explicit_weight=(1.0 - 2.0 * alpha) * sigma,
        signs=np.array(signs)[:, None, None],
    )
