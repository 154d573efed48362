"""Tridiagonal difference operators and the per-step composites.

Conventions (size N = J+2 throughout):

  A       second difference with homogeneous Neumann rows: interior rows
          [1, -2, 1]; ghost-node elimination doubles the off-diagonal at the
          boundary rows ([-2, 2] and [2, -2]).  Left-multiplication A @ X
          differences along x; the y direction uses X @ A.T so the Neumann
          stencil lands on boundary columns.
  Theta   x-direction gradient weights: row j carries +lam_j / -lam_j on the
          super/sub diagonal, lam_j = lam / x_j; boundary rows zero.
  Lambda  y-direction gradient weights, column-indexed for right
          multiplication: (X @ Lambda)[:, m] = gam_m * (X[:, m+1] - X[:, m-1]);
          boundary columns zero.

Nodes with |x_j| <= sing_eps are singular for the gradient coefficient
lam_j = lam / x_j.  Two policies are available:

  'zero'   drop the term (lam_j = 0 at the axis row);
  'limit'  replace it by its L'Hopital limit (2 lam / x) v_x -> 2 lam v_xx,
           realized as the second-difference stencil [2 lam/h, -4 lam/h,
           2 lam/h] on the axis row of Theta (same for gam_m columns of
           Lambda).

'zero' keeps the gradient matrices strictly zero-diagonal but commits an
O(1) local error on axis rows for solutions with nonzero curvature there;
'limit' restores second-order accuracy and is what the benchmark experiment
uses.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .exceptions import InvalidSpecError, SingularTimeError
from .grid import Field, Grid


@dataclasses.dataclass(frozen=True)
class TriDiagMatrix:
    """Banded storage for an N x N tridiagonal matrix.

    sub[i] = M[i+1, i], diag[i] = M[i, i], sup[i] = M[i, i+1].

    `M @ X` and `X @ M` are banded O(N^2) products with a dense X; numpy
    defers both to this class (`__array_ufunc__ = None`).  Code that needs
    the dense matrix (LAPACK factorizations, np.kron) gets it through
    `__array__`.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    __array_ufunc__ = None

    def __post_init__(self):
        n = self.diag.size
        if self.sub.size != n - 1 or self.sup.size != n - 1:
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
            raise InvalidSpecError(f"dimension mismatch: {self.size} vs {X.shape}")
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
        if not isinstance(other, TriDiagMatrix):
            return self.dense() - other
        return TriDiagMatrix(self.sub - other.sub, self.diag - other.diag, self.sup - other.sup)

    def __rsub__(self, other):
        return other - self.dense()

    def __rmul__(self, c):
        return TriDiagMatrix(c * self.sub, c * self.diag, c * self.sup)

    @staticmethod
    def identity(n, scale=1.0) -> "TriDiagMatrix":
        return TriDiagMatrix(
            sub=np.zeros(n - 1), diag=np.full(n, float(scale)), sup=np.zeros(n - 1)
        )

    @staticmethod
    def from_dense(M) -> "TriDiagMatrix":
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        off = M - np.diag(np.diag(M))
        off[np.arange(1, n), np.arange(n - 1)] = 0.0
        off[np.arange(n - 1), np.arange(1, n)] = 0.0
        if np.any(off != 0.0):
            raise InvalidSpecError("matrix has entries outside the three diagonals")
        return TriDiagMatrix(
            sub=M[np.arange(1, n), np.arange(n - 1)].copy(),
            diag=np.diag(M).copy(),
            sup=M[np.arange(n - 1), np.arange(1, n)].copy(),
        )


@dataclasses.dataclass(frozen=True)
class OperatorSet:
    """The mesh-level matrices A, Theta, Lambda and their coefficient arrays."""

    A: TriDiagMatrix
    Theta: TriDiagMatrix
    Lambda: TriDiagMatrix
    lam_j: np.ndarray      # lam / x_j with the singular-node policy applied
    gam_m: np.ndarray
    singular_x: np.ndarray  # node indices where lam_j was forced to 0
    singular_y: np.ndarray


@dataclasses.dataclass(frozen=True)
class StepOperators:
    """Per-step composites of the quasi-linear scheme at time index n.

    W_alpha           = (1/2) I - alpha * sigma * A
    W_alpha_minus_half = (1/2) I - (alpha - 1/2) * sigma * A
    R_pos / S_pos     = (l a_n / 2) I -/- alpha sigma h Theta / Lambda
    R_neg / S_neg     = same with alpha -> -alpha (the level n-1 composites)
    shift             = c_n = l a_n / 2; R_pos - c_n I and S_pos - c_n I do not depend on n
    """

    W_alpha: TriDiagMatrix
    W_alpha_minus_half: TriDiagMatrix
    R_pos: TriDiagMatrix
    S_pos: TriDiagMatrix
    R_neg: TriDiagMatrix
    S_neg: TriDiagMatrix
    n: int
    a_n: float
    alpha: float
    shift: float


def neumann_second_difference(n: int) -> TriDiagMatrix:
    """The matrix A: centered second difference with reflected ghost nodes."""
    sub = np.ones(n - 1)
    diag = np.full(n, -2.0)
    sup = np.ones(n - 1)
    sup[0] = 2.0
    sub[-1] = 2.0
    return TriDiagMatrix(sub=sub, diag=diag, sup=sup)


def _axis_weights(coef: float, nodes: np.ndarray, sing_eps: float):
    """coef / node with nodes inside the singular band zeroed."""
    weights = np.zeros_like(nodes)
    mask = np.abs(nodes) > sing_eps
    weights[mask] = coef / nodes[mask]
    return weights, np.flatnonzero(~mask)


SING_ZERO = "zero"
SING_LIMIT = "limit"


def build_operator_set(
    grid: Grid, lam: float, gamma: float, sing_policy: str = SING_ZERO
) -> OperatorSet:
    """Assemble A, Theta, Lambda on the given grid."""
    if not (np.isfinite(lam) and np.isfinite(gamma)):
        raise InvalidSpecError("lam and gamma must be finite")
    if sing_policy not in (SING_ZERO, SING_LIMIT):
        raise InvalidSpecError(f"unknown sing_policy {sing_policy!r}")
    n = grid.size
    A = neumann_second_difference(n)

    lam_j, sing_x = _axis_weights(lam, grid.nodes_x, grid.sing_eps)
    gam_m, sing_y = _axis_weights(gamma, grid.nodes_y, grid.sing_eps)

    # Theta row j: +lam_j above, -lam_j below; boundary rows stay zero.
    theta_sup = np.zeros(n - 1)
    theta_sub = np.zeros(n - 1)
    theta_diag = np.zeros(n)
    theta_sup[1:] = lam_j[1:-1]       # Theta[j, j+1], j = 1..n-2
    theta_sub[:-1] = -lam_j[1:-1]     # Theta[j, j-1]

    # Lambda column m: +gam_m below, -gam_m above; boundary columns stay zero.
    lam_sub = np.zeros(n - 1)
    lam_sup = np.zeros(n - 1)
    lam_diag = np.zeros(n)
    lam_sub[1:] = gam_m[1:-1]         # Lambda[m+1, m], m = 1..n-2
    lam_sup[:-1] = -gam_m[1:-1]       # Lambda[m-1, m]

    if sing_policy == SING_LIMIT:
        c_x = 2.0 * lam / grid.h
        for j in sing_x:
            if 0 < j < n - 1:
                theta_sup[j] = c_x
                theta_sub[j - 1] = c_x
                theta_diag[j] = -2.0 * c_x
        c_y = 2.0 * gamma / grid.h
        for m in sing_y:
            if 0 < m < n - 1:
                lam_sub[m] = c_y
                lam_sup[m - 1] = c_y
                lam_diag[m] = -2.0 * c_y

    Theta = TriDiagMatrix(sub=theta_sub, diag=theta_diag, sup=theta_sup)
    Lam = TriDiagMatrix(sub=lam_sub, diag=lam_diag, sup=lam_sup)

    return OperatorSet(
        A=A,
        Theta=Theta,
        Lambda=Lam,
        lam_j=lam_j,
        gam_m=gam_m,
        singular_x=sing_x,
        singular_y=sing_y,
    )


def step_shift(grid: Grid, n: int, a: float) -> float:
    """c_n = l a_n / 2 with a_n = a / t_n, the scalar part of R_pos and S_pos."""
    t_n = grid.time(n)
    if t_n <= 0.0:
        raise SingularTimeError(f"a_n = a/t_n undefined at t_{n} = {t_n}")
    return 0.5 * grid.l * (a / t_n)


def assemble_step_operators(
    ops: OperatorSet, grid: Grid, n: int, alpha: float, a: float
) -> StepOperators:
    """Build W_alpha, W_{alpha-1/2} and R/S composites for time index n >= 1."""
    c = step_shift(grid, n, a)
    a_n = a / grid.time(n)
    sigma = grid.sigma
    N = grid.size
    I = TriDiagMatrix.identity(N)

    W_alpha = 0.5 * I - (alpha * sigma) * ops.A
    W_half = 0.5 * I - ((alpha - 0.5) * sigma) * ops.A

    R_pos = c * I - (alpha * sigma * grid.h) * ops.Theta
    S_pos = c * I - (alpha * sigma * grid.h) * ops.Lambda
    R_neg = c * I + (alpha * sigma * grid.h) * ops.Theta
    S_neg = c * I + (alpha * sigma * grid.h) * ops.Lambda

    return StepOperators(
        W_alpha=W_alpha,
        W_alpha_minus_half=W_half,
        R_pos=R_pos,
        S_pos=S_pos,
        R_neg=R_neg,
        S_neg=S_neg,
        n=n,
        a_n=a_n,
        alpha=alpha,
        shift=c,
    )


def apply_x(M: TriDiagMatrix, X) -> Field:
    """Left product M @ X (x-direction differencing)."""
    if isinstance(X, Field):
        return Field(M @ X.values, level=X.level)
    return Field(M @ X)


def apply_y(X, M: TriDiagMatrix) -> Field:
    """Right product X @ M (y-direction differencing, column convention)."""
    if isinstance(X, Field):
        return Field(X.values @ M, level=X.level)
    return Field(X @ M)
