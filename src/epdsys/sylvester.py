"""Standard and coupled Sylvester solvers with a Kronecker baseline.

The production path solves L X + X R = C by Bartels-Stewart: the real Schur
forms L = QL TL QL^T and R = QR TR QR^T reduce the equation to
TL Z + Z TR = QL^T C QR, which LAPACK trsyl solves on the quasi-triangular
factors (2 x 2 blocks carry complex-conjugate eigenvalue pairs), and
X = QL Z QR^T.  Both coefficients are densified once for the Schur step;
TriDiagMatrix and dense coefficients take the same path.  The solvability
margin min |lam_i + mu_j| is read off the spectra of TL and TR, so a solve
returns it at no extra factorization.

The coupled pair

    W X + X Wr + R Y + Y S = C1
    W Y + Y Wr + R X + X S = C2

decouples exactly: P = X+Y solves (W+R) P + P (Wr+S) = C1+C2 and Q = X-Y
solves (W-R) Q + Q (Wr-S) = C1-C2.

kronecker_solve vectorizes both unknowns into a single dense 2 n^2 system
(Gaussian elimination with partial pivoting) and serves as Method I in the
benchmarks and as the brute-force oracle for the decoupled path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.linalg

from .exceptions import InvalidSpecError, SizeGuardError, SolvabilityError
from .operators import TriDiagMatrix

# A diagonal denominator |lam_i + mu_j| below DENOM_RTOL * norm(inputs) is
# treated as a solvability failure rather than allowed to produce garbage.
DENOM_RTOL = 1e-12

# Byte budget for the dense Kronecker system matrix, 8 (2 n^2)^2 = 32 n^4
# bytes (the kron temporaries and LAPACK's copy come on top), and the largest
# size within it: 76, i.e. J <= 74.
KRONECKER_MAX_BYTES = 2**30
KRONECKER_MAX_SIZE = math.isqrt(math.isqrt(KRONECKER_MAX_BYTES // 32))


def _as_square(M, name):
    """A finite square coefficient: a TriDiagMatrix as is, else a dense array."""
    if isinstance(M, TriDiagMatrix):
        finite = all(np.isfinite(band).all() for band in (M.sub, M.diag, M.sup))
    else:
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise InvalidSpecError(f"{name} must be square, got shape {M.shape}")
        finite = np.isfinite(M).all()
    if not finite:
        raise InvalidSpecError(f"{name} contains NaN/Inf")
    return M


@dataclasses.dataclass(frozen=True)
class SylvesterProblem:
    """L X + X R = C with all blocks square of the same size.

    L and R may be TriDiagMatrix objects; C is dense.
    """

    L: np.ndarray | TriDiagMatrix
    R: np.ndarray | TriDiagMatrix
    C: np.ndarray

    def __post_init__(self):
        for name in ("L", "R", "C"):
            object.__setattr__(self, name, _as_square(getattr(self, name), name))
        if not (self.L.shape == self.R.shape == self.C.shape):
            raise InvalidSpecError(
                f"inconsistent sizes {self.L.shape}, {self.R.shape}, {self.C.shape}"
            )

    @property
    def size(self):
        return self.L.shape[0]


@dataclasses.dataclass(frozen=True)
class CoupledProblem:
    """The symmetric cross-coupled pair of Lyapunov-Sylvester equations.

    W_right defaults to W itself; the stepper passes W.T because the Neumann
    rows of the difference matrix break symmetry.  The coefficients W, R, S
    and W_right may be TriDiagMatrix objects (the stepper passes its step
    operators unchanged); C1 and C2 are dense.
    """

    W: np.ndarray | TriDiagMatrix
    R: np.ndarray | TriDiagMatrix
    S: np.ndarray | TriDiagMatrix
    C1: np.ndarray
    C2: np.ndarray
    W_right: np.ndarray | TriDiagMatrix | None = None

    def __post_init__(self):
        if self.W_right is None:
            object.__setattr__(self, "W_right", self.W)
        for name in ("W", "R", "S", "C1", "C2", "W_right"):
            M = _as_square(getattr(self, name), name)
            object.__setattr__(self, name, M)
            if M.shape != self.W.shape:
                raise InvalidSpecError(f"{name} shape {M.shape} != W shape {self.W.shape}")

    @property
    def size(self):
        return self.W.shape[0]


def _min_pair_sum(lams, mus):
    """min_{i,j} |lam_i + mu_j| and the attaining pair."""
    sums = np.abs(lams[:, None] + mus[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    return float(sums[i, j]), (complex(lams[i]), complex(mus[j]))


def _check_margin(lams, mus, scale, context, branch=None):
    margin, pair = _min_pair_sum(lams, mus)
    if margin < DENOM_RTOL * max(scale, 1.0):
        raise SolvabilityError(
            f"{context}: eigenvalue pair lam={pair[0]:.6g}, mu={pair[1]:.6g} "
            f"gives denominator |lam+mu| = {margin:.3e}",
            pair=pair,
            branch=branch,
        )
    return margin


def _bartels_stewart(L, R, C, context, branch=None):
    """X solving L X + X R = C, and the margin min |lam_i + mu_j| of the pair."""
    L, R = np.asarray(L), np.asarray(R)
    TL, QL = scipy.linalg.schur(L)
    TR, QR = scipy.linalg.schur(R)
    scale = max(np.linalg.norm(L), np.linalg.norm(R))
    lams, mus = np.linalg.eigvals(TL), np.linalg.eigvals(TR)
    margin = _check_margin(lams, mus, scale, context, branch)
    Z, factor, info = scipy.linalg.lapack.dtrsyl(TL, TR, QL.T @ C @ QR)
    if info < 0:
        raise SolvabilityError(f"{context}: trsyl rejected argument {-info}", branch=branch)
    return QL @ (Z / factor) @ QR.T, margin


def solve_sylvester(p: SylvesterProblem) -> np.ndarray:
    """Solve L X + X R = C; raises SolvabilityError on (near-)common spectra."""
    return _bartels_stewart(p.L, p.R, p.C, "Sylvester problem not solvable")[0]


def _solve_coupled(p: CoupledProblem):
    """X, Y and the smaller margin of the two decoupled branches."""
    W, R, S, Wr = p.W, p.R, p.S, p.W_right
    P, m_sum = _bartels_stewart(W + R, Wr + S, p.C1 + p.C2, "sum branch failed", "sum")
    Q, m_diff = _bartels_stewart(W - R, Wr - S, p.C1 - p.C2, "difference branch failed", "diff")
    return 0.5 * (P + Q), 0.5 * (P - Q), min(m_sum, m_diff)


def solve_coupled(p: CoupledProblem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled pair by sum/difference decoupling."""
    X, Y, _ = _solve_coupled(p)
    return X, Y


def kronecker_solve(
    p: CoupledProblem, max_size: int = KRONECKER_MAX_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Method I: vectorize both unknowns into one dense 2 n^2 linear system.

    Column-stacking identities: vec(W X) = (I kron W) vec(X) and
    vec(X M) = (M.T kron I) vec(X).
    """
    n = p.size
    if n > max_size:
        raise SizeGuardError(
            f"Kronecker path refused: size {n} > guard {max_size} "
            f"(dense system would be {2 * n * n} x {2 * n * n}, "
            f"{8 * (2 * n * n) ** 2:,} bytes; budget {KRONECKER_MAX_BYTES:,})"
        )
    I = np.eye(n)
    A_W = np.kron(I, p.W) + np.kron(p.W_right.T, I)
    A_RS = np.kron(I, p.R) + np.kron(p.S.T, I)
    M = np.block([[A_W, A_RS], [A_RS, A_W]])
    b = np.concatenate([p.C1.ravel(order="F"), p.C2.ravel(order="F")])
    try:
        sol = np.linalg.solve(M, b)
    except np.linalg.LinAlgError as exc:
        raise SolvabilityError(f"Kronecker system singular: {exc}") from exc
    X = sol[: n * n].reshape((n, n), order="F")
    Y = sol[n * n :].reshape((n, n), order="F")
    return X, Y


def residual(p, solution) -> float:
    """Relative residual in the Frobenius norm; 0/0 counts as 0."""
    if isinstance(p, SylvesterProblem):
        X = np.asarray(solution)
        num = np.linalg.norm(p.L @ X + X @ p.R - p.C)
        den = np.linalg.norm(p.C)
    elif isinstance(p, CoupledProblem):
        X, Y = (np.asarray(s) for s in solution)
        r1 = p.W @ X + X @ p.W_right + p.R @ Y + Y @ p.S - p.C1
        r2 = p.W @ Y + Y @ p.W_right + p.R @ X + X @ p.S - p.C2
        num = np.hypot(np.linalg.norm(r1), np.linalg.norm(r2))
        den = np.hypot(np.linalg.norm(p.C1), np.linalg.norm(p.C2))
    else:
        raise InvalidSpecError(f"unsupported problem type {type(p).__name__}")
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return float(num / den)


def solvability_margin(W, R, S, W_right=None) -> float:
    """min over both decoupled branches of min_{i,j} |lam_i + mu_j|.

    A positive value certifies that the coupled operator is invertible.
    """
    W = _as_square(W, "W")
    R = _as_square(R, "R")
    S = _as_square(S, "S")
    Wr = W if W_right is None else _as_square(W_right, "W_right")
    margin = np.inf
    for Lb, Rb in ((W + R, Wr + S), (W - R, Wr - S)):
        lams = np.linalg.eigvals(Lb)
        mus = np.linalg.eigvals(Rb)
        value, _ = _min_pair_sum(lams, mus)
        margin = min(margin, value)
    return float(margin)
