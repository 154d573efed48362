"""Standard and coupled Sylvester solvers with a Kronecker baseline.

The production path solves stacks of equations L_b X_b + X_b R_b = C_b,
b over a stack of one (a single equation) or two (the branches of a coupled
pair), in two parts.  `_factor` writes L_b = VL_b TL_b VL_b^-1 and R_b =
VR_b TR_b VR_b^-1 once, with V = D^-1 Q and V^-1 = Q^T D for an orthogonal
Q and a positive diagonal D, and keeps the factorization as it is: the
(B, n, n) stacks QL and QR and one scale plane w_b = d_L[:, None] /
d_R[None, :].  It also checks every shift c_k the stack will be solved at:
a `SolvePlan`.  `_solve` then solves row k, shifted by s_b = signs[b] c_k,
(L_b + s_b I) X_b + X_b (R_b + s_b I) = C_b: the factors do not move, so it
transforms the whole stack to Z = QL^T (w * C) QR = VL^-1 C VR in one scale
and two batched products, solves the core equations with TL_b + s_b I and
TR_b + s_b I, and transforms back to X = (QL Z QR^T) / w in two more
products and one division.  There are two kernels, chosen per pair:

  diagonal  when L and R are both TriDiagMatrix objects diagonally similar
            to a symmetric tridiagonal (every off-diagonal pair has
            sub * sup > 0, or sub = sup = 0): TL, TR are the real diagonals
            and Q the eigenvectors from `numpy.linalg.eigh` of the
            symmetrized tridiagonal, D its symmetrizer, no inverse taken,
            and the core solve is one entrywise division by lam_i + mu_j +
            2 s_b over every diagonal slice of the stack (the fast
            diagonalization method of Lynch, Rice and Thomas, 1964).  A
            pair whose two symmetrized tridiagonals are bitwise equal, as
            for R = L^T (the stepper's pairs when lambda = gamma), takes one
            `eigh` for both sides, and its QR is QL;
  schur     for every other pair, dense or not symmetrizable: real Schur
            forms (Q orthogonal, D = I so w = 1, TL, TR quasi-triangular
            with 2 x 2 blocks for complex-conjugate pairs) and LAPACK trsyl
            on its own slice.

On a centred grid (L0 = -L1) every band commutes with the flip of the
node order bitwise, and every right-hand side of a run from even data is
bitwise even in x and in y (`StepOperators.image`).  The plan of a
Method II run long enough to repay it (`_factor` with `fold`, which
`stepper.prepare` passes) then also keeps a quadrant stack: each pair
restricted to its modes even in both directions, of size m = ceil(n/2)
(`_fold_pair`, the symmetry-adapted basis of Fassler and Stiefel, 1992),
factored as any pair is, with one `eigh` of size m per distinct side.
Such a run is carried on the quadrant (`stepper.march`): every level is
held as its (2, m, m) quadrant, and `_solve` takes the quadrant stack for
an m-wide C, at 1/8 of the full stack's GEMM flops, and returns the
m-wide solution.  An n-wide C, an asymmetric grid, a shorter run, Method
I's plan and the standalone solvers below use the full stack, and the
margins are always the full pairs'.

The solvability margin min |lam_i + mu_j + 2 s_b| is checked against
DENOM_RTOL when the plan is made, never in a solve; `_margins` does so for
every shift at once.  On the diagonal kernel it is the smallest denominator
the solve divides by, found with one sort and O(log n) per shift.  The
stepper's plan holds every step's shift c_n; the standalone solvers below
plan and solve at shift 0 and check the residual of what they return.

The coupled pair

    W X + X Wr + R Y + Y S = C1
    W Y + Y Wr + R X + X S = C2

decouples exactly: P = X+Y solves (W+R) P + P (Wr+S) = C1+C2 and Q = X-Y
solves (W-R) Q + Q (Wr-S) = C1-C2.

kronecker_solve, Method I in the benchmarks and the brute-force oracle for
the decoupled path, vectorizes each branch into dense linear systems and
solves them by Gaussian elimination with partial pivoting.  A general
branch is one n^2 system, an LU of (2/3) n^6 flops; the two of them take
a quarter of the (16/3) n^6 that one 2 n^2 system in both unknowns X, Y
would take with its cross blocks R, S, which the decoupling removes
exactly.  A branch L P + P L^T = C, as each of the stepper's is when
lambda = gamma, is a Lyapunov equation: its symmetric and skew parts
solve apart, half-vectorized, as systems of n(n+1)/2 and n(n-1)/2
unknowns, LUs of about n^6 / 6 flops together, a quarter again.  The
image of a step (`StepOperators.image`) keeps a symmetric level's image
exactly symmetric when lambda = gamma, so every right-hand side of such a
run is exactly symmetric, its skew part is exactly 0, and only the
symmetric system, about n^6 / 12 flops, is formed.  On a centred grid
(L0 = -L1) the bands commute with the flip of the node order bitwise, the
image keeps an even level's image exactly even, and every right-hand side
of a run from even data is even in x and in y; each branch is then solved
on its quadrant of size ceil(n/2), about 1/64 of the LU flops again, and
unfolded (`kronecker_solve`).

The diagonal kernel runs on numpy alone.  `scipy.linalg` is imported on
first use by the three routines that need it, the Schur factorization, the
trsyl solve of a Schur pair and Method I's dgesv, so a process that only
takes the diagonal kernel does not pay its import (about 0.27 s and 28 MB
of RSS on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time

import numpy as np

from .exceptions import InvalidSpecError, SizeGuardError, SolvabilityError
from .operators import BRANCH_SIGNS, TriDiagMatrix, _even, _sum_diff, _unfold

# A diagonal denominator |lam_i + mu_j| below DENOM_RTOL * norm(inputs) is
# treated as a solvability failure rather than allowed to produce garbage.
DENOM_RTOL = 1e-12

# `solve_sylvester` and `solve_coupled` refuse a solution whose relative
# residual (`residual`) is above this bound or not finite.  The standalone
# solves of the test suite stay at or below 2.1e-11; a pair whose transforms
# are too ill-conditioned for float64 lands orders of magnitude above it.
SOLVE_RESIDUAL_MAX = 1e-8

# Byte budget for the dense Kronecker matrix of one general branch,
# 8 (n^2)^2 = 8 n^4 bytes, and the largest size within it: 76, i.e. J <= 74.
# kronecker_solve fills and factors one buffer in place for each system in
# turn, so the solve's peak is that buffer plus O(n^3) index and work
# arrays.  The guard bounds the general system on every call: a call whose
# branches are all Lyapunov equations (lambda = gamma) needs only the
# buffer of the symmetric part, 8 (n(n+1)/2)^2 bytes, about a quarter, and
# a call folded onto its quadrant (`kronecker_solve`) about 1/16 of either.
KRONECKER_MAX_BYTES = 2**28
KRONECKER_MAX_SIZE = math.isqrt(math.isqrt(KRONECKER_MAX_BYTES // 8))


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


@dataclasses.dataclass(frozen=True)
class CoupledProblem:
    """The symmetric cross-coupled pair of Lyapunov-Sylvester equations.

    W_right defaults to W itself; the stepper's Method I passes W.T because
    the Neumann rows of the difference matrix break symmetry.  The
    coefficients W, R, S and W_right may be TriDiagMatrix objects (Method I
    builds them from the U/V coefficients it reads off the plan's factored
    branch pairs); C1 and C2 are dense.
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


def format_pair(lam: complex, mu: complex) -> str:
    """'lam=..., mu=...' to 6 digits; a value with zero imaginary part prints as a real."""
    return ", ".join(
        f"{name}={z.real if z.imag == 0.0 else z:.6g}" for name, z in (("lam", lam), ("mu", mu))
    )


_CONTEXT = {
    None: "Sylvester problem not solvable",
    "sum": "sum branch failed",
    "diff": "difference branch failed",
}


@dataclasses.dataclass(frozen=True)
class _Pair:
    """One factored pair L = VL TL VL^-1, R = VR TR VR^-1 of a stack.

    The "diagonal" kernel has real diagonal cores, kept as their ascending
    spectra (TL and TR are None); the "schur" kernel keeps the
    quasi-triangular cores for trsyl.  L + s I = VL (TL + s I) VL^-1
    (likewise R), so the spectra move by s.  The transforms live in the
    stack (`SolvePlan`); a pair that shares one `eigh` holds its spectrum
    once, as lams and mus both.
    """

    L: np.ndarray | TriDiagMatrix  # the pair as given, banded or not
    R: np.ndarray | TriDiagMatrix
    TL: np.ndarray | None
    TR: np.ndarray | None
    lams: np.ndarray
    mus: np.ndarray
    branch: str | None

    @property
    def kernel(self) -> str:
        return "diagonal" if self.TL is None else "schur"


@dataclasses.dataclass(frozen=True)
class _Stack:
    """The transforms of a factored stack of pairs (L_b, R_b), as `_solve_stack` reads them.

    QL, QR and w are (B, n, n) stacks: each side's orthogonal eigenvectors
    (or Schur vectors) and the scale plane w_b = d_L[:, None] /
    d_R[None, :] of the pair's symmetrizers (1 on a Schur pair's slice), so
    VL^-1 C VR = QL^T (w * C) QR.  QR is QL, the same array, when every
    pair shares one `eigh` (`_factor_pair`).  `sums` holds lam_i + mu_j
    of the diagonal pairs (zero on a Schur pair's slice).  `diagonal`
    indexes the diagonal slices (all of them as one slice when no pair is
    Schur) and `schur` lists the others.
    """

    pairs: tuple[_Pair, ...]
    QL: np.ndarray
    QR: np.ndarray
    w: np.ndarray
    sums: np.ndarray
    diagonal: slice | list[int]
    schur: tuple[int, ...]

    @property
    def kernels(self) -> tuple[str, ...]:
        """The solve kernel of each pair: "diagonal" or "schur"."""
        return tuple(pair.kernel for pair in self.pairs)


@dataclasses.dataclass(frozen=True)
class SolvePlan(_Stack):
    """A factored stack of pairs (L_b, R_b) and the checked shifts it is solved at.

    Row k solves pair b shifted by signs[b] shifts[k] on both sides: +1 for
    a single equation and for the sum branch, -1 for the difference branch
    (`BRANCH_SIGNS`).  The stack's transforms are those of `_Stack`.
    `margins` (K, B) holds every row's margins, all above the solvability
    floor (on a diagonal pair, the smallest |sums + 2 s_b| that row k
    divides by), and `attaining` (K, B, 2) the shifted eigenvalue pairs
    that attain them.  `quadrant`, when the plan was made with `fold` and
    every band is bitwise mirrored, is the (B, m, m) stack of the pairs
    restricted to their modes even in both directions, m = ceil(n/2)
    (`_fold_pair`); `_solve` takes it for an m-wide right-hand side, the
    quadrant of an even one, and no margin is read from it.
    """

    signs: np.ndarray  # (B, 1, 1), to scale the slices of a stack
    shifts: np.ndarray
    margins: np.ndarray
    attaining: np.ndarray
    factor_time: float
    quadrant: _Stack | None

    def min_margin(self) -> tuple[float, int, str, tuple[complex, complex]]:
        """The smallest margin, its step (row + 1), its branch and the shifted
        eigenvalue pair that attains it; a tie goes to the earliest step, then
        to "diff" before "sum"."""
        later_first = self.margins[:, ::-1]
        k, b = np.unravel_index(np.argmin(later_first), later_first.shape)
        b = len(self.pairs) - 1 - b
        pair = tuple(self.attaining[k, b].tolist())
        return float(self.margins[k, b]), int(k) + 1, self.pairs[b].branch, pair


def _norm2_trace(M) -> tuple[float, float]:
    """||M||_F^2 and tr M."""
    if isinstance(M, TriDiagMatrix):
        return sum(float(np.dot(b, b)) for b in (M.sub, M.diag, M.sup)), float(M.diag.sum())
    return float(np.vdot(M, M)), float(np.trace(M))


def _symmetrizer(M):
    """(d, e) with diag(d) M diag(d)^-1 symmetric with off-diagonal e, for a
    TriDiagMatrix whose rows all have sub * sup > 0 or sub = sup = 0; else None.

    d_0 = 1 and d_{i+1} = d_i sqrt(sup_i / sub_i); e = sign(sup) sqrt(sub sup).
    """
    if not isinstance(M, TriDiagMatrix):
        return None
    with np.errstate(over="ignore"):
        prod = M.sub * M.sup
        zero = (M.sub == 0.0) & (M.sup == 0.0)
        if not (np.all((prod > 0.0) | zero) and np.isfinite(prod).all()):
            return None
        ratio = np.divide(M.sup, M.sub, out=np.ones_like(prod), where=~zero)
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(ratio))))
    if not (np.isfinite(d).all() and np.all(d > 0.0)):
        return None
    return d, np.sign(M.sup) * np.sqrt(prod)


def _symmetric_eig(diag, e):
    """(lams, Q) = `numpy.linalg.eigh` of the symmetric tridiagonal T with
    diagonal `diag` and off-diagonal e.  For T = D M D^-1 from the
    symmetrizer (d, e) of M, M = V diag(lams) V^-1 with V = D^-1 Q and
    V^-1 = Q^T D; `_solve` applies D as a scale, so no V is formed."""
    T = np.diag(diag)
    i = np.arange(e.size)
    T[i, i + 1] = T[i + 1, i] = e
    return np.linalg.eigh(T)


def _factor_pair(L, R, branch):
    """The `_Pair` of (L, R) and its transforms (QL, QR, w).

    A pair of TriDiagMatrix coefficients that are both diagonally similar to
    a symmetric tridiagonal takes the diagonal kernel: QL and QR are the
    eigenvectors of the symmetrized sides and w = d_L[:, None] / d_R[None, :]
    the scale plane of their symmetrizers.  When the two symmetrized
    tridiagonals are bitwise equal (same diagonal and e, as for R = L^T),
    one `eigh` serves both sides and QR is QL, the same array.  Any other
    pair (dense, or a row with sub * sup < 0, or sub = 0 != sup) takes the
    real Schur forms, with orthogonal QL, QR and w = 1.
    """
    data = dict(L=L, R=R, branch=branch)
    syms = _symmetrizer(L), _symmetrizer(R)
    if all(sym is not None for sym in syms):
        (dL, eL), (dR, eR) = syms
        lams, QL = _symmetric_eig(L.diag, eL)
        shared = np.array_equal(L.diag, R.diag) and np.array_equal(eL, eR)
        mus, QR = (lams, QL) if shared else _symmetric_eig(R.diag, eR)
        pair = _Pair(TL=None, TR=None, lams=lams, mus=mus, **data)
        return pair, (QL, QR, dL[:, None] / dR[None, :])
    import scipy.linalg

    TL, QL = scipy.linalg.schur(np.asarray(L))
    TR, QR = scipy.linalg.schur(np.asarray(R))
    pair = _Pair(TL=TL, TR=TR, lams=np.linalg.eigvals(TL), mus=np.linalg.eigvals(TR), **data)
    return pair, (QL, QR, np.ones_like(QL))


def _fold_band(M: TriDiagMatrix, rows: bool) -> TriDiagMatrix:
    """The band M restricted to vectors even under the flip, on the first m =
    ceil(n/2) indices: S^T M E with its columns folded (rows False, a left
    side) or E^T M S with its rows folded (rows True, a right side), where
    E unfolds, E[j, min(j, n-1-j)] = 1, and S^T keeps the first m entries.

    Only the centre changes.  Folding columns, for an odd n = 2k+1 the
    centre row's sub[k-1] gains sup[k] (column k+1 is column k-1's
    mirror), and for an even n = 2k the last diagonal entry gains sup[k-1]
    (column k is column k-1's mirror).  Folding rows is the same on M^T:
    sup[k-1] gains sub[k], or the last diagonal entry gains sub[k-1].
    """
    n = M.size
    m, k = (n + 1) // 2, n // 2
    near, far = (M.sup, M.sub) if rows else (M.sub, M.sup)  # far crosses the centre
    diag, folded = M.diag[:m].copy(), near[: m - 1].copy()
    if n % 2:
        folded[k - 1] += far[k]
    else:
        diag[k - 1] += far[k - 1]
    lo, hi = (far[: m - 1], folded) if rows else (folded, far[: m - 1])
    return TriDiagMatrix(sub=lo, diag=diag, sup=hi)


def _fold_pair(pair: _Pair):
    """The pair (L, R) restricted to its modes even in both directions: the
    `_Pair` of its folded bands (`_fold_band`) and its transforms.

    On that subspace X = E Xe E^T, and L X + X R = C with C even becomes
    L_e Xe + Xe R_e = C[:m, :m], with L_e = S^T L E and R_e = E^T R S; the
    eigenvalues of L_e are those of L with an even eigenvector, likewise
    for R_e.  The folded pair is factored as any pair is (`_factor_pair`),
    with one `eigh` of size m per side, one for both when the folded pair is
    transposed.  A mirrored band's products sub * sup are mirrored too, and
    the fold doubles the centre's sub or moves only a diagonal entry, so a
    diagonal pair folds to a diagonal pair and a Schur pair to a Schur pair.
    """
    return _factor_pair(_fold_band(pair.L, rows=False), _fold_band(pair.R, rows=True), pair.branch)


def _stack(factored) -> dict:
    """The `_Stack` fields of the factored pairs [(pair, (QL, QR, w)), ...]."""
    records = tuple(pair for pair, _ in factored)
    QLs, QRs, ws = zip(*(V for _, V in factored))
    QL, w = np.stack(QLs), np.stack(ws)
    QR = QL if all(qr is ql for ql, qr in zip(QLs, QRs)) else np.stack(QRs)
    sums = np.zeros_like(QL)
    for b, pair in enumerate(records):
        if pair.kernel == "diagonal":
            np.add(pair.lams[:, None], pair.mus[None, :], out=sums[b])
    schur = tuple(b for b, pair in enumerate(records) if pair.kernel == "schur")
    diagonal = [b for b in range(len(records)) if b not in schur] if schur else slice(None)
    return dict(pairs=records, QL=QL, QR=QR, w=w, sums=sums, diagonal=diagonal, schur=schur)


def _factor(pairs, branches=(None,), shifts=(0.0,), steps=None, fold=False) -> SolvePlan:
    """Factor the pairs ((L, R), ...) once, as one stack, and check it at
    every shift of `shifts`.

    A named branch is shifted with its sign in `BRANCH_SIGNS`, an unnamed
    pair (a single equation) by +1.  Raises SolvabilityError (`_margins`)
    before anything is solved.  With `fold`, when every side is a
    TriDiagMatrix of size n >= 2 that is bitwise mirrored (`_mirrored`),
    the plan also keeps the quadrant stack of the folded pairs
    (`_fold_pair`), factored after the margins pass; its margins are not
    checked apart, since its eigenvalues are among the full pairs'.
    `factor_time` covers both factorizations, not the margins.
    """
    t_start = time.perf_counter()
    stack = _stack([_factor_pair(L, R, branch) for (L, R), branch in zip(pairs, branches)])
    signs = np.array([BRANCH_SIGNS.get(branch, 1.0) for branch in branches])
    factor_time = time.perf_counter() - t_start
    shifts = np.array(shifts, dtype=float)
    shifts.flags.writeable = False  # a solve runs only at the shifts checked here
    margins, attaining = _margins(stack["pairs"], signs, shifts, stack["sums"], steps)
    t_start = time.perf_counter()
    quadrant = None
    if fold and all(
        isinstance(M, TriDiagMatrix) and M.size >= 2 and _mirrored(M) for pair in pairs for M in pair
    ):
        quadrant = _Stack(**_stack([_fold_pair(pair) for pair in stack["pairs"]]))
    return SolvePlan(
        **stack, signs=signs[:, None, None], shifts=shifts, margins=margins, attaining=attaining,
        factor_time=factor_time + time.perf_counter() - t_start, quadrant=quadrant,
    )


def _shifted_minima(pair: _Pair, sums: np.ndarray, s: np.ndarray):
    """For each shift s_k: the pair's margin and the attaining shifted pair
    (lam_i + s_k, mu_j + s_k).

    On the diagonal kernel the margin is the smallest denominator
    |fl(x + 2 s_k)|, x in the pair's `sums`, that `_solve` divides by.  In
    the table sorted once, p = searchsorted(table, -2 s_k) is the first x
    with x + 2 s_k >= 0.  Rounding is monotone and fl(0) = 0, so fl(x +
    2 s_k) rises with x, <= 0 before p and >= 0 from p: entry p - 1 or p
    holds the minimum of the whole table.  A Schur pair's spectra are
    complex, with no order: each shift evaluates every (lam_i + s_k) +
    (mu_j + s_k).
    """
    lams, mus = pair.lams, pair.mus
    if pair.kernel == "schur":
        minima = [_min_pair_sum(lams + sk, mus + sk) for sk in s]
        return [m for m, _ in minima], np.reshape([a for _, a in minima], (-1, 2))
    order = np.argsort(sums, axis=None, kind="stable")
    table = sums.ravel()[order]
    p = np.searchsorted(table, -2.0 * s)
    near = np.stack((np.maximum(p - 1, 0), np.minimum(p, table.size - 1)), axis=1)
    denominators = np.abs(table[near] + 2.0 * s[:, None])
    best = np.where(denominators[:, 0] <= denominators[:, 1], near[:, 0], near[:, 1])
    i, j = np.divmod(order[best], mus.size)
    return denominators.min(axis=1), np.stack((lams[i] + s, mus[j] + s), axis=1)


def _margins(pairs, signs, cs, sums, steps=None):
    """The margins of every pair b of `pairs` and slice b of `sums` shifted
    by signs[b] c, for each c of `cs`: a (K, B) array, and the attaining
    shifted eigenvalue pairs as a (K, B, 2) complex array.

    Raises SolvabilityError for the first shift (then the first pair) whose
    margin is below DENOM_RTOL times the norm of its shifted coefficients,
    or is NaN (a shift that is not finite), naming the pair, the branch and,
    when `steps` labels the shifts, the step.
    """
    margins = np.empty((cs.size, len(pairs)))
    attaining = np.empty((cs.size, len(pairs), 2), dtype=complex)
    floors = np.empty_like(margins)
    for b, (pair, sign) in enumerate(zip(pairs, signs)):
        n = pair.lams.size
        s = sign * cs
        margins[:, b], attaining[:, b] = _shifted_minima(pair, sums[b], s)
        # ||M + s I||_F^2 = ||M||_F^2 + 2 s tr M + n s^2, for M = L and R
        scale2 = np.maximum(*(
            nn + 2.0 * s * tr + n * s * s for nn, tr in map(_norm2_trace, (pair.L, pair.R))
        ))
        floors[:, b] = DENOM_RTOL * np.maximum(np.sqrt(np.maximum(scale2, 0.0)), 1.0)
    failing = np.argwhere(~(margins >= floors))  # a NaN margin fails
    if failing.size:
        k, b = failing[0]
        branch = pairs[b].branch
        step = None if steps is None else steps[k]
        where = _CONTEXT[branch] if step is None else f"step {step}: {_CONTEXT[branch]}"
        lam, mu = attaining[k, b]
        raise SolvabilityError(
            f"{where}: eigenvalue pair {format_pair(lam, mu)} "
            f"gives denominator |lam+mu| = {margins[k, b]:.3e}",
            pair=(complex(lam), complex(mu)),
            branch=branch,
            step=step,
        )
    return margins, attaining


def _solve(plan: SolvePlan, C: np.ndarray, k: int) -> np.ndarray:
    """The stack X solving (L_b + s_b I) X_b + X_b (R_b + s_b I) = C_b for
    every pair b, with s_b = signs[b] shifts[k], at row k of the plan's
    checked shifts.

    The width of C chooses the stack.  An m-wide C, m = ceil(n/2), is the
    quadrant of an even right-hand side, and is solved on the plan's
    quadrant stack (`_solve_stack`, 1/8 of the full stack's GEMM flops);
    the solution is that of the even solution's quadrant, m wide too.  The
    caller owns the evenness: a run carried on the quadrant
    (`stepper.march`) checks it once, on its seeds and forcing samples.  An
    n-wide C is solved on the full stack; an m-wide C and a plan without a
    quadrant stack raise InvalidSpecError.
    """
    stack = plan.quadrant if C.shape[-1] < plan.QL.shape[-1] else plan
    if stack is None:
        raise InvalidSpecError(f"a right-hand side of width {C.shape[-1]} needs a quadrant stack")
    return _solve_stack(stack, plan.signs, plan.shifts[k], C)


def _solve_stack(stack: _Stack, signs: np.ndarray, c: float, C: np.ndarray) -> np.ndarray:
    """The stack X solving (L_b + s_b I) X_b + X_b (R_b + s_b I) = C_b for
    every pair b of `stack`, with s_b = signs[b] c.

    With Z = VL^-1 X VR the equations become (TL + s I) Z + Z (TR + s I) =
    VL^-1 C VR = QL^T (w * C) QR: one scale and two batched products each
    way over the stack (the transposes are views), one entrywise division
    by lam_i + mu_j + 2 s_b over the diagonal slices and LAPACK trsyl on a
    Schur pair's slice; X = VL Z VR^-1 = (QL Z QR^T) / w.
    """
    QL, QR, w = stack.QL, stack.QR, stack.w
    Z = QL.swapaxes(1, 2) @ (w * C) @ QR
    d = stack.diagonal
    Z[d] /= stack.sums[d] + (2.0 * c) * signs[d]
    if stack.schur:
        import scipy.linalg
    for b in stack.schur:
        pair, s = stack.pairs[b], c * signs[b, 0, 0]
        TL, TR = pair.TL.copy(order="F"), pair.TR.copy(order="F")
        TL[np.diag_indices_from(TL)] += s
        TR[np.diag_indices_from(TR)] += s
        Zb, factor, info = scipy.linalg.lapack.dtrsyl(TL, TR, Z[b])
        if info < 0:
            raise SolvabilityError(
                f"{_CONTEXT[pair.branch]}: trsyl rejected argument {-info}", branch=pair.branch
            )
        Z[b] = Zb / factor
    return (QL @ Z @ QR.swapaxes(1, 2)) / w


def _checked(p, solution):
    """`solution` of `p` if its `residual` is at most SOLVE_RESIDUAL_MAX, else SolvabilityError."""
    res = residual(p, solution)
    if not res <= SOLVE_RESIDUAL_MAX:
        raise SolvabilityError(
            f"solve refused: relative residual {res:.3e} is not <= {SOLVE_RESIDUAL_MAX:.1e}"
        )
    return solution


def solve_sylvester(p: SylvesterProblem) -> np.ndarray:
    """Solve L X + X R = C; raises SolvabilityError on (near-)common spectra
    and on a solution whose residual is above SOLVE_RESIDUAL_MAX."""
    return _checked(p, _solve(_factor([(p.L, p.R)]), p.C[None], 0)[0])


def _branch_pairs(W, R, S, W_right) -> tuple:
    """The coefficient pairs (sum, diff) of the branches, (W + s R, Wr + s S)."""
    return tuple((W + s * R, W_right + s * S) for s in BRANCH_SIGNS.values())


def solve_coupled(p: CoupledProblem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled pair by sum/difference decoupling; raises
    SolvabilityError as `solve_sylvester` does, the residual read in the
    pair's own two equations."""
    plan = _factor(_branch_pairs(p.W, p.R, p.S, p.W_right), tuple(BRANCH_SIGNS))
    return _checked(p, tuple(_sum_diff(_solve(plan, _sum_diff((p.C1, p.C2)), 0), 0.5)))


def _check_kronecker_size(n: int):
    """SizeGuardError if Method I's dense branch system at size n exceeds KRONECKER_MAX_SIZE.

    The guard is read at call time, and `stepper.march` calls this before it
    builds any operator of a Method I run.
    """
    if n > KRONECKER_MAX_SIZE:
        raise SizeGuardError(
            f"Kronecker path refused: size {n} > guard {KRONECKER_MAX_SIZE} "
            f"(dense branch system would be {n * n} x {n * n}, "
            f"{8 * (n * n) ** 2:,} bytes; budget {KRONECKER_MAX_BYTES:,})"
        )


def _dgesv(A, b, branch, part=""):
    """x solving A x = b by LAPACK dgesv, A factored in place; SolvabilityError
    naming the branch (and the part of a Lyapunov branch) on a zero pivot."""
    import scipy.linalg

    _, _, x, info = scipy.linalg.lapack.dgesv(A, b, overwrite_a=True, overwrite_b=True)
    if info > 0:
        raise SolvabilityError(
            f"Kronecker system singular in the {branch} branch{part}: "
            f"U[{info - 1}, {info - 1}] is zero",
            branch=branch,
        )
    return x


def _system(buffer, N):
    """The zeroed N x N Fortran-ordered view of the head of the flat `buffer`."""
    A = buffer[: N * N].reshape((N, N), order="F")
    A.fill(0.0)
    return A


def _kronecker_branch(L, M, C, branch, buffer):
    """P solving L P + P M = C as the n^2 system I kron L + M.T kron I.

    By vec(L P) = (I kron L) vec(P) and vec(P M) = (M.T kron I) vec(P),
    column-stacked.  The system is written into the buffer through its 4-D
    view: one indexed assignment for I kron L, then M.T added in place into
    n views, one per i, for M.T kron I, whose targets are distinct and meet
    I kron L only on the diagonal they share, so no n^3 temporary is made.
    """
    n = L.shape[0]
    K = _system(buffer, n * n)
    # row i + n j, column k + n m -> K4[i, j, k, m]: equation (i, j), unknown (k, m)
    K4 = K.reshape((n, n, n, n), order="F")
    a = np.arange(n)
    # (L P)[i, j] = sum_k L[i, k] P[k, j]: K4[i, j, k, j] = L[i, k]
    K4[:, a, :, a] = L
    # (P M)[i, j] = sum_m P[i, m] M[m, j]: K4[i, j, i, m] += M[m, j]
    for i in range(n):
        K4[i, :, i, :] += M.T
    return _dgesv(K, C.ravel(order="F"), branch).reshape((n, n), order="F")


@dataclasses.dataclass(frozen=True)
class _HalfVec:
    """The index tables of one part of a half-vectorized Lyapunov system of size n.

    Unknown k stands for P[I[k], J[k]], i <= j for the symmetric part and
    i < j for the skew part, and P[a, b] = sgn[a, b] u[col[a, b]]: sgn is 1
    on and above the diagonal, +1 (symmetric) or -1 (skew) below it, and 0
    on the skew part's diagonal, which is no unknown (col 0 there).  `terms`
    holds, for (L P) and (P L^T) in turn, (at, negate): the (N, n) flat
    positions in the system's column-major storage that row k's
    coefficients over c go to, and where they take the sign -1.  An entry
    of sign 0 goes to column N, one past the system, so no entry is masked
    out.  The tables depend on n and the part alone, so `kronecker_solve`
    builds each part's once per call and both branches share them.
    """

    part: str
    I: np.ndarray
    J: np.ndarray
    col: np.ndarray
    sgn: np.ndarray
    terms: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _half_vec(n: int, sign: float) -> _HalfVec:
    """The `_HalfVec` tables of the symmetric (sign +1) or skew (-1) part at size n.

    Row k = (i, j) = (I[k], J[k]) gets L[i, c] sgn[c, j] at column col[c, j]
    for (L P)[i, j] and L[j, c] sgn[i, c] at column col[i, c] for
    (P L^T)[i, j], over c.  Within each term a row's columns are distinct,
    the spare column N included, so each term is one indexed write.
    """
    k = 0 if sign > 0 else 1
    I, J = np.triu_indices(n, k)
    N = I.size
    col = np.zeros((n, n), dtype=np.intp)
    col[I, J] = col[J, I] = np.arange(N)
    ones = np.ones((n, n))
    sgn = np.triu(ones, k) + sign * np.tril(ones, -1)
    columns = np.where(sgn != 0.0, col, N)
    rows = np.arange(N)[:, None]
    return _HalfVec(
        part=" (symmetric part)" if sign > 0 else " (skew part)", I=I, J=J, col=col, sgn=sgn,
        terms=((rows + N * columns[:, J].T, sgn[:, J].T < 0.0),
               (rows + N * columns[I], sgn[I] < 0.0)),
    )


def _lyapunov_branch(L, C, branch, buffer, tables):
    """P solving the Lyapunov equation L P + P L^T = C in half-vectorized form.

    L P + P L^T maps symmetric P to symmetric and skew P to skew, so P is
    the sum of the symmetric solution for (C + C^T)/2 and the skew solution
    for (C - C^T)/2, each solved on its own unknowns (vech; Magnus and
    Neudecker, 1980), n(n+1)/2 and n(n-1)/2 of them.  `tables(sign)` gives
    the `_HalfVec` of a part (+1 symmetric, -1 skew), through which each
    system is written from L in two indexed writes, the second a `+=`.

    A C with np.array_equal(C, C.T), as every right-hand side of a lambda =
    gamma run is (`StepOperators.image`), has a skew part of exactly 0, so
    its skew solution is exactly 0 and its system is not formed; P is then
    the symmetric solution alone, exactly symmetric.  Skipping it changes
    no refusal: the skew restriction's eigenvalues lam_i + lam_j, i < j,
    are among the symmetric restriction's, i <= j, so a singular skew part
    makes the symmetric part, factored first, singular too.
    """
    P = np.zeros_like(C)
    for sign in (1.0,) if np.array_equal(C, C.T) else (1.0, -1.0):
        t = tables(sign)
        N = t.I.size
        A = _system(buffer, N)
        cells = buffer[: N * (N + 1)]  # A column-major, then the spare column
        # (L P)[i, j] reads row i of L and (P L^T)[i, j] row j
        (at, negate), (at_t, negate_t) = t.terms
        LP = L[t.I]
        cells[at] = np.negative(LP, out=LP, where=negate)
        PLt = L[t.J]
        cells[at_t] += np.negative(PLt, out=PLt, where=negate_t)
        u = _dgesv(A, 0.5 * (C + sign * C.T)[t.I, t.J], branch, t.part)
        P += t.sgn * u[t.col]
    return P


def _mirrored(A) -> bool:
    """Whether A == A[::-1, ::-1] bitwise: A, dense or a TriDiagMatrix,
    commutes with the flip of the index order."""
    if isinstance(A, TriDiagMatrix):
        return bool((A.diag == A.diag[::-1]).all() and (A.sub == A.sup[::-1]).all())
    return np.array_equal(A, A[::-1, ::-1])


def _fold(L, M, C):
    """The branch L P + P M = C restricted to P even in rows and columns, on its
    m x m quadrant, m = ceil(n/2): the columns of L and the rows of M are
    folded onto the quadrant, the centre of an odd n counted once."""
    n = L.shape[0]
    m, k = (n + 1) // 2, n // 2
    Le, Me = L[:m, :m].copy(), M[:m, :m].copy()
    Le[:, :k] += L[:m, ::-1][:, :k]
    Me[:k] += M[::-1, :m][:k]
    return Le, Me, C[:m, :m]


def kronecker_solve(p: CoupledProblem) -> tuple[np.ndarray, np.ndarray]:
    """Method I: each decoupled branch as dense linear systems, solved by
    Gaussian elimination with partial pivoting (LAPACK dgesv).

    The branches P = X+Y and Q = X-Y solve L P + P M = C1 + C2 with (L, M) =
    (W + R, Wr + S) and L Q + Q M = C1 - C2 with (L, M) = (W - R, Wr - S).
    The signs are written out here rather than read from BRANCH_SIGNS, so
    that the oracle does not share the fast path's sign table.

    When every branch's L and M commute with the flip of the index order
    (A == A[::-1, ::-1] bitwise, as the stepper's bands are on a centred
    grid) and both right-hand sides are bitwise even in rows and columns
    (as every right-hand side of a run from even data on such a grid is,
    `StepOperators.image`), the solution is even too, and each branch is
    solved on its m x m quadrant, m = ceil(n/2) (`_fold`; the
    symmetry-adapted basis of Fassler and Stiefel, 1992): L's columns j and
    n-1-j are added, as are M's rows, and the quadrant's solution is
    unfolded (`_unfold`, a `take` per axis), P[i, j] = Pe[r(i), r(j)],
    r(j) = min(j, n-1-j).  The folded system is the restriction of the
    branch to its modes even in both directions, so a mirrored branch that
    is singular only in a mode odd in a direction is not refused here: the
    solve then returns the even solution, whose residual is at rounding
    level.  A run is not affected, since `stepper.plan_solves` checks the
    margin of every eigenpair and refuses such a step before any solve.
    Any other problem, an asymmetric grid or a single asymmetric bit, is
    solved at full size.

    A branch whose M is bitwise L.T (after the fold, which keeps it), as
    the stepper's branches are when lambda = gamma, is a Lyapunov equation
    and takes the system of its symmetric part, N(N+1)/2 unknowns at size
    N, and, unless its right-hand side is exactly symmetric, as it is at
    every step of a lambda = gamma run, the system of its skew part,
    N(N-1)/2 unknowns (`_lyapunov_branch`): at most a quarter of the flops
    and memory of the one N^2 system (`_kronecker_branch`) that every other
    branch takes.  A J = 49 step, n = 51, so solves two systems of 351
    unknowns at lambda = gamma, in place of 1,326 unfolded.  The index
    tables of each half-vectorized part are built once per call, on first
    use, and shared by both branches.  Each system is filled into the head
    of one flat buffer, sized for the largest, and factored there in place,
    so no other system matrix, no kron temporary and no copy for LAPACK is
    made.  A size n above KRONECKER_MAX_SIZE, read at call time, raises
    SizeGuardError (`_check_kronecker_size`), folded or not.
    """
    n = p.size
    _check_kronecker_size(n)
    W, R, S, Wr = (np.asarray(A, dtype=float) for A in (p.W, p.R, p.S, p.W_right))
    C_sum, C_diff = _sum_diff((p.C1, p.C2))
    branches = [("sum", W + R, Wr + S, C_sum), ("diff", W - R, Wr - S, C_diff)]
    fold = all(_mirrored(L) and _mirrored(M) and _even(Cb) for _, L, M, Cb in branches)
    if fold:
        branches = [(branch, *_fold(L, M, Cb)) for branch, L, M, Cb in branches]
    N = (n + 1) // 2 if fold else n
    lyapunov = [np.array_equal(M, L.T) for _, L, M, _ in branches]
    buffer = np.empty(max(N * (N + 1) // 2 if lyap else N * N for lyap in lyapunov) ** 2)
    tables = functools.cache(functools.partial(_half_vec, N))
    solutions = [
        _lyapunov_branch(L, Cb, branch, buffer, tables) if lyap
        else _kronecker_branch(L, M, Cb, branch, buffer)
        for (branch, L, M, Cb), lyap in zip(branches, lyapunov)
    ]
    if fold:
        solutions = [_unfold(P, n) for P in solutions]
    return tuple(_sum_diff(solutions, 0.5))


def _ratio(num: float, den: float) -> float:
    """A relative residual num / den; 0/0 counts as 0."""
    if num == 0.0:
        return 0.0
    if den == 0.0:
        return float("inf")
    return float(num / den)


def residual(p, solution) -> float:
    """Relative residual in the Frobenius norm; 0/0 counts as 0.

    A single equation gives ||L X + X R - C|| / ||C||.  A coupled pair is
    evaluated in its own two equations, r1 = W X + X Wr + R Y + Y S - C1 and
    r2 = W Y + Y Wr + R X + X S - C2, giving ||(r1, r2)|| / ||(C1, C2)||, so
    the check does not share the branch decoupling that `solve_coupled` uses.
    """
    if isinstance(p, SylvesterProblem):
        X = np.asarray(solution)
        return _ratio(np.linalg.norm(p.L @ X + X @ p.R - p.C), np.linalg.norm(p.C))
    if isinstance(p, CoupledProblem):
        X, Y = solution
        W, Wr, R, S = p.W, p.W_right, p.R, p.S
        r1 = W @ X + X @ Wr + R @ Y + Y @ S - p.C1
        r2 = W @ Y + Y @ Wr + R @ X + X @ S - p.C2
        return _ratio(np.linalg.norm((r1, r2)), np.linalg.norm((p.C1, p.C2)))
    raise InvalidSpecError(f"unsupported problem type {type(p).__name__}")


def solvability_margin(W, R, S, W_right=None) -> float:
    """min over both decoupled branches of min_{i,j} |lam_i + mu_j|.

    A positive value certifies that the coupled operator is invertible.
    """
    W = _as_square(W, "W")
    R = _as_square(R, "R")
    S = _as_square(S, "S")
    Wr = W if W_right is None else _as_square(W_right, "W_right")
    margin = np.inf
    for Lb, Rb in _branch_pairs(W, R, S, Wr):
        lams = np.linalg.eigvals(Lb)
        mus = np.linalg.eigvals(Rb)
        value, _ = _min_pair_sum(lams, mus)
        margin = min(margin, value)
    return float(margin)
