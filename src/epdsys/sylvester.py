"""Standard and coupled Sylvester solvers with a Kronecker baseline.

The production path solves stacks of equations L_b X_b + X_b R_b = C_b,
b over a stack of one (a single equation) or two (the branches of a coupled
pair), in two parts.  `_factor` writes L_b = VL_b TL_b VL_b^-1 and R_b =
VR_b TR_b VR_b^-1 once, keeping the transforms as (B, n, n) stacks, and
checks every shift c_k the stack will be solved at: a `SolvePlan`.  `_solve`
then solves row k, shifted by s_b = signs[b] c_k, (L_b + s_b I) X_b + X_b
(R_b + s_b I) = C_b: the factors do not move, so it transforms the whole
stack to VL^-1 C VR in two batched products, solves the core equations with
TL_b + s_b I and TR_b + s_b I, and transforms back in two more.  There are
two kernels, chosen per pair:

  diagonal  when L and R are both TriDiagMatrix objects diagonally similar
            to a symmetric tridiagonal (every off-diagonal pair has
            sub * sup > 0, or sub = sup = 0): TL, TR are the real diagonals
            from `numpy.linalg.eigh` of the symmetrized tridiagonal,
            V = D^-1 Q and V^-1 = Q^T D with no inverse taken, and the core
            solve is one entrywise division by lam_i + mu_j + 2 s_b over
            every diagonal slice of the stack (the fast diagonalization
            method of Lynch, Rice and Thomas, 1964);
  schur     for every other pair, dense or not symmetrizable: real Schur
            forms (V orthogonal, TL, TR quasi-triangular with 2 x 2 blocks
            for complex-conjugate pairs) and LAPACK trsyl on its own slice.

The solvability margin min |lam_i + mu_j + 2 s_b| is checked against
DENOM_RTOL when the plan is made, never in a solve; `_margins` does so for
every shift at once.  On the diagonal kernel it is the smallest denominator
the solve divides by, found with one sort and O(log n) per shift.  The
stepper's plan holds every step's shift c_n; the standalone solvers below
plan and solve at shift 0.

The coupled pair

    W X + X Wr + R Y + Y S = C1
    W Y + Y Wr + R X + X S = C2

decouples exactly: P = X+Y solves (W+R) P + P (Wr+S) = C1+C2 and Q = X-Y
solves (W-R) Q + Q (Wr-S) = C1-C2.

kronecker_solve, Method I in the benchmarks and the brute-force oracle for
the decoupled path, vectorizes each branch into one dense n^2 system and
solves it by Gaussian elimination with partial pivoting: two LUs of
(2/3) n^6 flops, a quarter of the (16/3) n^6 that one 2 n^2 system in
both unknowns X, Y would take with its cross blocks R, S, which the
decoupling removes exactly.

The diagonal kernel runs on numpy alone.  `scipy.linalg` is imported on
first use by the three routines that need it, the Schur factorization, the
trsyl solve of a Schur pair and Method I's dgesv, so a process that only
takes the diagonal kernel does not pay its import (about 0.27 s and 28 MB
of RSS on a 2-vCPU x86-64 host).
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .exceptions import InvalidSpecError, SizeGuardError, SolvabilityError
from .operators import BRANCH_SIGNS, TriDiagMatrix, _sum_diff

# A diagonal denominator |lam_i + mu_j| below DENOM_RTOL * norm(inputs) is
# treated as a solvability failure rather than allowed to produce garbage.
DENOM_RTOL = 1e-12

# Byte budget for the dense Kronecker matrix of one branch, 8 (n^2)^2 = 8 n^4
# bytes, and the largest size within it: 76, i.e. J <= 74.  kronecker_solve
# fills and factors that one buffer in place for each branch in turn, so the
# solve's peak is the budget plus O(n^2) vectors.
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
    stack (`SolvePlan`).
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
class SolvePlan:
    """A factored stack of pairs (L_b, R_b) and the checked shifts it is solved at.

    Row k solves pair b shifted by signs[b] shifts[k] on both sides: +1 for
    a single equation and for the sum branch, -1 for the difference branch
    (`BRANCH_SIGNS`).  VL, VL_inv, VR and VR_inv are (B, n, n) stacks, and
    `sums` holds lam_i + mu_j of the diagonal pairs (zero on a Schur pair's
    slice).  `diagonal` indexes the diagonal slices (all of them as one
    slice when no pair is Schur) and `schur` lists the others.  `margins`
    (K, B) holds every row's margins, all above the solvability floor (on a
    diagonal pair, the smallest |sums + 2 s_b| that row k divides by), and
    `attaining` (K, B, 2) the shifted eigenvalue pairs that attain them.
    """

    pairs: tuple[_Pair, ...]
    signs: np.ndarray  # (B, 1, 1), to scale the slices of a stack
    VL: np.ndarray
    VL_inv: np.ndarray
    VR: np.ndarray
    VR_inv: np.ndarray
    sums: np.ndarray
    diagonal: slice | list[int]
    schur: tuple[int, ...]
    shifts: np.ndarray
    margins: np.ndarray
    attaining: np.ndarray
    factor_time: float

    @property
    def kernels(self) -> tuple[str, ...]:
        """The solve kernel of each pair: "diagonal" or "schur"."""
        return tuple(pair.kernel for pair in self.pairs)

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


def _symmetric_eig(M, d, e):
    """(lams, V, V^-1) with M = V diag(lams) V^-1 from the symmetrizer (d, e):
    the symmetric tridiagonal T = D M D^-1 with diagonal M.diag and
    off-diagonal e is Q diag(lams) Q^T, so V = D^-1 Q and V^-1 = Q^T D, no
    inverse taken."""
    T = np.diag(M.diag)
    i = np.arange(e.size)
    T[i, i + 1] = T[i + 1, i] = e
    lams, Q = np.linalg.eigh(T)
    return lams, Q / d[:, None], Q.T * d[None, :]


def _factor_pair(L, R, branch):
    """The `_Pair` of (L, R) and its transforms (VL, VL^-1, VR, VR^-1).

    A pair of TriDiagMatrix coefficients that are both diagonally similar to
    a symmetric tridiagonal takes the diagonal kernel; any other pair (dense,
    or a row with sub * sup < 0, or sub = 0 != sup) takes the real Schur forms.
    """
    data = dict(L=L, R=R, branch=branch)
    syms = _symmetrizer(L), _symmetrizer(R)
    if all(sym is not None for sym in syms):
        lams, VL, VL_inv = _symmetric_eig(L, *syms[0])
        mus, VR, VR_inv = _symmetric_eig(R, *syms[1])
        return _Pair(TL=None, TR=None, lams=lams, mus=mus, **data), (VL, VL_inv, VR, VR_inv)
    import scipy.linalg

    TL, QL = scipy.linalg.schur(np.asarray(L))
    TR, QR = scipy.linalg.schur(np.asarray(R))
    pair = _Pair(TL=TL, TR=TR, lams=np.linalg.eigvals(TL), mus=np.linalg.eigvals(TR), **data)
    return pair, (QL, QL.T, QR, QR.T)


def _factor(pairs, branches=(None,), shifts=(0.0,), steps=None) -> SolvePlan:
    """Factor the pairs ((L, R), ...) once, as one stack, and check it at
    every shift of `shifts`.

    A named branch is shifted with its sign in `BRANCH_SIGNS`, an unnamed
    pair (a single equation) by +1.  Raises SolvabilityError (`_margins`)
    before anything is solved.
    """
    t_start = time.perf_counter()
    factored = [_factor_pair(L, R, branch) for (L, R), branch in zip(pairs, branches)]
    records = tuple(pair for pair, _ in factored)
    VL, VL_inv, VR, VR_inv = (np.stack(V) for V in zip(*(V for _, V in factored)))
    sums = np.zeros_like(VL)
    for b, pair in enumerate(records):
        if pair.kernel == "diagonal":
            np.add(pair.lams[:, None], pair.mus[None, :], out=sums[b])
    schur = tuple(b for b, pair in enumerate(records) if pair.kernel == "schur")
    signs = np.array([BRANCH_SIGNS.get(branch, 1.0) for branch in branches])
    factor_time = time.perf_counter() - t_start
    shifts = np.array(shifts, dtype=float)
    shifts.flags.writeable = False  # a solve runs only at the shifts checked here
    margins, attaining = _margins(records, signs, shifts, sums, steps)
    return SolvePlan(
        pairs=records, signs=signs[:, None, None], VL=VL, VL_inv=VL_inv, VR=VR,
        VR_inv=VR_inv, sums=sums,
        diagonal=[b for b in range(len(records)) if b not in schur] if schur else slice(None),
        schur=schur, shifts=shifts, margins=margins, attaining=attaining, factor_time=factor_time,
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
    naming the pair, the branch and, when `steps` labels the shifts, the step.
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
    failing = np.argwhere(margins < floors)
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

    With Z = VL^-1 X VR the equations become (TL + s I) Z + Z (TR + s I) =
    VL^-1 C VR: two batched products each way over the stack, one
    entrywise division by lam_i + mu_j + 2 s_b over the diagonal slices and
    LAPACK trsyl on a Schur pair's slice.
    """
    c = plan.shifts[k]
    Z = plan.VL_inv @ C @ plan.VR
    d = plan.diagonal
    Z[d] /= plan.sums[d] + (2.0 * c) * plan.signs[d]
    if plan.schur:
        import scipy.linalg
    for b in plan.schur:
        pair, s = plan.pairs[b], c * plan.signs[b, 0, 0]
        TL, TR = pair.TL.copy(order="F"), pair.TR.copy(order="F")
        TL[np.diag_indices_from(TL)] += s
        TR[np.diag_indices_from(TR)] += s
        Zb, factor, info = scipy.linalg.lapack.dtrsyl(TL, TR, Z[b])
        if info < 0:
            raise SolvabilityError(
                f"{_CONTEXT[pair.branch]}: trsyl rejected argument {-info}", branch=pair.branch
            )
        Z[b] = Zb / factor
    return plan.VL @ Z @ plan.VR_inv


def solve_sylvester(p: SylvesterProblem) -> np.ndarray:
    """Solve L X + X R = C; raises SolvabilityError on (near-)common spectra."""
    return _solve(_factor([(p.L, p.R)]), p.C[None], 0)[0]


def _branch_pairs(W, R, S, W_right) -> tuple:
    """The coefficient pairs (sum, diff) of the branches, (W + s R, Wr + s S)."""
    return tuple((W + s * R, W_right + s * S) for s in BRANCH_SIGNS.values())


def solve_coupled(p: CoupledProblem) -> tuple[np.ndarray, np.ndarray]:
    """Solve the coupled pair by sum/difference decoupling."""
    plan = _factor(_branch_pairs(p.W, p.R, p.S, p.W_right), tuple(BRANCH_SIGNS))
    return tuple(_sum_diff(_solve(plan, _sum_diff((p.C1, p.C2)), 0), 0.5))


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


def kronecker_solve(p: CoupledProblem) -> tuple[np.ndarray, np.ndarray]:
    """Method I: vectorize each decoupled branch into one dense n^2 linear system.

    The branches P = X+Y and Q = X-Y solve L P + P M = C1 + C2 with (L, M) =
    (W + R, Wr + S) and L Q + Q M = C1 - C2 with (L, M) = (W - R, Wr - S).
    The signs are written out here rather than read from BRANCH_SIGNS, so
    that the oracle does not share the fast path's sign table.  By the
    column-stacking identities vec(L P) = (I kron L) vec(P) and vec(P M) =
    (M.T kron I) vec(P), each branch is the N x N system I kron L + M.T kron
    I, N = n^2.  It is written into one zeroed Fortran-ordered buffer, one
    indexed write per term (an assignment for I kron L, then `np.add.at`
    for M.T kron I, which adds on the diagonal they share), and factored
    there by LAPACK dgesv (Gaussian elimination with partial pivoting); the
    second branch reuses the buffer, so no other N x N array and no n^3
    temporary is made.  A size above KRONECKER_MAX_SIZE, read at call time,
    raises SizeGuardError (`_check_kronecker_size`).
    """
    n = p.size
    _check_kronecker_size(n)
    W, R, S, Wr = (np.asarray(A, dtype=float) for A in (p.W, p.R, p.S, p.W_right))
    branches = (("sum", W + R, Wr + S), ("diff", W - R, Wr - S))
    K = np.zeros((n * n, n * n), order="F")
    # row i + n j, column k + n m -> K4[i, j, k, m]: equation (i, j), unknown (k, m)
    K4 = K.reshape((n, n, n, n), order="F")
    a = np.arange(n)
    import scipy.linalg

    solutions = []
    for (branch, L, M), Cb in zip(branches, _sum_diff((p.C1, p.C2))):
        if solutions:
            K.fill(0.0)
        # (L P)[i, j] = sum_k L[i, k] P[k, j]: K4[i, j, k, j] = L[i, k]
        K4[:, a, :, a] = L
        # (P M)[i, j] = sum_m P[i, m] M[m, j]: K4[i, j, i, m] += M[m, j]
        np.add.at(K4, (a, slice(None), a, slice(None)), M.T)
        _, _, sol, info = scipy.linalg.lapack.dgesv(
            K, Cb.ravel(order="F"), overwrite_a=True, overwrite_b=True
        )
        if info > 0:
            raise SolvabilityError(
                f"Kronecker system singular in the {branch} branch: "
                f"U[{info - 1}, {info - 1}] is zero",
                branch=branch,
            )
        solutions.append(sol.reshape((n, n), order="F"))
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
