"""How far two backward-stable solves of one coupled pair may part."""

import numpy as np


def coupled_kronecker_matrix(p):
    """The dense 2 n^2 matrix [[A_W, A_RS], [A_RS, A_W]] of the coupled pair in
    both unknowns: A_W = I kron W + W_right.T kron I and A_RS = I kron R + S.T kron I."""
    I = np.eye(p.size)
    W, R, S, W_right = (np.asarray(A, dtype=float) for A in (p.W, p.R, p.S, p.W_right))
    A_W = np.kron(I, W) + np.kron(W_right.T, I)
    A_RS = np.kron(I, R) + np.kron(S.T, I)
    return np.block([[A_W, A_RS], [A_RS, A_W]])


def agreement_bound(p):
    """How far two backward-stable solves of the coupled pair `p` may part, relative.

    1e-10, or 100 eps cond(K) when the Kronecker matrix K of the pair is so
    ill-conditioned that forward errors of order eps cond(K) exceed that
    (err / (eps cond(K)) stayed below 8 over 7,000 random draws).
    """
    K = coupled_kronecker_matrix(p)
    return max(1e-10, 100 * np.finfo(float).eps * np.linalg.cond(K))
