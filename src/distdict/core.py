"""Objective, gradients and proximal primitives for column-partitioned
dictionary learning with an elastic-net coding penalty.

The global problem is

    min_{D, X}  sum_i  1/2 ||S_i - D X_i||_F^2 + lam ||X_i||_1 + mu ||X_i||_F^2
    s.t.        ||D e_k||_2 <= alpha  for every atom k,

where the data matrix S is split into column blocks S_i owned by the agents.
Everything in this module is single-matrix math; networking lives elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ProblemData:
    """A problem instance with the data split into per-agent column blocks.

    Parameters
    ----------
    S_blocks : list of ndarray
        Data blocks ``S_i`` of shape ``(M, n_i)``; all share the row count M.
    K : int
        Number of dictionary atoms.
    lam : float
        Weight of the l1 coding penalty (> 0).
    mu : float
        Weight of the squared-Frobenius coding penalty (> 0).
    alpha : float
        Column-norm bound of the dictionary constraint set (> 0).
    """

    S_blocks: list
    K: int
    lam: float
    mu: float
    alpha: float

    def __post_init__(self):
        if not self.S_blocks:
            raise ValueError("at least one data block is required")
        self.S_blocks = [np.asarray(S, dtype=float) for S in self.S_blocks]
        M = self.S_blocks[0].shape[0]
        for i, S in enumerate(self.S_blocks):
            if S.ndim != 2 or S.shape[0] != M:
                raise ValueError(
                    f"block {i} has shape {S.shape}, expected ({M}, n_{i})")
            if S.shape[1] < 1:
                raise ValueError(f"block {i} owns no columns")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lam and mu must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    @property
    def M(self) -> int:
        return self.S_blocks[0].shape[0]

    @property
    def N(self) -> int:
        return sum(S.shape[1] for S in self.S_blocks)

    @property
    def num_agents(self) -> int:
        return len(self.S_blocks)

    @property
    def block_sizes(self) -> list:
        return [S.shape[1] for S in self.S_blocks]


def objective_global(D, X_blocks, problem: ProblemData) -> float:
    """Evaluate the full objective at a common dictionary D and codes X_i."""
    D = np.asarray(D, dtype=float)
    if D.shape != (problem.M, problem.K):
        raise ValueError(f"D has shape {D.shape}, expected "
                         f"({problem.M}, {problem.K})")
    if len(X_blocks) != problem.num_agents:
        raise ValueError("one code block per data block is required")
    total = 0.0
    for i, (S, X) in enumerate(zip(problem.S_blocks, X_blocks)):
        X = np.asarray(X, dtype=float)
        if X.shape != (problem.K, S.shape[1]):
            raise ValueError(f"code block {i} has shape {X.shape}, expected "
                             f"({problem.K}, {S.shape[1]})")
        R = S - D @ X
        total += (0.5 * np.sum(R * R)
                  + problem.lam * np.sum(np.abs(X))
                  + problem.mu * np.sum(X * X))
    return float(total)


def _check_triplet(D, X, S):
    D = np.asarray(D, dtype=float)
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    if D.ndim != 2 or X.ndim != 2 or S.ndim != 2:
        raise ValueError("D, X and S must be 2-d arrays")
    if D.shape[1] != X.shape[0] or D.shape[0] != S.shape[0] \
            or X.shape[1] != S.shape[1]:
        raise ValueError(f"incompatible shapes D{D.shape} X{X.shape} "
                         f"S{S.shape}")
    return D, X, S


def grad_dict(D, X, S) -> np.ndarray:
    """Gradient of the local fit term 1/2 ||S - D X||_F^2 with respect to D."""
    D, X, S = _check_triplet(D, X, S)
    return (D @ X - S) @ X.T


def grad_codes(D, X, S) -> np.ndarray:
    """Gradient of the local fit term 1/2 ||S - D X||_F^2 with respect to X."""
    D, X, S = _check_triplet(D, X, S)
    return D.T @ (D @ X - S)


def project_dictionary(D, alpha: float) -> np.ndarray:
    """Euclidean projection onto {D : ||D e_k||_2 <= alpha for all k}.

    Columns with norm above alpha are rescaled onto the ball boundary,
    columns already inside are untouched.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    D = np.asarray(D, dtype=float)
    norms = np.linalg.norm(D, axis=0)
    scale = np.ones_like(norms)
    over = norms > alpha
    scale[over] = alpha / norms[over]
    return D * scale


def soft_threshold(x, thresh):
    """Entrywise shrinkage max(|x| - thresh, 0) * sign(x)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def sigma_max(A):
    """Largest singular value of A: the square root of the top eigenvalue
    of the smaller Gram matrix, computed exactly by ``np.linalg.eigvalsh``.

    Returns ``(value, converged)``; ``converged`` is always True and is kept
    so that callers unpacking a pair need no change.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError("a nonempty 2-d array is required")
    B = A.T @ A if A.shape[1] <= A.shape[0] else A @ A.T
    lam = float(np.linalg.eigvalsh(B)[-1])
    return float(np.sqrt(max(0.0, lam))), True


def x_update_linearized(X, U, S, tau: float, lam: float, mu: float):
    """Closed-form coding step for the linearized local surrogate.

    Minimizes, entrywise,
        <grad, X - X0> + tau/2 ||X - X0||_F^2 + lam ||X||_1 + mu ||X||_F^2
    with grad evaluated at (U, X0), which gives
        tau / (2 mu + tau) * shrink(X0 - grad / tau, lam / tau).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    X = np.asarray(X, dtype=float)
    g = grad_codes(U, X, S)
    return (tau / (2.0 * mu + tau)) * soft_threshold(X - g / tau, lam / tau)


def x_update_plain(X, U, S, tau: float, lam: float, mu: float,
                   inner_tol: float = 1e-8, inner_max_iter: int = 2000):
    """Solve the proximal elastic-net coding subproblem

        min_X 1/2 ||S - U X||_F^2 + tau/2 ||X - X0||_F^2
              + lam ||X||_1 + mu ||X||_F^2

    by accelerated proximal gradient started at X0, with the step
    1/(sigma_max(U)^2 + tau + 2 mu) from the exact spectral norm. Returns
    ``(X_new, converged)``; non-convergence within ``inner_max_iter`` is
    reported through the flag, not raised.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    X0 = np.asarray(X, dtype=float)
    U = np.asarray(U, dtype=float)
    S = np.asarray(S, dtype=float)
    G = U.T @ U
    B = U.T @ S
    sig, _ = sigma_max(U)
    step = 1.0 / (sig * sig + tau + 2.0 * mu)
    Xk = X0.copy()
    Y = X0.copy()
    t = 1.0
    converged = False
    for _ in range(inner_max_iter):
        grad = G @ Y - B + tau * (Y - X0) + 2.0 * mu * Y
        Xn = soft_threshold(Y - step * grad, step * lam)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        Y = Xn + ((t - 1.0) / t_next) * (Xn - Xk)
        change = np.max(np.abs(Xn - Xk))
        Xk = Xn
        t = t_next
        if change <= inner_tol:
            converged = True
            break
    return Xk, converged


def d_update_linearized(D, grad_local, grad_rest, tau: float, alpha: float):
    """Closed-form dictionary step: one projected gradient step that solves

        min_{D in the column-norm ball}
            <grad_local + grad_rest, D - D0> + tau/2 ||D - D0||_F^2.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    D = np.asarray(D, dtype=float)
    return project_dictionary(D - (grad_local + grad_rest) / tau, alpha)


def d_update_plain(D, X, S, grad_rest, tau: float, alpha: float,
                   inner_tol: float = 1e-8, inner_max_iter: int = 2000):
    """Solve the full local dictionary subproblem

        min_{D in the column-norm ball}
            1/2 ||S - D X||_F^2 + tau/2 ||D - D0||_F^2 + <grad_rest, D - D0>

    by projected gradient with step 1/(sigma_max(X)^2 + tau). Returns
    ``(D_new, converged)`` with the same non-fatal flag convention as the
    coding solver.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    D0 = np.asarray(D, dtype=float)
    X = np.asarray(X, dtype=float)
    S = np.asarray(S, dtype=float)
    grad_rest = np.asarray(grad_rest, dtype=float)
    XXt = X @ X.T
    SXt = S @ X.T
    sig, _ = sigma_max(X)
    step = 1.0 / (sig * sig + tau)
    Dk = D0.copy()
    converged = False
    for _ in range(inner_max_iter):
        grad = Dk @ XXt - SXt + tau * (Dk - D0) + grad_rest
        Dn = project_dictionary(Dk - step * grad, alpha)
        change = np.max(np.abs(Dn - Dk))
        Dk = Dn
        if change <= inner_tol:
            converged = True
            break
    return Dk, converged
