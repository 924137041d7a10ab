"""Objective, gradients and proximal primitives for column-partitioned
dictionary learning with an elastic-net coding penalty.

The global problem is

    min_{D, X}  sum_i  1/2 ||S_i - D X_i||_F^2 + lam ||X_i||_1 + mu ||X_i||_F^2
    s.t.        ||D e_k||_2 <= alpha  for every atom k,

where the data matrix S is split into column blocks S_i owned by the agents.
Everything in this module is local math; networking lives elsewhere.

The kernels that read data or solve a subproblem take stacks with a
leading agent axis, as the round engine holds them: ``D`` of shape
``(c, M, K)``, ``X`` of shape ``(c, K, n)`` and ``S`` of shape ``(c, M, n)``
for a group of ``c`` agents; one agent is a stack of one. Any other shape
raises ValueError. Stacked blocks narrower than ``n`` are padded with zero
columns, and the padding is exact: a zero data column with a zero code gives
a zero gradient, and the shrinkage keeps that code at zero. ``residual``,
``prox_codes``, ``project_dictionary``, ``max_column_norm`` and
``d_update_linearized`` work on any shape, the 2-d mean dictionary
included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Float64 entries a group's stacked temporaries may span (128 KiB each): the
# round engine stacks max(1, BUDGET // (max(M, K) * n_max)) agents per group.
BUDGET = 2 ** 14

# sigma_max's repeated squaring: squarings between two rescalings, the
# relative width at which its bracket on the top eigenvalue closes, and the
# number of blocks, which closes every bracket (see sigma_max). A block
# raises a trace-1 Gram matrix of size n to the power 2^s, and its top
# eigenvalue, at least 1/n, must not underflow: n^-64 stays normal up to
# n = 64 000, while n^-128 does so only up to n = 253 and n^-256 up to
# n = 15, so no block may run more than 6 squarings. Blocks of 4 stop
# closer to where a bracket closes: most close at p = 256, which blocks
# of 6 reach only at p = 4096.
_SQUARINGS = 4
_BRACKET_TOL = 1e-13
_BLOCKS = 12


@dataclass(frozen=True)
class AgentGroups:
    """The agent groups of the round engine: contiguous agent ranges that
    are stepped as one stack each.

    ``slices`` holds the ranges, ``sizes`` the column count of every
    agent's block. ``ProblemData`` builds the layout once, with
    ``max(1, BUDGET // (max(M, K) * n_max))`` agents per group, the last
    group shorter, where ``n_max`` is the widest block.
    """

    slices: tuple
    sizes: tuple

    def stack(self, blocks) -> list:
        """Stack one matrix per agent, each with its agent's column count,
        into one array per group.

        A group of one agent gets a ``[None]`` view of its block, with no
        copy. A group of several agents gets a new ``(c, rows, n_g)`` array,
        ``n_g`` the widest block of the group, with the narrower blocks
        padded by zero columns on the right.
        """
        out = []
        for sl in self.slices:
            part = blocks[sl]
            if len(part) == 1:
                out.append(part[0][None])
                continue
            width = max(self.sizes[sl])
            st = np.zeros((len(part), part[0].shape[0], width))
            for j, B in enumerate(part):
                st[j, :, :B.shape[1]] = B
            out.append(st)
        return out

    def unstack(self, stacks) -> list:
        """Per-agent views ``(rows, n_i)`` into the group stacks of
        ``stack``, padding left out."""
        return [st[j, :, :n] for sl, st in zip(self.slices, stacks)
                for j, n in enumerate(self.sizes[sl])]


@dataclass
class ProblemData:
    """A problem instance with the data split into per-agent column blocks.

    Parameters
    ----------
    S_blocks : list of ndarray
        Data blocks ``S_i`` of shape ``(M, n_i)``; all share the row count M
        and hold finite values only.
    K : int
        Number of dictionary atoms.
    lam : float
        Weight of the l1 coding penalty (> 0, finite).
    mu : float
        Weight of the squared-Frobenius coding penalty (> 0, finite).
    alpha : float
        Column-norm bound of the dictionary constraint set (> 0, finite).

    Attributes
    ----------
    groups : AgentGroups
        The agent groups of the round engine.
    S_groups : list of ndarray
        The data blocks of each group as one stack (``AgentGroups.stack``).
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
            if not np.isfinite(S).all():
                raise ValueError(f"block {i} holds NaN or inf")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not (0 < self.lam < np.inf and 0 < self.mu < np.inf):
            raise ValueError("lam and mu must be positive and finite")
        if not 0 < self.alpha < np.inf:
            raise ValueError("alpha must be positive and finite")
        size = max(1, BUDGET // (max(M, self.K) * max(self.block_sizes)))
        I = len(self.S_blocks)
        self.groups = AgentGroups(
            slices=tuple(slice(lo, min(lo + size, I))
                         for lo in range(0, I, size)),
            sizes=tuple(self.block_sizes))
        self.S_groups = self.groups.stack(self.S_blocks)

    def check_code_stacks(self, X_groups) -> None:
        """Raise ValueError unless ``X_groups`` holds one ``(c, K, n_g)``
        code stack per agent group, as ``groups.stack`` makes them."""
        want = [(len(S), self.K, S.shape[-1]) for S in self.S_groups]
        if [np.shape(X) for X in X_groups] != want:
            raise ValueError(f"codes must be group stacks of shapes {want}"
                             f"; use problem.groups.stack on agent blocks")

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


def objective_global(D, X_groups, problem: ProblemData) -> float:
    """Evaluate the full objective at a common dictionary D and the codes,
    given as the group stacks of ``problem.groups``; the sum runs over the
    groups."""
    D = np.asarray(D, dtype=float)
    if D.shape != (problem.M, problem.K):
        raise ValueError(f"D has shape {D.shape}, expected "
                         f"({problem.M}, {problem.K})")
    problem.check_code_stacks(X_groups)
    total = 0.0
    for S, X in zip(problem.S_groups, X_groups):
        R = residual(D, X, S)
        total += (0.5 * np.square(R, out=R).sum()
                  + problem.lam * np.abs(X).sum()
                  + problem.mu * (X * X).sum())
    return float(total)


def _stacks(*arrays):
    """The arrays as float stacks ``(c, rows, cols)`` of one length ``c``;
    any other shape raises ValueError."""
    arrays = [np.asarray(A, dtype=float) for A in arrays]
    if any(A.ndim != 3 or len(A) != len(arrays[0]) for A in arrays):
        raise ValueError(f"incompatible shapes {[A.shape for A in arrays]}:"
                         " the kernels take (c, rows, cols) stacks of one"
                         " length c")
    return arrays


def _check_triplet(D, X, S):
    D, X, S = _stacks(D, X, S)
    if D.shape[2] != X.shape[1] or D.shape[1] != S.shape[1] \
            or X.shape[2] != S.shape[2]:
        raise ValueError(f"incompatible shapes D{D.shape} X{X.shape} "
                         f"S{S.shape}")
    return D, X, S


def residual(D, X, S) -> np.ndarray:
    """The fit residual D X - S, formed in the one new array of D @ X."""
    R = D @ X
    R -= S
    return R


def grad_dict(D, X, S) -> np.ndarray:
    """Gradient of the local fit term 1/2 ||S - D X||_F^2 with respect to D,
    one per agent of the stacks."""
    D, X, S = _check_triplet(D, X, S)
    return residual(D, X, S) @ X.swapaxes(-1, -2)


def grad_codes(D, X, S) -> np.ndarray:
    """Gradient of the local fit term 1/2 ||S - D X||_F^2 with respect to X,
    one per agent of the stacks."""
    D, X, S = _check_triplet(D, X, S)
    return D.swapaxes(-1, -2) @ residual(D, X, S)


def project_dictionary(D, alpha: float) -> np.ndarray:
    """Euclidean projection onto {D : ||D e_k||_2 <= alpha for all k}, for
    one dictionary or each of a stack.

    Columns with norm above alpha are rescaled onto the ball boundary,
    columns already inside are untouched. The norms are those of
    ``np.linalg.norm`` (the square root of the summed squares), and the
    factor is ``alpha / max(norm, alpha)``, exactly 1 for a column inside
    the ball, zero columns included. ``alpha`` must be positive and
    finite.
    """
    if not 0 < alpha < np.inf:
        raise ValueError("alpha must be positive and finite")
    D = np.asarray(D, dtype=float)
    norms = np.sqrt(np.add.reduce(D * D, axis=-2, keepdims=True))
    return D * (alpha / np.maximum(norms, alpha))


def max_column_norm(D) -> float:
    """The largest column norm of one dictionary or of any in a stack, as
    ``np.linalg.norm`` gives the norms: the quantity the constraint
    ``||D e_k||_2 <= alpha`` bounds."""
    return float(np.linalg.norm(D, axis=-2).max())


def soft_threshold(x, thresh) -> np.ndarray:
    """Entrywise shrinkage max(|x| - thresh, 0) * sign(x) of an array x for
    a threshold ``thresh >= 0``, computed as x - min(max(x, -thresh),
    thresh) in one new array; a scalar x raises ValueError.

    The result equals the sign formula bit for bit, except that it is
    +0.0 everywhere inside the band |x| <= thresh.
    """
    x = np.asarray(x, dtype=float)
    if not x.ndim:
        raise ValueError("soft_threshold takes an array, not a scalar")
    band = np.maximum(x, -thresh)
    np.minimum(band, thresh, out=band)
    np.subtract(x, band, out=band)
    return band


def sigma_max(A):
    """Largest singular value of each matrix A of a ``(c, m, n)`` stack, the
    square root of the top eigenvalue lam_1 of its smaller Gram matrix B
    (n x n, n = min of A's two sizes), taken by repeated squaring with a
    proven bracket on lam_1.

    With t = tr B and C = B / t, each block squares C ``_SQUARINGS`` times
    and rescales it to trace 1, so after b blocks C = B^p / tr(B^p) with
    p = 16^b, and l = log(tr(B^p) / t^p) / p gives log(lam_1 / t) <= l.
    A trace-1 PSD C has ||C||_F^2 <= its top eigenvalue, so
    l + log(||C||_F^2) / p <= log(lam_1 / t): once that bracket is at most
    ``_BRACKET_TOL`` wide, the matrix stops squaring and keeps the upper
    end sqrt(t exp(l)), which a step of 1 / sigma^2 may safely take.
    ||C||_F^2 >= 1/n bounds the width by ln(n) / p, and ``_BLOCKS = 12``
    reach p = 16^12 = 2.8e14, so even an exact n-fold tie closes for any
    n below 1e12: there is no cap and no other path. A matrix whose
    bracket closes leaves the stack, so each entry equals the call on its
    stack of one bit for bit. A zero A gives +0.0. The squarings run in two
    buffers, the Gram stack and one more of its size; after a block in
    which some matrix closed, the others are copied out and the old stack's
    buffer takes the next products.

    Returns ``(values, converged)``, the ``c`` values as an array;
    ``converged`` is always True and stays because ``bench/tracer.py``
    reads it as ``out[1]``. NaN or inf in A, and a finite A whose Gram
    matrix overflows, raise ``ValueError``, as does any input but a
    nonempty 3-d stack.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.size == 0:
        raise ValueError("a nonempty (c, m, n) stack is required")
    At = A.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        C = At @ A if A.shape[-1] <= A.shape[-2] else A @ At
    t = C.trace(axis1=1, axis2=2)
    if not np.isfinite(t).all():
        raise ValueError("sigma_max needs a finite A with a finite Gram "
                         "matrix A^T A")
    ell = np.zeros(len(C))
    live = np.flatnonzero(t)
    if live.size < len(C):
        C = C[live]
    C /= t[live, None, None]
    W = np.empty_like(C)
    p = 1.0
    for _ in range(_BLOCKS):
        for _ in range(_SQUARINGS):
            np.matmul(C, C, out=W)
            C, W = W, C
        s = C.trace(axis1=1, axis2=2)
        C /= s[:, None, None]
        p *= 2.0 ** _SQUARINGS
        ell[live] += np.log(s) / p
        fro = np.square(C, out=W).sum(axis=(1, 2))
        wide = np.log(fro) < -_BRACKET_TOL * p
        n = np.count_nonzero(wide)
        if not n:
            break
        if n < len(C):
            live = live[wide]
            C, W = C[wide], C[:n]
    return np.sqrt(t * np.exp(ell)), True


def x_update_linearized(X, U, S, tau, lam: float, mu: float):
    """Closed-form coding step for the linearized local surrogate.

    Minimizes, entrywise,
        <grad, X - X0> + tau/2 ||X - X0||_F^2 + lam ||X||_1 + mu ||X||_F^2
    with grad evaluated at (U, X0), which gives
        tau / (2 mu + tau) * shrink(X0 - grad / tau, lam / tau).
    ``tau`` is a scalar or one weight per agent, shape ``(c, 1, 1)``.
    """
    if not (np.asarray(tau) > 0).all():
        raise ValueError("tau must be positive")
    X = np.asarray(X, dtype=float)
    return prox_codes(grad_codes(U, X, S), X, tau, lam, mu)


def prox_codes(G, X, tau, lam: float, mu: float) -> np.ndarray:
    """The tail of the linearized coding step from the codes gradient G at
    X: tau / (2 mu + tau) * shrink(X - G / tau, lam / tau). The divide and
    subtract run in place on G, which must be a new array that nothing else
    holds; the shrink makes the one array that is scaled and returned.
    """
    G /= tau
    np.subtract(X, G, out=G)
    G = soft_threshold(G, lam / tau)
    G *= tau / (2.0 * mu + tau)
    return G


def _prox_gradient(X0, H, C, prox, beta, inner_tol, inner_max_iter,
                   right=False):
    """Proximal gradient from the stack X0 with the constant momentum
    ``beta``: the forward step from the extrapolated point Y is H Y + C, or
    Y H + C when ``right``, with the step scaled in, and ``prox`` makes the
    next iterate, the one new array of an iteration. Two buffers allocated
    before the loop hold the forward step, then the stopping change, and
    the extrapolated point. Each agent stops once its step
    max |X_{k+1} - Y_k| falls to ``inner_tol``. Returns ``(out, done)``.
    """
    F = np.empty_like(C)
    Y = X0.copy()
    out = X0.copy()
    Xk = X0
    done = np.zeros(len(X0), dtype=bool)
    for _ in range(inner_max_iter):
        np.matmul(*((Y, H) if right else (H, Y)), out=F)
        F += C
        Xn = prox(F)
        np.subtract(Xn, Y, out=F)
        change = np.abs(F, out=F).reshape(len(F), -1).max(axis=1)
        np.subtract(Xn, Xk, out=Y)
        Y *= beta
        Y += Xn
        Xk = Xn
        if change.min() <= inner_tol:
            now = (change <= inner_tol) & ~done
            out[now] = Xn[now]
            done |= now
            if done.all():
                break
    else:
        out[~done] = Xk[~done]
    return out, done


def x_update_plain(X, U, S, tau, lam: float, mu: float, inner_tol: float,
                   inner_max_iter: int, sigma):
    """Solve the proximal elastic-net coding subproblem

        min_X 1/2 ||S - U X||_F^2 + tau/2 ||X - X0||_F^2
              + lam ||X||_1 + mu ||X||_F^2

    by accelerated proximal gradient started at X0. Its smooth part is
    m-strongly convex with an L-Lipschitz gradient, where m = tau + 2 mu and
    L = sigma_max(U)^2 + m, so the step is 1/L and the momentum is the
    constant (1 - sqrt(m/L)) / (1 + sqrt(m/L)) of the accelerated method for
    strongly convex problems (Nesterov 2004, section 2.2). Every agent
    needs m > 0, which every subproblem of the round engine has, since
    ``agents.EPS_TAU`` and ``mu`` are positive. ``sigma`` is sigma_max(U), one
    finite, nonnegative value per agent, which the caller already holds.

    The solve stops once the proximal gradient step from the extrapolated
    point, max |X_{k+1} - Y_k|, falls to ``inner_tol``; that step vanishes
    only at the solution, while two equal iterates in a row need not. The
    round engine passes ``StepSchedule.inner_tol_at(gamma)``, which is
    loose while the step size gamma is large; on the standard instance a
    call takes about 8 iterations.
    X0, U and S are stacks (see the module docstring) and ``tau`` is a
    scalar or of shape ``(c, 1, 1)``. The agents iterate in lockstep, each
    with its own momentum and its own stop, so each keeps the iterate its
    stack of one would return. Returns ``(X_new, converged)``, one flag per
    agent; non-convergence within ``inner_max_iter`` is reported through
    the flag, not raised. A subproblem that is not strongly convex
    (tau = mu = 0 for some agent), and X0, U or S holding NaN or inf, raise
    ``ValueError``.
    """
    if not (np.asarray(tau) >= 0).all():
        raise ValueError("tau must be nonnegative")
    if not mu >= 0:
        raise ValueError("mu must be nonnegative")
    if not (np.isfinite(sigma) & (np.asarray(sigma) >= 0)).all():
        raise ValueError("sigma must be finite and nonnegative")
    m = tau + 2.0 * mu
    if (np.asarray(m) <= 0).any():
        raise ValueError("the coding subproblem must be strongly convex: "
                         "tau + 2 mu > 0 for every agent")
    U, X0, S = _check_triplet(U, X, S)
    Ut = U.swapaxes(-1, -2)
    # the forward step Y - step * grad as one affine map H Y + C, scaled
    # below; the diagonal of U^T U covers every entry of U, and C every
    # entry of S and X0
    H = Ut @ U
    C = Ut @ S + tau * X0
    if not (np.isfinite(H).all() and np.isfinite(C).all()):
        raise ValueError("X0, U and S must be finite")
    step = 1.0 / (np.reshape(np.square(sigma), (-1, 1, 1)) + m)
    r = np.sqrt(m * step)
    beta = (1.0 - r) / (1.0 + r)
    H *= -step
    H += (1.0 - step * m) * np.eye(U.shape[-1])
    C *= step
    thr = np.broadcast_to(step * lam, C.shape).copy()
    # soft_threshold is looked up at every call, where bench/tracer.py
    # counts the iterations
    out, done = _prox_gradient(X0, H, C, lambda F: soft_threshold(F, thr),
                               beta, inner_tol, inner_max_iter)
    return out, done


def d_update_linearized(D, direction, tau: float, alpha: float):
    """Closed-form dictionary step: one projected gradient step that solves

        min_{D in the column-norm ball}
            <direction, D - D0> + tau/2 ||D - D0||_F^2,

    that is proj(D0 - direction / tau), for one agent or each agent of a
    stack. The round engine passes ``I y``, I times the agent's tracker.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    D = np.asarray(D, dtype=float)
    return project_dictionary(D - direction / tau, alpha)


def d_update_plain(D, X, direction, tau: float, alpha: float,
                   inner_tol: float, inner_max_iter: int):
    """Solve the full local dictionary subproblem

        min_{D in the column-norm ball}
            <direction, D - D0> + 1/2 ||(D - D0) X||_F^2 + tau/2 ||D - D0||_F^2

    by projected gradient with step 1/(sigma_max(X)^2 + tau), in the loop
    of ``x_update_plain`` with the column projection as the prox: the same
    stacks, ``(D_new, converged)`` return, per-agent stop and
    ``ValueError`` for NaN or inf in its input. With ``direction = I y``,
    this is the surrogate 1/2 ||S - D X||^2 + tau/2 ||D - D0||^2
    + <I y - grad, D - D0> up to a constant, grad = (D0 X - S) X^T: the
    data cancels. It stays unaccelerated: with the projection active and
    sigma_max(X)^2 small next to tau, the coding solver's constant momentum
    raised the mean iterations per call from 12.9 to 14.7 over 100 rounds
    of the standard instance with both steps plain.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    D0, X, direction = _stacks(D, X, direction)
    # the forward step Y - step * grad as one affine map Y H + C, scaled
    # below; the diagonal of X X^T covers every entry of X, and C every
    # entry of D0 and direction
    H = X @ X.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # NaN or inf input may make NaN
        C = D0 @ H + tau * D0 - direction
    if not (np.isfinite(H).all() and np.isfinite(C).all()):
        raise ValueError("D0, X and direction must be finite")
    sig, _ = sigma_max(X)
    step = 1.0 / (np.reshape(np.square(sig), (-1, 1, 1)) + tau)
    H *= -step
    H += (1.0 - step * tau) * np.eye(X.shape[-2])
    C *= step
    out, done = _prox_gradient(D0, H, C,
                               lambda F: project_dictionary(F, alpha), 0.0,
                               inner_tol, inner_max_iter, right=True)
    return out, done
