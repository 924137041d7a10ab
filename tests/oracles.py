"""Independent reference implementations used to cross-check the library.

Everything here is written in a deliberately different style from the
package (scalar loops, dense SVD, exhaustive searches) so that agreement
between the two is meaningful evidence of correctness rather than a
tautology.
"""

import numpy as np


# ---------------------------------------------------------------------------
# objective / gradients


def objective_scalar_loop(D, X_blocks, S_blocks, lam, mu):
    """Objective recomputed entry by entry with Python loops."""
    total = 0.0
    for S, X in zip(S_blocks, X_blocks):
        R = D @ X
        for r in range(S.shape[0]):
            for c in range(S.shape[1]):
                total += 0.5 * (S[r, c] - R[r, c]) ** 2
        for r in range(X.shape[0]):
            for c in range(X.shape[1]):
                total += lam * abs(X[r, c]) + mu * X[r, c] ** 2
    return total


def finite_difference_gradient(func, A, step=1e-6):
    """Central finite differences of ``func`` with respect to matrix A."""
    A = np.asarray(A, dtype=float)
    grad = np.zeros_like(A)
    for idx in np.ndindex(A.shape):
        bumped = A.copy()
        bumped[idx] += step
        hi = func(bumped)
        bumped[idx] -= 2 * step
        lo = func(bumped)
        grad[idx] = (hi - lo) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# proximal / projection searches


def project_column_line_search(col, alpha, sweeps=60):
    """Nearest point of the alpha-ball to ``col`` via bisection on the radius.

    The candidate set is parameterized by the radius t in [0, alpha] along
    the unit direction of ``col``; the squared distance is convex in t, so a
    ternary search finds the argmin to high accuracy.
    """
    col = np.asarray(col, dtype=float)
    norm = np.linalg.norm(col)
    if norm == 0.0 or norm <= alpha:
        return col.copy()
    unit = col / norm
    lo, hi = 0.0, alpha
    for _ in range(sweeps):
        third = (hi - lo) / 3.0
        m1, m2 = lo + third, hi - third
        if np.sum((m1 * unit - col) ** 2) <= np.sum((m2 * unit - col) ** 2):
            hi = m2
        else:
            lo = m1
    return 0.5 * (lo + hi) * unit


def prox_scalar_grid(x_nu, g, tau, lam, mu, span=4.0, levels=8, points=2001):
    """Minimize g*(x-x_nu) + tau/2*(x-x_nu)^2 + lam*|x| + mu*x^2 on a grid.

    Progressive refinement: each level re-grids around the current best
    point with a much smaller span, reaching ~1e-9 resolution.
    """
    def value(x):
        return (g * (x - x_nu) + 0.5 * tau * (x - x_nu) ** 2
                + lam * np.abs(x) + mu * x ** 2)

    center, width = 0.0, max(span, 2 * abs(x_nu) + 2 * abs(g) / tau + 1.0)
    best = center
    for _ in range(levels):
        grid = np.linspace(center - width, center + width, points)
        grid = np.append(grid, 0.0)  # the kink is always a candidate
        best = grid[int(np.argmin(value(grid)))]
        center, width = best, width * 10.0 / (points - 1)
    return best


def elastic_net_kkt_residual(X_new, U, S, tau, X_nu, lam, mu):
    """Max-norm violation of the subgradient conditions of the coding
    subproblem min_X 0.5||U X - S||^2 + tau/2||X - X_nu||^2 + lam||X||_1
    + mu||X||^2."""
    G = U.T @ (U @ X_new - S) + tau * (X_new - X_nu) + 2 * mu * X_new
    worst = 0.0
    for r in range(X_new.shape[0]):
        for c in range(X_new.shape[1]):
            if X_new[r, c] > 0:
                worst = max(worst, abs(G[r, c] + lam))
            elif X_new[r, c] < 0:
                worst = max(worst, abs(G[r, c] - lam))
            else:
                worst = max(worst, max(abs(G[r, c]) - lam, 0.0))
    return worst


def accelerated_coding_steps(X0, U, S, tau, lam, mu, iters):
    """``iters`` accelerated proximal gradient steps on the coding
    subproblem of ``elastic_net_kkt_residual``, entry by entry, with the
    spectral norm from a dense SVD. The momentum is the constant
    (1 - q) / (1 + q), q = sqrt(m / L), when m = tau + 2 mu > 0, and
    FISTA's (t_k - 1) / t_{k+1} when m = 0."""
    m = tau + 2 * mu
    L = np.linalg.svd(U, compute_uv=False)[0] ** 2 + m
    q = np.sqrt(m / L)
    X = np.array(X0, dtype=float)
    Y = X.copy()
    t = 1.0
    for _ in range(iters):
        G = U.T @ (U @ Y - S) + tau * (Y - X0) + 2 * mu * Y
        X_new = np.zeros_like(X)
        for r in range(X.shape[0]):
            for c in range(X.shape[1]):
                v = Y[r, c] - G[r, c] / L
                X_new[r, c] = max(abs(v) - lam / L, 0.0) * np.sign(v)
        t_next = (1 + np.sqrt(1 + 4 * t * t)) / 2
        beta = (1 - q) / (1 + q) if m > 0 else (t - 1) / t_next
        Y = X_new + beta * (X_new - X)
        X, t = X_new, t_next
    return X


def projected_gradient_quadratic(D_start, grad_total, tau, alpha,
                                 iters=8000):
    """Minimize <grad_total, D - D_start> + tau/2 ||D - D_start||_F^2 over
    the per-column alpha-ball by plain projected gradient, scalar style."""
    D = np.array(D_start, dtype=float)
    step = 1.0 / tau
    for _ in range(iters):
        G = grad_total + tau * (D - D_start)
        D = D - step * G
        for k in range(D.shape[1]):
            D[:, k] = project_column_line_search(D[:, k], alpha, sweeps=200)
    return D


# ---------------------------------------------------------------------------
# graphs


def reachable_from(adjacency, start):
    """Breadth-first set of nodes whose information reaches ``start``.

    adjacency[i, j] True means i receives from j, so the search follows
    rows: from i, expand to every j with adjacency[i, j].
    """
    n = adjacency.shape[0]
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for j in range(n):
            if adjacency[node, j] and j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen


def strongly_connected_bfs(adjacency):
    """True iff every node reaches every other along the receive edges and
    along the transposed (send) edges."""
    n = adjacency.shape[0]
    for start in range(n):
        if len(reachable_from(adjacency, start)) != n:
            return False
        if len(reachable_from(adjacency.T, start)) != n:
            return False
    return True


def metropolis_scalar(adjacency):
    """Metropolis weights recomputed with explicit loops."""
    n = adjacency.shape[0]
    deg = [int(np.sum(adjacency[i])) - 1 for i in range(n)]  # no self-loop
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and adjacency[i, j]:
                W[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
    for i in range(n):
        W[i, i] = 1.0 - sum(W[i, j] for j in range(n) if j != i)
    return W


# ---------------------------------------------------------------------------
# imaging


def coverage_counts(height, width, patch_side, stride):
    """Per-pixel number of covering patches by brute-force enumeration."""
    counts = np.zeros((height, width), dtype=int)
    for r in range(0, height - patch_side + 1, stride):
        for c in range(0, width - patch_side + 1, stride):
            counts[r:r + patch_side, c:c + patch_side] += 1
    return counts


def psnr_scalar(reference, test):
    """PSNR/MSE recomputed with loops and the 255 peak convention."""
    reference = np.asarray(reference, dtype=float)
    test = np.asarray(test, dtype=float)
    total, count = 0.0, 0
    for r in range(reference.shape[0]):
        for c in range(reference.shape[1]):
            total += (reference[r, c] - test[r, c]) ** 2
            count += 1
    mse = total / count
    if mse == 0.0:
        return float("inf"), 0.0
    return 10.0 * np.log10(255.0 ** 2 / mse), mse


# ---------------------------------------------------------------------------
# round loop


def ragged_run(problem, config, schedule, observer):
    """The tracked round loop run one agent at a time on the 2-d kernels,
    each agent with its own unpadded block: the reference for the stacked
    round engine of ``distdict.protocol.run``.

    Calls ``observer(nu, agents, flags)`` after every round with the list of
    per-agent states and the number of agents whose inner solvers hit their
    cap in that round.
    """
    from distdict.agents import (coding_prox_weight, coding_step,
                                 dictionary_step, gamma_sequence, init_agents)
    from distdict.core import grad_dict

    sched = config.steps
    agents = init_agents(problem, seed=config.seed)
    I = problem.num_agents
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    grads_prev = [grad_dict(a.D, a.X, S)
                  for a, S in zip(agents, problem.S_blocks)]
    for nu in range(config.max_rounds):
        W = schedule.weights_at(nu)
        flags = 0
        for a, S, g in zip(agents, problem.S_blocks, grads_prev):
            ok_d = dictionary_step(a, S, gammas[nu], sched, problem.alpha, g)
            tau_x, _ = coding_prox_weight(a.D_half, sched.eps_tau)
            ok_x = coding_step(a, S, tau_x, problem.lam, problem.mu, sched)
            flags += (not ok_d) + (not ok_x)
        mixed = np.tensordot(W, np.stack([a.D_half for a in agents]), axes=1)
        for a, D_new in zip(agents, mixed):
            a.D = D_new
        grads_new = [grad_dict(a.D, a.X, S)
                     for a, S in zip(agents, problem.S_blocks)]
        trackers = (np.tensordot(W, np.stack([a.tracker for a in agents]),
                                 axes=1)
                    - np.stack(grads_prev)) + np.stack(grads_new)
        for i, a in enumerate(agents):
            a.tracker = trackers[i]
            a.grad_rest = I * trackers[i] - grads_new[i]
        grads_prev = grads_new
        observer(nu + 1, agents, flags)
