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
# the kernels' earlier formulas
#
# The allocation-lean kernels of distdict.core and the merit functions
# must give the values of these formulas bit for bit (up to the sign of
# zero), so these keep the package's earlier operation order verbatim
# rather than a different style.


def soft_threshold_sign(x, thresh):
    """Shrinkage as sign(x) * max(|x| - thresh, 0)."""
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def grad_dict_formula(D, X, S):
    return (D @ X - S) @ X.swapaxes(-1, -2)


def grad_codes_formula(D, X, S):
    return D.swapaxes(-1, -2) @ (D @ X - S)


def x_update_linearized_formula(X, U, S, tau, lam, mu):
    g = grad_codes_formula(U, X, S)
    return (tau / (2.0 * mu + tau)) * soft_threshold_sign(X - g / tau,
                                                          lam / tau)


def x_update_plain_loop(X, U, S, tau, lam, mu, inner_tol=1e-8,
                        inner_max_iter=2000, sigma=None):
    """The plain coding solver's earlier loop, eight new arrays per
    iteration and the per-agent factors broadcast from ``(c, 1, 1)``;
    ``distdict.core.x_update_plain`` must return its codes and flags bit
    for bit. The package's shrinkage and spectral norm are used, so that
    only the loop is compared."""
    from distdict.core import sigma_max, soft_threshold

    flat = np.ndim(X) == 2
    X0, U, S = [A if A.ndim == 3 else A[None]
                for A in (np.asarray(A, dtype=float) for A in (X, U, S))]
    Ut = U.swapaxes(-1, -2)
    if sigma is None:
        sigma, _ = sigma_max(U)
    m = np.broadcast_to(tau + 2.0 * mu, (len(X0), 1, 1))
    L = np.reshape(np.square(sigma), (-1, 1, 1)) + m
    step = 1.0 / L
    r = np.sqrt(m * step)
    beta = (1.0 - r) / (1.0 + r)
    H = -step * (Ut @ U)
    H += (1.0 - step * m) * np.eye(U.shape[-1])
    C = step * (Ut @ S + tau * X0)
    Xk = X0.copy()
    Y = X0.copy()
    out = X0.copy()
    done = np.zeros(len(X0), dtype=bool)
    for _ in range(inner_max_iter):
        Xn = soft_threshold(H @ Y + C, step * lam)
        change = np.max(np.abs(Xn - Y), axis=(-2, -1))
        Y = Xn + beta * (Xn - Xk)
        Xk = Xn
        now = (change <= inner_tol) & ~done
        if now.any():
            out[now] = Xn[now]
            done |= now
        if done.all():
            break
    else:
        out[~done] = Xk[~done]
    return (out[0], bool(done[0])) if flat else (out, done)


def d_update_plain_loop(D, X, S, direction, tau, alpha, inner_tol=1e-8,
                        inner_max_iter=2000):
    """The plain dictionary solver's earlier loop, which forms the gradient
    and the projected step in new arrays every iteration, on the surrogate
    1/2 ||S - D X||^2 + tau/2 ||D - D0||^2 + <grad_rest, D - D0> with the
    others-gradient estimate grad_rest = direction - grad_dict(D0, X, S);
    ``distdict.core.d_update_plain``, which reads no ``S``, must match its
    flags, and its iterates up to rounding. The package's projection and
    spectral norm are used, so that only the loop is compared."""
    from distdict.core import grad_dict, project_dictionary, sigma_max

    if tau <= 0:
        raise ValueError("tau must be positive")
    flat = np.ndim(D) == 2
    D0, X, S, direction = [A if A.ndim == 3 else A[None]
                           for A in (np.asarray(A, dtype=float)
                                     for A in (D, X, S, direction))]
    Xt = X.swapaxes(-1, -2)
    XXt = X @ Xt
    SXt = S @ Xt
    grad_rest = direction - grad_dict(D0, X, S)
    if not all(np.isfinite(A).all() for A in (XXt, SXt, D0, grad_rest)):
        raise ValueError("D0, X, S and direction must be finite")
    sig, _ = sigma_max(X)
    step = (1.0 / (sig * sig + tau))[:, None, None]
    Dk = D0.copy()
    out = D0.copy()
    done = np.zeros(len(D0), dtype=bool)
    for _ in range(inner_max_iter):
        grad = Dk @ XXt - SXt + tau * (Dk - D0) + grad_rest
        Dn = project_dictionary(Dk - step * grad, alpha)
        change = np.max(np.abs(Dn - Dk), axis=(-2, -1))
        Dk = Dn
        now = (change <= inner_tol) & ~done
        if now.any():
            out[now] = Dn[now]
            done |= now
        if done.all():
            break
    else:
        out[~done] = Dk[~done]
    return (out[0], bool(done[0])) if flat else (out, done)


def project_dictionary_formula(D, alpha):
    """The column projection from ``np.linalg.norm``, with the factors
    gathered and scattered through a boolean mask."""
    D = np.asarray(D, dtype=float)
    norms = np.linalg.norm(D, axis=-2, keepdims=True)
    scale = np.ones_like(norms)
    over = norms > alpha
    scale[over] = alpha / norms[over]
    return D * scale


def sigma_max_eigvalsh(A):
    """The spectral norm of A, or of each matrix of a stack, as the square
    root of the top eigenvalue of the smaller Gram matrix by LAPACK's
    ``eigvalsh``, clipped at zero."""
    A = np.asarray(A, dtype=float)
    At = A.swapaxes(-1, -2)
    B = At @ A if A.shape[-1] <= A.shape[-2] else A @ At
    return np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(B)[..., -1]))


def consensus_tensordot(W, mats):
    """The mix out[i] = sum_j W[i, j] mats[j] as one ``np.tensordot``."""
    return np.tensordot(np.asarray(W, dtype=float),
                        np.asarray(mats, dtype=float), axes=1)


def stacks_fit_broadcast(d_shape, x_shape, s_shape):
    """The gradients' earlier stack rule: the stacks of D and X broadcast,
    and S's stack broadcasts into theirs without widening it."""
    try:
        stack = np.broadcast_shapes(d_shape[:-2], x_shape[:-2])
        return np.broadcast_shapes(stack, s_shape[:-2]) == stack
    except ValueError:
        return False


def consensus_error_formula(D_list):
    """The worst deviation from ``np.mean`` of the copies."""
    stack = np.asarray(D_list, dtype=float)
    return float(np.max(np.abs(stack - stack.mean(axis=0))))


def objective_formula(D, X_groups, problem):
    """The objective summed over the groups, codes given as group stacks."""
    total = 0.0
    for S, X in zip(problem.S_groups, X_groups):
        R = S - D @ X
        total += (0.5 * np.sum(R * R)
                  + problem.lam * np.sum(np.abs(X))
                  + problem.mu * np.sum(X * X))
    return float(total)


def stationarity_gap_formula(D_bar, X_groups, problem):
    """The gap with both gradients formed from their own residuals, the
    codes given as group stacks."""
    grad_sum = np.zeros_like(D_bar)
    gap = 0.0
    for S, X in zip(problem.S_groups, X_groups):
        grad_sum += grad_dict_formula(D_bar, X, S).sum(axis=0)
        X_hat = x_update_linearized_formula(X, D_bar, S, 1.0, problem.lam,
                                            problem.mu)
        gap = max(gap, float(np.max(np.abs(X - X_hat))))
    D_hat = project_dictionary_formula(D_bar - grad_sum / problem.num_agents,
                                       problem.alpha)
    return max(gap, float(np.max(np.abs(D_bar - D_hat))))


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
    (1 - q) / (1 + q), q = sqrt(m / L), with m = tau + 2 mu > 0."""
    m = tau + 2 * mu
    L = np.linalg.svd(U, compute_uv=False)[0] ** 2 + m
    q = np.sqrt(m / L)
    beta = (1 - q) / (1 + q)
    X = np.array(X0, dtype=float)
    Y = X.copy()
    for _ in range(iters):
        G = U.T @ (U @ Y - S) + tau * (Y - X0) + 2 * mu * Y
        X_new = np.zeros_like(X)
        for r in range(X.shape[0]):
            for c in range(X.shape[1]):
                v = Y[r, c] - G[r, c] / L
                X_new[r, c] = max(abs(v) - lam / L, 0.0) * np.sign(v)
        Y = X_new + beta * (X_new - X)
        X = X_new
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


def assemble_patches_loop(patches, image_shape, patch_side, stride):
    """Patch reassembly one patch position at a time, in the row-major
    order of the corners, averaging the overlaps and clipping to
    [0, 255]."""
    h, w = image_shape
    p = patch_side
    acc = np.zeros((h, w))
    cnt = np.zeros((h, w))
    k = 0
    for r in range(0, h - p + 1, stride):
        for c in range(0, w - p + 1, stride):
            acc[r:r + p, c:c + p] += patches[:, k].reshape(p, p)
            cnt[r:r + p, c:c + p] += 1.0
            k += 1
    out = np.divide(acc, cnt, out=np.zeros_like(acc), where=cnt > 0)
    return np.clip(out, 0.0, 255.0)


def denoise_with_copies(noisy, config, patch_side, stride, num_atoms):
    """The denoising pipeline with a new array at every stage: centered
    coding data ``(patches - offsets) / 255``, one decode
    ``255 (D @ hstack(codes)) + offsets``, reassembly one patch at a time,
    and the clipped noisy value wherever no patch lands. Returns
    ``(image, trace)``."""
    from distdict import (ProblemData, extract_patches, mean_dictionary,
                          partition_columns, run)

    noisy = np.asarray(noisy, dtype=float)
    patches = extract_patches(noisy, patch_side, stride)
    offsets = patches.mean(axis=0)
    coding = (patches - offsets) / 255.0
    blocks = [coding[:, s] for s in
              partition_columns(patches.shape[1], config.graph.num_agents)]
    problem = ProblemData(S_blocks=blocks, K=num_atoms, lam=config.lam,
                          mu=config.mu, alpha=config.alpha)
    trace = run(problem, config)
    D = mean_dictionary(trace.state.D)
    codes = problem.groups.unstack(trace.state.X)
    decoded = 255.0 * (D @ np.hstack(codes)) + offsets
    image = assemble_patches_loop(decoded, noisy.shape, patch_side, stride)
    bare = coverage_counts(*noisy.shape, patch_side, stride) == 0
    image[bare] = np.clip(noisy[bare], 0.0, 255.0)
    return image, trace


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


def per_agent_start(problem, seed):
    """The initial stacks of ``init_agents`` as one AgentState per agent,
    each holding its own copies of its 2-d matrices, the codes unpadded."""
    from distdict.agents import AgentState, init_agents

    D, X, tracker = init_agents(problem, seed=seed)
    return [AgentState(D=D[i].copy(), X=x.copy(), tracker=tracker[i].copy())
            for i, x in enumerate(problem.groups.unstack(X))]


def ragged_run(problem, config, schedule, observer):
    """The tracked round loop run one agent at a time on the 2-d kernels,
    each agent with its own unpadded block: the reference for the stacked
    round engine of ``distdict.protocol.run``.

    Calls ``observer(nu, agents, flags)`` after every round with the list of
    per-agent states and the number of agents whose inner solvers hit their
    cap in that round.
    """
    from distdict.agents import (coding_prox_weight, coding_step,
                                 dictionary_step, gamma_sequence)
    from distdict.core import grad_dict

    sched = config.steps
    agents = per_agent_start(problem, config.seed)
    I = problem.num_agents
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    grads_prev = [grad_dict(a.D, a.X, S)
                  for a, S in zip(agents, problem.S_blocks)]
    for nu in range(config.max_rounds):
        W = schedule.weights_at(nu)
        flags = 0
        halves = []
        for a, S in zip(agents, problem.S_blocks):
            D_half, ok_d = dictionary_step(a.D, a.X, I * a.tracker,
                                           gammas[nu], sched, problem.alpha)
            tau_x, _ = coding_prox_weight(D_half, sched.eps_tau)
            a.X, ok_x = coding_step(a.X, D_half, S, tau_x, problem.lam,
                                    problem.mu, gammas[nu], sched)
            flags += (not ok_d) + (not ok_x)
            halves.append(D_half)
        mixed = np.tensordot(W, np.stack(halves), axes=1)
        for a, D_new in zip(agents, mixed):
            a.D = D_new
        grads_new = [grad_dict(a.D, a.X, S)
                     for a, S in zip(agents, problem.S_blocks)]
        trackers = (np.tensordot(W, np.stack([a.tracker for a in agents]),
                                 axes=1)
                    - np.stack(grads_prev)) + np.stack(grads_new)
        for a, tracker in zip(agents, trackers):
            a.tracker = tracker
        grads_prev = grads_new
        observer(nu + 1, agents, flags)


def ragged_diffusion(problem, config, schedule, observer):
    """Adapt-then-combine diffusion run one agent at a time on the 2-d
    kernels, each agent with its own unpadded block: the reference for
    ``distdict.diffusion_baseline``. Each round every agent takes a
    projected step along its own gradient, the copies are mixed, and the
    codes are refreshed against the mixed copy.

    Calls ``observer(nu, agents, flags)`` as ``ragged_run`` does; the
    agents' trackers are zero throughout.
    """
    from distdict.agents import coding_prox_weight, coding_step, gamma_sequence
    from distdict.core import grad_dict, project_dictionary

    sched = config.steps
    agents = per_agent_start(problem, config.seed)
    for a in agents:
        a.tracker = np.zeros_like(a.D)
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    for nu in range(config.max_rounds):
        adapted = [project_dictionary(
                       a.D - gammas[nu] * grad_dict(a.D, a.X, S),
                       problem.alpha)
                   for a, S in zip(agents, problem.S_blocks)]
        mixed = np.tensordot(schedule.weights_at(nu), np.stack(adapted),
                             axes=1)
        flags = 0
        for a, S, D in zip(agents, problem.S_blocks, mixed):
            a.D = D
            tau_x, _ = coding_prox_weight(D, sched.eps_tau)
            a.X, ok = coding_step(a.X, D, S, tau_x, problem.lam, problem.mu,
                                  gammas[nu], sched)
            flags += not ok
        observer(nu + 1, agents, flags)
