"""Synthetic ground-truth instances and the built-in denoising test image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProblemData


@dataclass(eq=False)
class SyntheticInstance:
    """Ground truth behind a generated problem."""

    D_true: np.ndarray
    X_true: np.ndarray
    S: np.ndarray
    noise_sigma: float


def partition_columns(n: int, num_agents: int) -> list:
    """Contiguous column blocks; the remainder goes to the first blocks."""
    if num_agents < 1 or num_agents > n:
        raise ValueError(f"cannot split {n} columns over {num_agents} agents")
    base, extra = divmod(n, num_agents)
    slices, lo = [], 0
    for i in range(num_agents):
        hi = lo + base + (1 if i < extra else 0)
        slices.append(slice(lo, hi))
        lo = hi
    return slices


def make_synthetic(M: int, K: int, N: int, num_agents: int, k0: int,
                   noise_sigma: float, seed: int = 0, lam: float = 0.1,
                   mu: float = 0.05, alpha: float = 1.0):
    """Draw a planted instance S = D_true X_true + noise.

    D_true columns are uniform on the alpha-sphere, every X_true column has
    ``k0`` nonzeros drawn standard normal on a uniform support, and the
    noise is iid Gaussian with standard deviation ``noise_sigma``.

    Returns ``(SyntheticInstance, ProblemData)`` with the data columns split
    contiguously over the agents.
    """
    if min(M, K, N, num_agents) < 1:
        raise ValueError("all sizes must be at least 1")
    if not 0 <= k0 <= K:
        raise ValueError("k0 must lie in [0, K]")
    if num_agents > N:
        raise ValueError("every agent needs at least one column")
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((M, K))
    D *= alpha / np.linalg.norm(D, axis=0)
    X = np.zeros((K, N))
    for j in range(N):
        support = rng.choice(K, size=k0, replace=False)
        X[support, j] = rng.standard_normal(k0)
    S = D @ X + noise_sigma * rng.standard_normal((M, N))
    instance = SyntheticInstance(D_true=D, X_true=X, S=S,
                                 noise_sigma=noise_sigma)
    blocks = [S[:, s].copy() for s in partition_columns(N, num_agents)]
    problem = ProblemData(S_blocks=blocks, K=K, lam=lam, mu=mu, alpha=alpha)
    return instance, problem


def make_standard_problem(seed: int = 42, num_agents: int = 5):
    """The mid-size benchmark instance used by the comparison drivers:
    M=16, K=24, N=200, k0=8, noise 0.01, lam=0.1, mu=0.05, alpha=1."""
    return make_synthetic(M=16, K=24, N=200, num_agents=num_agents, k0=8,
                          noise_sigma=0.01, seed=seed, lam=0.1, mu=0.05,
                          alpha=1.0)


def make_test_image(side: int = 64) -> np.ndarray:
    """Deterministic piecewise test image (uint8): a smooth ramp, two disks
    and a bright bar. Midtone values keep additive noise clipping mild."""
    if side < 16:
        raise ValueError("side must be at least 16")
    r, c = np.indices((side, side))
    img = 90.0 + 70.0 * c / (side - 1)
    img[(r - 0.28 * side) ** 2 + (c - 0.31 * side) ** 2
        <= (0.17 * side) ** 2] = 200.0
    img[(r - 0.69 * side) ** 2 + (c - 0.66 * side) ** 2
        <= (0.22 * side) ** 2] = 60.0
    bar = slice(int(0.05 * side), int(0.12 * side) + 1)
    img[bar, :] = 185.0
    return np.clip(np.rint(img), 40, 215).astype(np.uint8)
