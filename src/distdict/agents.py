"""Per-agent state and the local half of one optimization round.

Each agent keeps a private copy ``D`` of the dictionary, its own codes
``X`` and a ``tracker`` y that follows the network average of the
dictionary gradients; ``I y`` is its local gradient plus its estimate of
the others', the one linear term of both dictionary surrogates. The
dictionary step returns ``D_half``, the damped local dictionary update that
gets broadcast in the consensus step.

The steps take and return arrays. They work the same on one agent's
matrices and on agents held as stacks with a leading agent axis (see
``core``); the round engine calls the steps that read an agent's data once
per group, and the others once over all agents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ProblemData, d_update_linearized, d_update_plain,
                   sigma_max, x_update_linearized, x_update_plain)
# unused here; bench/tracer.py wraps it by name on this module
from .core import grad_dict  # noqa: F401

VARIANTS = ("plain", "linearized")
# the plain solvers of round nu stop at max(inner_tol, INNER_TOL_SCALE
# gamma_nu^2); see StepSchedule.inner_tol_at
INNER_TOL_SCALE = 1e-2


@dataclass
class StepSchedule:
    """Step-size rules, proximal weights and the coding-variant switch.

    ``gamma0`` must lie in [0, 1]; zero freezes the dictionary, which is a
    degenerate but useful testing mode. ``eps_gamma`` controls the decay
    gamma[n] = gamma[n-1] * (1 - eps_gamma * gamma[n-1]) and must satisfy
    eps_gamma * gamma0 < 1 so the sequence stays positive.

    The plain solvers of a round with step ``gamma`` stop at the tolerance
    ``inner_tol_at(gamma)``: the framework converges with inexact local
    solves as long as the errors eps_nu satisfy sum gamma_nu eps_nu < inf,
    and a tolerance of order gamma_nu^2 is summable against gamma_nu, which
    decays like 1 / (eps_gamma nu). ``inner_tol`` is its floor. Every float
    field must be finite.
    """

    gamma0: float = 0.5
    eps_gamma: float = 0.1
    tau_d: float = 1.0
    eps_tau: float = 1e-6
    variant: str = "linearized"
    d_mode: str = "linearized"
    inner_tol: float = 1e-8
    inner_max_iter: int = 2000

    def __post_init__(self):
        check_finite(self, "gamma0", "eps_gamma", "tau_d", "eps_tau",
                     "inner_tol")
        if not 0.0 <= self.gamma0 <= 1.0:
            raise ValueError("gamma0 must lie in [0, 1]")
        if self.eps_gamma <= 0 or self.eps_gamma * self.gamma0 >= 1.0:
            raise ValueError("eps_gamma must be positive with "
                             "eps_gamma * gamma0 < 1")
        if self.tau_d <= 0:
            raise ValueError("tau_d must be positive")
        if self.eps_tau <= 0:
            raise ValueError("eps_tau must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.d_mode not in VARIANTS:
            raise ValueError(f"d_mode must be one of {VARIANTS}")
        if self.inner_tol <= 0 or self.inner_max_iter < 1:
            raise ValueError("inner_tol must be positive and inner_max_iter "
                             "at least 1")

    def inner_tol_at(self, gamma: float) -> float:
        """Stopping tolerance of the plain solvers in a round with step
        ``gamma``: max(inner_tol, INNER_TOL_SCALE gamma^2). The floor binds
        once gamma < sqrt(inner_tol / INNER_TOL_SCALE), 1e-3 by default."""
        return max(self.inner_tol, INNER_TOL_SCALE * gamma * gamma)


def check_finite(obj, *names) -> None:
    """Raise ValueError naming the first of the fields ``names`` of ``obj``
    that is NaN or infinite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass
class AgentState:
    """Local variables of one agent, as ``protocol.RoundState.agents``
    shows them: views into the round engine's stacks."""

    D: np.ndarray
    X: np.ndarray
    tracker: np.ndarray


def gamma_sequence(count: int, gamma0: float, eps: float) -> np.ndarray:
    """First ``count`` values of gamma[n] = gamma[n-1] (1 - eps gamma[n-1])."""
    g = np.empty(count)
    if count == 0:
        return g
    g[0] = gamma0
    for n in range(1, count):
        g[n] = g[n - 1] * (1.0 - eps * g[n - 1])
    return g


def coding_prox_weight(D_half, eps_tau: float) -> tuple:
    """Proximal weight of the coding step, max(eps_tau, sigma_max(D_half)^2),
    and the norm sigma_max(D_half) it came from, which ``coding_step`` hands
    to the plain solver so that it need not take the norm again.

    For a stack of ``c`` dictionaries, one weight per agent with shape
    ``(c, 1, 1)``, which broadcasts over the agents' codes, and ``c`` norms.
    """
    sig, _ = sigma_max(D_half)
    if np.ndim(sig):
        return np.maximum(eps_tau, sig * sig)[:, None, None], sig
    return max(eps_tau, sig * sig), sig


def init_agents(problem: ProblemData, seed: int = 0) -> tuple:
    """Initial agent state ``(D, X, tracker)``, the stacks that
    ``protocol.RoundState`` holds: ``X`` is the group stacks of
    ``problem.groups``, the others are ``(I, M, K)``.

    The codes start at zero, and so does the tracker: every local gradient
    ``(D 0 - S) 0^T`` is zero. Each dictionary column is drawn from the
    agent's own data columns and rescaled to norm alpha; a zero column gets
    a random direction instead. An atom drawn as a copy of
    an earlier one at every agent would stay one up to rounding, and
    rounding alone would split the pair, so it takes a column its agent has
    not used yet, at each agent that has one.
    """
    rngs = [np.random.default_rng([seed, i])
            for i in range(len(problem.S_blocks))]
    idx = np.stack([rng.integers(0, S.shape[1], size=problem.K)
                    for rng, S in zip(rngs, problem.S_blocks)])
    for k in range(1, problem.K):
        if not np.any(np.all(idx[:, :k] == idx[:, k:k + 1], axis=0)):
            continue
        for i, (rng, S) in enumerate(zip(rngs, problem.S_blocks)):
            unused = np.setdiff1d(np.arange(S.shape[1]), idx[i, :k])
            if unused.size:
                idx[i, k] = unused[rng.integers(unused.size)]
    dicts = []
    for rng, S, cols in zip(rngs, problem.S_blocks, idx):
        M = S.shape[0]
        D = S[:, cols].astype(float).copy()
        norms = np.linalg.norm(D, axis=0)
        for k in np.flatnonzero(norms < 1e-12):
            col = rng.standard_normal(M)
            D[:, k] = col
            norms[k] = np.linalg.norm(col)
        D *= problem.alpha / norms
        dicts.append(D)
    D = np.stack(dicts)
    codes = [np.zeros((len(S), problem.K, S.shape[-1]))
             for S in problem.S_groups]
    return D, codes, np.zeros_like(D)


def dictionary_step(D, X, direction, gamma: float, sched: StepSchedule,
                    alpha: float) -> tuple:
    """Solve the local dictionary surrogate and damp it with ``gamma``.

    ``direction`` is the surrogate's linear term ``I y``, I times the
    tracker. The linearized mode takes ``proj(D - I y / tau_d)`` and reads
    no ``X``, so one call on a stack equals its calls on the parts bit for
    bit; the plain mode solves to ``sched.inner_tol_at(gamma)``. Returns
    ``(D_half, ok)`` with ``D_half = D + gamma (D_tilde - D)``; ``ok`` is
    False when the plain-mode inner solver hit its iteration cap, and for a
    stack of agents one such flag per agent.
    """
    if sched.d_mode == "plain":
        d_tilde, ok = d_update_plain(D, X, direction, sched.tau_d, alpha,
                                     sched.inner_tol_at(gamma),
                                     sched.inner_max_iter)
    else:
        d_tilde = d_update_linearized(D, direction, sched.tau_d, alpha)
        ok = True
    # damped in place: d_tilde is the solver's own new array
    d_tilde -= D
    d_tilde *= gamma
    d_tilde += D
    return d_tilde, ok


def coding_step(X, D_half, S, tau_x: float, lam: float, mu: float,
                gamma: float, sched: StepSchedule, sigma=None) -> tuple:
    """Update the private codes ``X`` against the blended dictionary
    ``D_half`` in a round with step ``gamma``; the plain variant solves to
    ``sched.inner_tol_at(gamma)``.

    ``sigma`` is ``sigma_max(D_half)`` when the caller holds it (see
    ``coding_prox_weight``); the plain variant computes it otherwise.
    Returns ``(X_new, ok)``; ``ok`` is False when the plain-variant inner
    solver hit its iteration cap, and for a stack of agents one such flag
    per agent.
    """
    if sched.variant == "plain":
        return x_update_plain(X, D_half, S, tau_x, lam, mu,
                              sched.inner_tol_at(gamma), sched.inner_max_iter,
                              sigma=sigma)
    return x_update_linearized(X, D_half, S, tau_x, lam, mu), True
