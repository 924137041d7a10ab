"""Per-agent state and the local half of one optimization round.

Each agent keeps a private copy ``D`` of the dictionary, its own codes
``X``, a ``tracker`` that follows the network average of the dictionary
gradients, and ``grad_rest``, the running estimate of the summed gradient
of all other agents. ``D_half`` is the damped local dictionary update that
gets broadcast in the consensus step.

The steps work the same on one agent's matrices and on a group of agents
held as stacks with a leading agent axis (see ``core``); the round engine
calls them once per group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AgentGroups, ProblemData, d_update_linearized, d_update_plain,
                   grad_dict, sigma_max, x_update_linearized, x_update_plain)

VARIANTS = ("plain", "linearized")


@dataclass
class StepSchedule:
    """Step-size rules, proximal weights and the coding-variant switch.

    ``gamma0`` must lie in [0, 1]; zero freezes the dictionary, which is a
    degenerate but useful testing mode. ``eps_gamma`` controls the decay
    gamma[n] = gamma[n-1] * (1 - eps_gamma * gamma[n-1]) and must satisfy
    eps_gamma * gamma0 < 1 so the sequence stays positive.
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


@dataclass
class AgentState:
    """Local variables owned by one agent."""

    D: np.ndarray
    X: np.ndarray
    tracker: np.ndarray
    grad_rest: np.ndarray
    D_half: np.ndarray = None


def stack_agents(groups: AgentGroups, agents) -> tuple:
    """The inverse of ``protocol.RoundState.agents``: ``(D, X, tracker,
    grad_rest)`` with ``X`` as the group stacks of ``groups`` and the others
    as ``(I, M, K)`` stacks."""
    return (np.stack([a.D for a in agents]),
            groups.stack([a.X for a in agents]),
            np.stack([a.tracker for a in agents]),
            np.stack([a.grad_rest for a in agents]))


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


def init_agents(problem: ProblemData, seed: int = 0) -> list:
    """Initial per-agent states: zero codes, dictionary columns drawn from
    the agent's own data columns and rescaled to norm alpha, tracker seeded
    with the initial local dictionary gradient."""
    agents = []
    I = problem.num_agents
    for i, S in enumerate(problem.S_blocks):
        rng = np.random.default_rng([seed, i])
        M, n_i = S.shape
        idx = rng.integers(0, n_i, size=problem.K)
        D = S[:, idx].astype(float).copy()
        norms = np.linalg.norm(D, axis=0)
        for k in np.flatnonzero(norms < 1e-12):
            col = rng.standard_normal(M)
            D[:, k] = col
            norms[k] = np.linalg.norm(col)
        D *= problem.alpha / norms
        X = np.zeros((problem.K, n_i))
        g0 = grad_dict(D, X, S)
        agents.append(AgentState(D=D, X=X, tracker=g0.copy(),
                                 grad_rest=I * g0 - g0, D_half=D.copy()))
    return agents


def dictionary_step(state: AgentState, S, gamma: float, sched: StepSchedule,
                    alpha: float, grad) -> bool:
    """Solve the local dictionary surrogate and damp it with ``gamma``.

    ``grad`` is the local gradient ``grad_dict(state.D, state.X, S)`` at the
    current point, which the round loop already holds; the linearized mode
    steps along it and the plain mode does not need it. Writes
    ``state.D_half = D + gamma (D_tilde - D)``. Returns False when the
    plain-mode inner solver hit its iteration cap; for a stacked state, one
    such flag per agent.
    """
    if sched.d_mode == "plain":
        d_tilde, ok = d_update_plain(state.D, state.X, S, state.grad_rest,
                                     sched.tau_d, alpha,
                                     sched.inner_tol, sched.inner_max_iter)
    else:
        d_tilde = d_update_linearized(state.D, grad, state.grad_rest,
                                      sched.tau_d, alpha)
        ok = True
    state.D_half = state.D + gamma * (d_tilde - state.D)
    return ok


def coding_step(state: AgentState, S, tau_x: float, lam: float, mu: float,
                sched: StepSchedule, sigma=None) -> bool:
    """Update the private codes against the blended dictionary ``D_half``.

    ``sigma`` is ``sigma_max(state.D_half)`` when the caller holds it (see
    ``coding_prox_weight``); the plain variant computes it otherwise.
    Returns False when the plain-variant inner solver hit its iteration cap;
    for a stacked state, one such flag per agent.
    """
    if sched.variant == "plain":
        X_new, ok = x_update_plain(state.X, state.D_half, S, tau_x, lam, mu,
                                   sched.inner_tol, sched.inner_max_iter,
                                   sigma=sigma)
    else:
        X_new = x_update_linearized(state.X, state.D_half, S, tau_x, lam, mu)
        ok = True
    state.X = X_new
    return ok

