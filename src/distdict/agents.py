"""Per-agent state and the local half of one optimization round.

Each agent keeps a private copy ``D`` of the dictionary, its own codes
``X`` and a ``tracker`` y that follows the network average of the
dictionary gradients; ``I y`` is its local gradient plus its estimate of
the others', the one linear term of both dictionary surrogates. The
dictionary step returns ``D_half``, the damped local dictionary update that
gets broadcast in the consensus step.

The steps take and return agent stacks with a leading agent axis (see
``core``); one agent is a stack of one. The round engine calls the steps
that read an agent's data once per group, and the others once over all
agents.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (ProblemData, d_update_linearized, d_update_plain,
                   sigma_max, x_update_linearized, x_update_plain)
# unused here; bench/tracer.py wraps it by name on this module
from .core import grad_dict  # noqa: F401

VARIANTS = ("plain", "linearized")
# plain solvers stop at max(INNER_TOL, INNER_TOL_SCALE gamma^2) or after
# INNER_MAX_ITER iterations; the coding weight is at least EPS_TAU: numerical
# safety bounds, not method parameters
INNER_TOL_SCALE = 1e-2
INNER_TOL = 1e-8
INNER_MAX_ITER = 2000
EPS_TAU = 1e-6


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
    decays like 1 / (eps_gamma nu). Its floor is the constant ``INNER_TOL``,
    and ``INNER_MAX_ITER`` caps their iterations. Every float field must be
    finite.
    """

    gamma0: float = 0.5
    eps_gamma: float = 0.1
    tau_d: float = 1.0
    variant: str = "linearized"
    d_mode: str = "linearized"

    def __post_init__(self):
        check_finite(self, "gamma0", "eps_gamma", "tau_d")
        if not 0.0 <= self.gamma0 <= 1.0:
            raise ValueError("gamma0 must lie in [0, 1]")
        if self.eps_gamma <= 0 or self.eps_gamma * self.gamma0 >= 1.0:
            raise ValueError("eps_gamma must be positive with "
                             "eps_gamma * gamma0 < 1")
        if self.tau_d <= 0:
            raise ValueError("tau_d must be positive")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.d_mode not in VARIANTS:
            raise ValueError(f"d_mode must be one of {VARIANTS}")

    @staticmethod
    def inner_tol_at(gamma: float) -> float:
        """Stopping tolerance of the plain solvers in a round with step
        ``gamma``: max(INNER_TOL, INNER_TOL_SCALE gamma^2). ``INNER_TOL``
        binds once gamma < 1e-3, about 10 000 rounds in at the defaults."""
        return max(INNER_TOL, INNER_TOL_SCALE * gamma * gamma)


def check_finite(obj, *names) -> None:
    """Raise ValueError naming the first of the fields ``names`` of ``obj``
    that is not a real number, as a bool or a string is not, or that is NaN
    or infinite."""
    for name in names:
        value = getattr(obj, name)
        try:
            if isinstance(value, (bool, np.bool_)):
                raise TypeError
            finite = math.isfinite(value)
        except TypeError:
            raise ValueError(f"{name} must be a real number, got {value!r}") \
                from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def check_integer(obj, *names) -> None:
    """Raise ValueError naming the first of the fields ``names`` of ``obj``
    that is not an integer; neither a float, even with an integral value,
    nor a bool is one."""
    for name in names:
        value = getattr(obj, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") \
                from None


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


def coding_prox_weight(D_half) -> tuple:
    """Proximal weight of the coding step, max(EPS_TAU, sigma_max(D_half)^2),
    and the norm sigma_max(D_half) it came from, which ``coding_step`` hands
    to the plain solver so that it need not take the norm again. ``EPS_TAU``
    binds only where a copy collapses to sigma^2 < 1e-6.

    For a ``(c, M, K)`` stack of dictionaries, one weight per agent with
    shape ``(c, 1, 1)``, which broadcasts over the agents' codes, and ``c``
    norms.
    """
    sig, _ = sigma_max(D_half)
    return np.maximum(EPS_TAU, sig * sig)[:, None, None], sig


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
    ``(D_half, ok)`` with ``D_half = D + gamma (D_tilde - D)``; in plain
    mode ``ok`` holds one flag per agent, False where the inner solver hit
    its iteration cap, and in linearized mode it is True.
    """
    if sched.d_mode == "plain":
        d_tilde, ok = d_update_plain(D, X, direction, sched.tau_d, alpha,
                                     sched.inner_tol_at(gamma),
                                     INNER_MAX_ITER)
    else:
        d_tilde = d_update_linearized(D, direction, sched.tau_d, alpha)
        ok = True
    # damped in place: d_tilde is the solver's own new array
    d_tilde -= D
    d_tilde *= gamma
    d_tilde += D
    return d_tilde, ok


def coding_step(X, D_half, S, tau_x, lam: float, mu: float,
                gamma: float, sched: StepSchedule, sigma) -> tuple:
    """Update the private codes ``X`` against the blended dictionary
    ``D_half`` in a round with step ``gamma``; the plain variant solves to
    ``sched.inner_tol_at(gamma)``.

    ``tau_x`` and ``sigma`` are the weights and norms of
    ``coding_prox_weight``; the plain variant reads ``sigma``. Returns
    ``(X_new, ok)``; in the plain variant ``ok`` holds one flag per agent,
    False where the inner solver hit its iteration cap, and in the
    linearized one it is True.
    """
    if sched.variant == "plain":
        return x_update_plain(X, D_half, S, tau_x, lam, mu,
                              sched.inner_tol_at(gamma), INNER_MAX_ITER, sigma)
    return x_update_linearized(X, D_half, S, tau_x, lam, mu), True
