"""Merit functions, image quality scores, reference solvers and the trace
container shared by all drivers.

The two merit functions view the network through a global observer:

* ``stationarity_gap`` measures how far the mean dictionary and the stacked
  codes are from a fixed point of the prox/projection updates with unit
  proximal weight;
* ``consensus_error`` measures the worst entrywise disagreement of the
  per-agent dictionary copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import (AgentState, agent_views, coding_prox_weight,
                     coding_step, dictionary_step, gamma_sequence, init_agents,
                     stack_agents)
from .config import RunConfig
from .core import (ProblemData, grad_dict, objective_global,
                   project_dictionary, x_update_linearized)
from .network import build_schedule, is_b_strongly_connected

CSV_COLUMNS = ("nu", "messages", "objective", "delta", "cons_err", "gamma")


@dataclass
class MetricsTrace:
    """Per-round diagnostics; one row per recorded round."""

    nu: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    cons_err: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def add_row(self, nu, messages, objective, delta, cons_err, gamma,
                flags=0):
        if self.nu and nu <= self.nu[-1]:
            raise ValueError("round indices must be strictly increasing")
        self.nu.append(int(nu))
        self.messages.append(int(messages))
        self.objective.append(float(objective))
        self.delta.append(float(delta))
        self.cons_err.append(float(cons_err))
        self.gamma.append(float(gamma))
        self.flags.append(int(flags))

    def __len__(self):
        return len(self.nu)

    def row(self, i):
        return {c: getattr(self, c)[i] for c in CSV_COLUMNS + ("flags",)}

    def row_at_messages(self, budget):
        """Last recorded row whose message count does not exceed budget."""
        best = None
        for i, m in enumerate(self.messages):
            if m <= budget:
                best = i
        if best is None:
            raise ValueError(f"no recorded row within budget {budget}")
        return self.row(best)

    def write_csv(self, path) -> None:
        """Write the trace with a fixed column set and shortest round-trip
        float formatting, so identical runs give identical bytes."""
        lines = [",".join(CSV_COLUMNS)]
        for i in range(len(self)):
            lines.append(",".join([
                str(self.nu[i]), str(self.messages[i]),
                repr(self.objective[i]), repr(self.delta[i]),
                repr(self.cons_err[i]), repr(self.gamma[i])]))
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def mean_dictionary(D_list) -> np.ndarray:
    """Network mean of the dictionary copies, given as an ``(I, M, K)``
    stack or a list of ``(M, K)`` arrays."""
    return np.asarray(D_list, dtype=float).mean(axis=0)


def stationarity_gap(D_bar, X_blocks, problem: ProblemData) -> float:
    """Max-norm distance of (D_bar, X) from its unit-weight prox/projection
    update, evaluated with gradients at the common dictionary D_bar.

    The codes are given per agent or as group stacks
    (``ProblemData.code_groups``); the gradients are summed per group.
    """
    D_bar = np.asarray(D_bar, dtype=float)
    grad_sum = np.zeros_like(D_bar)
    gap = 0.0
    for S, X in zip(problem.S_groups, problem.code_groups(X_blocks)):
        grad_sum += grad_dict(D_bar, X, S).sum(axis=0)
        X_hat = x_update_linearized(X, D_bar, S, 1.0, problem.lam, problem.mu)
        gap = max(gap, float(np.max(np.abs(X - X_hat))))
    D_hat = project_dictionary(D_bar - grad_sum / problem.num_agents,
                               problem.alpha)
    gap = max(gap, float(np.max(np.abs(D_bar - D_hat))))
    return gap


def consensus_error(D_list, D_bar=None) -> float:
    """Worst entrywise deviation of the local dictionary copies, given as an
    ``(I, M, K)`` stack or a list, from their mean."""
    stack = np.asarray(D_list, dtype=float)
    if D_bar is None:
        D_bar = stack.mean(axis=0)
    return float(np.max(np.abs(stack - D_bar)))


def psnr_mse(reference, estimate, peak: float = 255.0):
    """Peak signal-to-noise ratio (dB) and mean squared error between two
    images of identical shape; an exact match gives psnr = inf."""
    ref = np.asarray(reference, dtype=float)
    est = np.asarray(estimate, dtype=float)
    if ref.shape != est.shape:
        raise ValueError(f"shape mismatch {ref.shape} vs {est.shape}")
    mse = float(np.mean((ref - est) ** 2))
    if mse == 0.0:
        return float("inf"), 0.0
    return float(10.0 * np.log10(peak * peak / mse)), mse


def centralized_oracle(problem: ProblemData, config: RunConfig,
                       observer=None) -> MetricsTrace:
    """Single-machine reference: the same surrogate updates on the pooled
    data, no network, no tracking (the others-gradient term is zero).

    Used both as a correctness oracle for the single-agent network run and
    as a convergence reference. Records the same trace columns with a
    message count of zero.
    """
    S = np.hstack(problem.S_blocks)
    pooled = ProblemData(S_blocks=[S], K=problem.K, lam=problem.lam,
                         mu=problem.mu, alpha=problem.alpha)
    sched = config.steps
    agent = init_agents(pooled, seed=config.seed)[0]
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    trace = MetricsTrace()

    def record(nu, flags):
        trace.add_row(nu, 0, objective_global(agent.D, [agent.X], pooled),
                      stationarity_gap(agent.D, [agent.X], pooled),
                      0.0, gammas[nu], flags)

    record(0, 0)
    flags = 0
    for nu in range(config.max_rounds):
        ok_d = dictionary_step(agent, S, gammas[nu], sched, pooled.alpha,
                               grad_dict(agent.D, agent.X, S))
        tau_x, sig = coding_prox_weight(agent.D_half, sched.eps_tau)
        ok_x = coding_step(agent, S, tau_x, pooled.lam, pooled.mu, sched,
                           sigma=sig)
        agent.D = agent.D_half.copy()
        flags += (not ok_d) + (not ok_x)
        if observer is not None:
            observer(nu + 1, agent)
        if (nu + 1) % config.metric_stride == 0 or nu + 1 == config.max_rounds:
            record(nu + 1, flags)
            flags = 0
            if trace.delta[-1] <= config.stop_tol:
                break
    return trace


def _record(trace, problem, D, X, nu, messages, gamma, flags):
    D_bar = mean_dictionary(D)
    trace.add_row(nu, messages, objective_global(D_bar, X, problem),
                  stationarity_gap(D_bar, X, problem),
                  consensus_error(D, D_bar), gamma, flags)


def diffusion_baseline(problem: ProblemData, config: RunConfig,
                       schedule=None, observer=None) -> MetricsTrace:
    """Simplified adapt-then-combine diffusion stand-in, no tracking.

    Each round every agent takes a projected gradient step on its dictionary
    copy driven only by its own gradient with the shared diminishing step
    size, the copies are mixed over the graph (the single message exchange
    of the round), and the codes are refreshed against the mixed dictionary.
    The state is held as stacks over the agent groups of ``problem``, as in
    ``protocol.run``. ``observer(nu, agents)`` gets per-agent views with
    zero trackers.
    """
    if schedule is None:
        schedule = build_schedule(config.graph.kind, config.graph.num_agents,
                                  window=config.graph.window,
                                  seed=config.graph.seed,
                                  period=config.graph.period)
    if schedule.num_agents != problem.num_agents:
        raise ValueError("schedule and problem disagree on the agent count")
    if not is_b_strongly_connected(schedule):
        raise ValueError("schedule violates its connectivity window")
    sched = config.steps
    D, X, _, _ = stack_agents(problem.groups,
                              init_agents(problem, seed=config.seed))
    zeros = np.zeros_like(D)
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    trace = MetricsTrace()
    _record(trace, problem, D, X, 0, 0, gammas[0], 0)
    flags = 0
    for nu in range(config.max_rounds):
        W = schedule.weights_at(nu)
        grads = np.concatenate([grad_dict(D[sl], Xg, S) for sl, S, Xg in
                                zip(problem.groups.slices, problem.S_groups,
                                    X)])
        adapted = project_dictionary(D - gammas[nu] * grads, problem.alpha)
        D = np.tensordot(W, adapted, axes=1)
        for g, (sl, S) in enumerate(zip(problem.groups.slices,
                                        problem.S_groups)):
            group = AgentState(D=D[sl], X=X[g], tracker=None, grad_rest=None,
                               D_half=D[sl])
            tau_x, sig = coding_prox_weight(group.D, sched.eps_tau)
            ok = coding_step(group, S, tau_x, problem.lam, problem.mu, sched,
                             sigma=sig)
            flags += np.size(ok) - np.count_nonzero(ok)
            X[g] = group.X
        if observer is not None:
            observer(nu + 1, agent_views(problem.groups, D, X, zeros, zeros))
        if (nu + 1) % config.metric_stride == 0 or nu + 1 == config.max_rounds:
            _record(trace, problem, D, X, nu + 1, nu + 1, gammas[nu + 1],
                    flags)
            flags = 0
            if trace.delta[-1] <= config.stop_tol:
                break
    return trace
