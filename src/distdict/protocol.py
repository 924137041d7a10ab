"""Round orchestration: local updates, broadcast, consensus and tracking.

One round is

  local   : every agent solves its dictionary surrogate, damps it with the
            diminishing step size, and refreshes its codes against the
            blended dictionary;
  exchange: agents broadcast the blended dictionaries and the trackers
            (two message exchanges per round);
  combine : dictionaries are mixed with the doubly stochastic weights, the
            trackers absorb the local gradient increments, and the
            others-gradient estimates are refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import (coding_prox_weight, coding_step, dictionary_step,
                     gamma_sequence, init_agents)
from .config import RunConfig
from .core import ProblemData, grad_dict, objective_global
from .metrics import (MetricsTrace, consensus_error, mean_dictionary,
                      stationarity_gap)
from .network import (GraphSchedule, build_schedule, is_b_strongly_connected,
                      validate_weights)


@dataclass
class RoundState:
    """Global snapshot handed to observers at the end of each round."""

    agents: list
    nu: int = 0
    messages: int = 0


def consensus_step(W, mats) -> list:
    """Mix per-agent matrices: out[i] = sum_j W[i, j] mats[j]."""
    W = np.asarray(W, dtype=float)
    if W.shape != (len(mats), len(mats)):
        raise ValueError("weight matrix size must match the agent count")
    mixed = np.tensordot(W, np.stack(mats), axes=1)
    return [mixed[i] for i in range(len(mats))]


def tracking_step(W, trackers, grads_new, grads_old) -> list:
    """Consensus on the trackers plus the local gradient increment.

    The old gradient is subtracted before the new one is added; with a
    single agent the mix is exact and the tracker then reproduces the new
    gradient bit for bit, which keeps the network run aligned with the
    centralized reference.
    """
    mixed = np.tensordot(np.asarray(W, dtype=float), np.stack(trackers),
                         axes=1)
    out = (mixed - np.stack(grads_old)) + np.stack(grads_new)
    return [out[i] for i in range(len(trackers))]


def run(problem: ProblemData, config: RunConfig, schedule: GraphSchedule = None,
        observer=None) -> MetricsTrace:
    """Simulate the full protocol on one problem instance.

    Parameters
    ----------
    problem : ProblemData
        Column-partitioned instance; one block per agent.
    config : RunConfig
        Penalties, step schedules, graph spec, round budget and seed.
    schedule : GraphSchedule, optional
        Pre-built schedule; built from ``config.graph`` when omitted.
    observer : callable, optional
        Called as ``observer(state)`` with the RoundState after every
        round's combine step (regardless of the metric stride). It must not
        modify the agents' ``D`` or ``X``: the next dictionary step reuses
        the gradient computed at them in the combine step.

    Returns
    -------
    MetricsTrace
        Row 0 describes the initial point; afterwards one row per
        ``metric_stride`` rounds (the final round is always recorded). The
        run stops early once the recorded stationarity gap falls to
        ``stop_tol``.
    """
    if schedule is None:
        schedule = build_schedule(config.graph.kind, config.graph.num_agents,
                                  window=config.graph.window,
                                  seed=config.graph.seed,
                                  period=config.graph.period)
    if schedule.num_agents != problem.num_agents:
        raise ValueError(f"schedule has {schedule.num_agents} agents, "
                         f"problem has {problem.num_agents}")
    if not is_b_strongly_connected(schedule):
        raise ValueError("schedule violates its connectivity window")
    for t, (A, W) in enumerate(zip(schedule.adjacency, schedule.weights)):
        if not validate_weights(W, A):
            raise ValueError(f"phase {t} weights fail validation")

    sched = config.steps
    agents = init_agents(problem, seed=config.seed)
    I = problem.num_agents
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    grads_prev = [grad_dict(a.D, a.X, S)
                  for a, S in zip(agents, problem.S_blocks)]
    state = RoundState(agents=agents, nu=0, messages=0)
    trace = MetricsTrace()

    def record(nu, flags):
        D_bar = mean_dictionary(agents)
        X_blocks = [a.X for a in agents]
        trace.add_row(nu, state.messages,
                      objective_global(D_bar, X_blocks, problem),
                      stationarity_gap(D_bar, X_blocks, problem),
                      consensus_error([a.D for a in agents], D_bar),
                      gammas[nu], flags)

    record(0, 0)
    flags = 0
    for nu in range(config.max_rounds):
        W = schedule.weights_at(nu)
        for a, S, g in zip(agents, problem.S_blocks, grads_prev):
            ok_d = dictionary_step(a, S, gammas[nu], sched, problem.alpha, g)
            tau_x = coding_prox_weight(a.D_half, sched.eps_tau)
            ok_x = coding_step(a, S, tau_x, problem.lam, problem.mu, sched)
            flags += (not ok_d) + (not ok_x)
        mixed = consensus_step(W, [a.D_half for a in agents])
        for a, D_new in zip(agents, mixed):
            a.D = D_new
        grads_new = [grad_dict(a.D, a.X, S)
                     for a, S in zip(agents, problem.S_blocks)]
        trackers = tracking_step(W, [a.tracker for a in agents],
                                 grads_new, grads_prev)
        for i, a in enumerate(agents):
            a.tracker = trackers[i]
            a.grad_rest = I * trackers[i] - grads_new[i]
        grads_prev = grads_new
        state.nu = nu + 1
        state.messages += 2
        if observer is not None:
            observer(state)
        if (nu + 1) % config.metric_stride == 0 or nu + 1 == config.max_rounds:
            record(nu + 1, flags)
            flags = 0
            if trace.delta[-1] <= config.stop_tol:
                break
    return trace
