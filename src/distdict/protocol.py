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

The same loop runs adapt-then-combine diffusion, tracking switched off
(``metrics.diffusion_baseline``), and at one agent the tracked round is the
centralized method (``metrics.centralized_oracle``).

The agents' state is held as stacks with a leading agent axis, and the
local steps run once per agent group of the problem (``ProblemData.groups``)
rather than once per agent; the mixing runs once over all agents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import (AgentState, coding_prox_weight, coding_step,
                     dictionary_step, gamma_sequence, init_agents,
                     stack_agents)
from .config import RunConfig
from .core import (AgentGroups, ProblemData, grad_dict, objective_global,
                   project_dictionary)
from .metrics import (MetricsTrace, consensus_error, mean_dictionary,
                      stationarity_gap)
from .network import (GraphSchedule, build_schedule, is_b_strongly_connected,
                      validate_weights)


@dataclass
class RoundState:
    """Global snapshot handed to observers at the end of each round.

    ``D``, ``tracker`` and ``grad_rest`` are ``(I, M, K)`` stacks over the
    agents, and ``X`` holds one ``(c, K, n_g)`` stack per agent group of
    ``groups``. Every round binds new arrays and writes none it handed out
    before, so an array an observer keeps stays as it was.
    """

    groups: AgentGroups
    D: np.ndarray
    X: list
    tracker: np.ndarray
    grad_rest: np.ndarray
    nu: int = 0
    messages: int = 0

    @property
    def agents(self) -> list:
        """One AgentState per agent, of views into the stacks; ``X`` has
        the agent's own shape ``(K, n_i)``."""
        return [AgentState(D=self.D[i], X=x, tracker=self.tracker[i],
                           grad_rest=self.grad_rest[i])
                for i, x in enumerate(self.groups.unstack(self.X))]


def consensus_step(W, mats) -> np.ndarray:
    """Mix per-agent matrices: out[i] = sum_j W[i, j] mats[j].

    ``mats`` is an ``(I, M, K)`` stack or a list of I matrices; the result
    is a new stack, from one ``tensordot``.
    """
    W = np.asarray(W, dtype=float)
    mats = np.asarray(mats, dtype=float)
    if W.shape != (len(mats), len(mats)):
        raise ValueError("weight matrix size must match the agent count")
    return np.tensordot(W, mats, axes=1)


def tracking_step(W, trackers, grads_new, grads_old) -> np.ndarray:
    """Consensus on the trackers plus the local gradient increment, on
    ``(I, M, K)`` stacks (or lists of I matrices); returns a new stack.

    The old gradient is subtracted before the new one is added; with a
    single agent the mix is exact and the tracker then reproduces the new
    gradient bit for bit, which keeps the network run aligned with the
    centralized reference.
    """
    mixed = np.tensordot(np.asarray(W, dtype=float),
                         np.asarray(trackers, dtype=float), axes=1)
    return (mixed - np.asarray(grads_old)) + np.asarray(grads_new)


def _group_grads(problem, D, X) -> np.ndarray:
    """Local dictionary gradients of all agents as one ``(I, M, K)`` stack,
    one ``grad_dict`` call per group."""
    return np.concatenate([grad_dict(D[sl], Xg, S) for sl, S, Xg in
                           zip(problem.groups.slices, problem.S_groups, X)])


def _record(trace, problem, state, gamma, flags):
    D_bar = mean_dictionary(state.D)
    trace.add_row(state.nu, state.messages,
                  objective_global(D_bar, state.X, problem),
                  stationarity_gap(D_bar, state.X, problem),
                  consensus_error(state.D, D_bar), gamma, flags)


def _coding_steps(problem, state, U, sched) -> int:
    """Refresh the codes of every group against its slice of the
    ``(I, M, K)`` dictionary stack ``U``; returns the number of capped inner
    solves."""
    flags = 0
    # a new list, so one an observer kept stays as it was; each old code
    # stack is released as soon as its group has the new one
    codes = state.X = list(state.X)
    for g, (sl, S) in enumerate(zip(problem.groups.slices, problem.S_groups)):
        group = AgentState(D=None, X=codes[g], tracker=None, grad_rest=None,
                           D_half=U[sl])
        tau_x, sig = coding_prox_weight(group.D_half, sched.eps_tau)
        ok = coding_step(group, S, tau_x, problem.lam, problem.mu, sched,
                         sigma=sig)
        flags += np.size(ok) - np.count_nonzero(ok)
        codes[g] = group.X
    return flags


def _tracked_round(problem, state, W, gamma, sched, grads):
    """Local SCA steps, consensus on the blended dictionaries and gradient
    tracking: two message exchanges. ``grads`` are the local gradients at
    the current point; returns those at the new point and the number of
    capped inner solves."""
    halves = []
    flags = 0
    for sl, S, X in zip(problem.groups.slices, problem.S_groups, state.X):
        group = AgentState(D=state.D[sl], X=X, tracker=None,
                           grad_rest=state.grad_rest[sl])
        ok = dictionary_step(group, S, gamma, sched, problem.alpha,
                             grads[sl])
        flags += np.size(ok) - np.count_nonzero(ok)
        halves.append(group.D_half)
    halves = np.concatenate(halves)
    flags += _coding_steps(problem, state, halves, sched)
    state.D = consensus_step(W, halves)
    grads_new = _group_grads(problem, state.D, state.X)
    state.tracker = tracking_step(W, state.tracker, grads_new, grads)
    state.grad_rest = problem.num_agents * state.tracker - grads_new
    return grads_new, flags


def _diffusion_round(problem, state, W, gamma, sched, grads):
    """Adapt-then-combine diffusion, the tracked round with tracking off:
    a projected step along the local gradient, one consensus exchange, then
    the codes against the mixed copies. Arguments and return as for
    ``_tracked_round``."""
    state.D = consensus_step(
        W, project_dictionary(state.D - gamma * grads, problem.alpha))
    flags = _coding_steps(problem, state, state.D, sched)
    return _group_grads(problem, state.D, state.X), flags


def _rounds(problem, config, schedule, observer, tracked) -> MetricsTrace:
    """The round loop of every driver: ``_tracked_round`` when ``tracked``,
    else ``_diffusion_round``, whose observers see zero trackers. See
    ``run`` for the parameters and the trace."""
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
    state = RoundState(problem.groups, *stack_agents(
        problem.groups, init_agents(problem, seed=config.seed)))
    if tracked:
        body, exchanges = _tracked_round, 2
    else:
        body, exchanges = _diffusion_round, 1
        state.tracker = state.grad_rest = np.zeros_like(state.D)
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    grads = _group_grads(problem, state.D, state.X)
    trace = MetricsTrace(state=state)
    _record(trace, problem, state, gammas[0], 0)
    flags = 0
    for nu in range(config.max_rounds):
        grads, capped = body(problem, state, schedule.weights_at(nu),
                             gammas[nu], sched, grads)
        flags += capped
        state.nu = nu + 1
        state.messages += exchanges
        if observer is not None:
            observer(state)
        if (nu + 1) % config.metric_stride == 0 or nu + 1 == config.max_rounds:
            _record(trace, problem, state, gammas[nu + 1], flags)
            flags = 0
            if trace.delta[-1] <= config.stop_tol:
                break
    return trace


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

    The agents' state lives in stacks with a leading agent axis. Each round
    calls ``dictionary_step``, ``coding_prox_weight``, ``coding_step`` and
    ``grad_dict`` once per agent group (``problem.groups``), then
    ``consensus_step`` and ``tracking_step`` once on the ``(I, M, K)``
    stacks. A group of several agents pads its codes with zero columns to
    its widest block; the padding stays zero. The trace's ``flags`` count
    the agents whose inner solver hit its iteration cap.

    Returns
    -------
    MetricsTrace
        Row 0 describes the initial point; afterwards one row per
        ``metric_stride`` rounds (the final round is always recorded). The
        run stops early once the recorded stationarity gap falls to
        ``stop_tol``. Its ``state`` is the RoundState after the last round
        run.
    """
    return _rounds(problem, config, schedule, observer, tracked=True)
