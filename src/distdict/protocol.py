"""Round orchestration: local updates, broadcast, consensus and tracking.

One round is

  local   : every agent solves its dictionary surrogate along ``I y``, I
            times its tracker, damps it with the diminishing step size, and
            refreshes its codes against the blended dictionary;
  exchange: agents broadcast the blended dictionaries and the trackers
            (two message exchanges per round);
  combine : dictionaries are mixed with the doubly stochastic weights, and
            the trackers absorb the local gradient increments.

The same loop runs adapt-then-combine diffusion, tracking switched off
(``metrics.diffusion_baseline``), and at one agent the tracked round is the
centralized method (``metrics.centralized_oracle``).

The agents' state is held as stacks with a leading agent axis. The steps
that read each agent's data run once per agent group of the problem
(``ProblemData.groups``) rather than once per agent; the steps that read
only the ``(I, M, K)`` dictionary stacks, and the mixing, run once over all
agents. The code keeps the round's math above but not its order: the mix
reads only the blended dictionaries, so it runs first, and one pass over
the groups then takes each group's codes and at once its local gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agents import (AgentState, coding_prox_weight, coding_step,
                     dictionary_step, gamma_sequence, init_agents)
from .config import RunConfig
from .core import (AgentGroups, ProblemData, grad_dict, max_column_norm,
                   objective_global, project_dictionary)
from .metrics import (MetricsTrace, consensus_error, mean_dictionary,
                      stationarity_gap)
from .network import GraphSchedule, build_schedule, check_schedule
# unused here; bench/tracer.py wraps them by name on this module
from .network import is_b_strongly_connected, validate_weights  # noqa: F401


@dataclass
class RoundState:
    """Global snapshot handed to observers at the end of each round.

    ``D`` and ``tracker`` are ``(I, M, K)`` stacks over the agents, and
    ``X`` holds one ``(c, K, n_g)`` stack per agent group of ``groups``.
    Every round binds new arrays and writes none it handed out
    before, so an array an observer keeps stays as it was.
    """

    groups: AgentGroups
    D: np.ndarray
    X: list
    tracker: np.ndarray
    nu: int = 0
    messages: int = 0

    @property
    def agents(self) -> list:
        """One AgentState per agent, of views into the stacks; ``X`` has
        the agent's own shape ``(K, n_i)``."""
        return [AgentState(D=self.D[i], X=x, tracker=self.tracker[i])
                for i, x in enumerate(self.groups.unstack(self.X))]


def consensus_step(W, mats) -> np.ndarray:
    """Mix per-agent matrices: out[i] = sum_j W[i, j] mats[j].

    ``mats`` is an ``(I, M, K)`` stack or a list of I matrices; the result
    is a new stack, from one ``(I, I) @ (I, M K)`` product, the one that
    ``np.tensordot(W, mats, axes=1)`` makes.
    """
    W = np.asarray(W, dtype=float)
    mats = np.asarray(mats, dtype=float)
    I = len(mats)
    if W.shape != (I, I):
        raise ValueError("weight matrix size must match the agent count")
    return (W @ mats.reshape(I, -1)).reshape(mats.shape)


def tracking_step(W, trackers, grads_new, grads_old) -> np.ndarray:
    """Consensus on the trackers (``consensus_step``, with its weight-size
    check) plus the local gradient increment, on ``(I, M, K)`` stacks (or
    lists of I matrices); returns a new stack.

    The old gradient is subtracted before the new one is added; with a
    single agent the mix is exact and the tracker then reproduces the new
    gradient bit for bit, which keeps the network run aligned with the
    centralized reference.
    """
    out = consensus_step(W, trackers)
    out -= grads_old
    out += grads_new
    return out


def tracking_residual(problem, state) -> float:
    """``max|mean(tracker) - mean(local grad)|`` over the agents of a
    ``RoundState``: zero up to rounding while gradient tracking holds, and
    exactly zero at one agent."""
    grads = np.concatenate([grad_dict(state.D[sl], Xg, S) for sl, S, Xg in
                            zip(problem.groups.slices, problem.S_groups,
                                state.X)])
    return float(np.max(np.abs(state.tracker.mean(axis=0)
                               - grads.mean(axis=0))))


def check_round(problem, state) -> None:
    """Raise ValueError naming the round and the agent at the first broken
    invariant of a tracked run: a non-finite ``D``, code or ``tracker``, a
    dictionary column above ``alpha * (1 + 1e-12)``, or a tracking residual
    above 1e-10. A driver takes it as ``observer``."""
    codes = state.groups.unstack(state.X)
    for i, parts in enumerate(zip(state.D, codes, state.tracker)):
        for name, A in zip(("D", "code", "tracker"), parts):
            if not np.isfinite(A).all():
                raise ValueError(f"round {state.nu}: agent {i} has a "
                                 f"non-finite {name}")
        norm = max_column_norm(state.D[i])
        if norm > problem.alpha * (1 + 1e-12):
            raise ValueError(f"round {state.nu}: agent {i} has a dictionary "
                             f"column of norm {norm!r} above alpha")
    residual = tracking_residual(problem, state)
    if residual > 1e-10:
        raise ValueError(f"round {state.nu}: tracking residual "
                         f"{residual:.3e} above 1e-10")


def _record(trace, problem, state, gamma, flags):
    D_bar = mean_dictionary(state.D)
    trace.add_row(state.nu, state.messages,
                  objective_global(D_bar, state.X, problem),
                  stationarity_gap(D_bar, state.X, problem),
                  consensus_error(state.D, D_bar), gamma, flags)


def _local_steps(problem, state, U, gamma, sched):
    """One pass over the groups: each refreshes its codes against its slice
    of the ``(I, M, K)`` dictionary stack ``U`` with step ``gamma``, then
    takes its local gradients at ``state.D``. Returns the gradients as one
    ``(I, M, K)`` stack and the number of capped inner solves. The proximal
    weights come from one ``coding_prox_weight`` call over all agents."""
    flags = 0
    tau_x, sig = coding_prox_weight(U)
    grads = np.empty_like(state.D)
    # a new list, so one an observer kept stays as it was; each old code
    # stack is released as soon as its group has the new one
    codes = state.X = list(state.X)
    for g, (sl, S) in enumerate(zip(problem.groups.slices, problem.S_groups)):
        codes[g], ok = coding_step(codes[g], U[sl], S, tau_x[sl],
                                   problem.lam, problem.mu, gamma, sched,
                                   sigma=sig[sl])
        grads[sl] = grad_dict(state.D[sl], codes[g], S)
        flags += np.size(ok) - np.count_nonzero(ok)
    return grads, flags


def _tracked_round(problem, state, W, gamma, sched, grads):
    """Local SCA steps along ``I y``, consensus on the blended dictionaries
    and gradient tracking: two message exchanges. ``grads`` are the local
    gradients at the current point; returns those at the new point and the
    number of capped inner solves."""
    flags = 0
    direction = problem.num_agents * state.tracker
    if sched.d_mode == "plain":
        halves = np.empty_like(state.D)
        for sl, X in zip(problem.groups.slices, state.X):
            halves[sl], ok = dictionary_step(state.D[sl], X, direction[sl],
                                             gamma, sched, problem.alpha)
            flags += np.size(ok) - np.count_nonzero(ok)
    else:
        # the linearized step reads no codes: one call over all I
        halves, _ = dictionary_step(state.D, None, direction, gamma, sched,
                                    problem.alpha)
    state.D = consensus_step(W, halves)
    grads_new, capped = _local_steps(problem, state, halves, gamma, sched)
    state.tracker = tracking_step(W, state.tracker, grads_new, grads)
    return grads_new, flags + capped


def _diffusion_round(problem, state, W, gamma, sched, grads):
    """Adapt-then-combine diffusion, the tracked round with tracking off:
    a projected step along the local gradient, one consensus exchange, then
    the codes against the mixed copies. Arguments and return as for
    ``_tracked_round``."""
    state.D = consensus_step(
        W, project_dictionary(state.D - gamma * grads, problem.alpha))
    return _local_steps(problem, state, state.D, gamma, sched)


def _rounds(problem, config, schedule, observer, tracked) -> MetricsTrace:
    """The round loop of every driver: ``_tracked_round`` when ``tracked``,
    else ``_diffusion_round``, whose observers see zero trackers. See
    ``run`` for the parameters and the trace."""
    if schedule is None:
        schedule = build_schedule(**vars(config.graph))  # checks it
    else:
        check_schedule(schedule)
    if schedule.num_agents != problem.num_agents:
        raise ValueError(f"schedule has {schedule.num_agents} agents, "
                         f"problem has {problem.num_agents}")

    sched = config.steps
    state = RoundState(problem.groups, *init_agents(problem, seed=config.seed))
    body, exchanges = (_tracked_round, 2) if tracked else (_diffusion_round, 1)
    gammas = gamma_sequence(config.max_rounds + 1, sched.gamma0,
                            sched.eps_gamma)
    grads = np.zeros_like(state.D)  # the codes start at zero
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
        Pre-built schedule, run through ``network.check_schedule``; built
        (and so checked) from ``config.graph`` when omitted.
    observer : callable, optional
        Called as ``observer(state)`` with the RoundState after every
        round's combine step (regardless of the metric stride). It must not
        modify the agents' ``D`` or ``X``: the next dictionary step reuses
        the local gradient the round took at them. Pass
        ``functools.partial(check_round, problem)`` to stop at the first
        broken invariant.

    The agents' state lives in stacks with a leading agent axis. Each round
    calls ``dictionary_step`` once per agent group (``problem.groups``)
    when ``d_mode`` is plain, then, in one pass over the groups, each
    group's ``coding_step`` followed by its ``grad_dict``.
    ``coding_prox_weight``, the linearized ``dictionary_step``,
    ``consensus_step`` and ``tracking_step`` run once on the ``(I, M, K)``
    stacks. A group of several agents pads its codes with zero columns to
    its widest block; the padding stays zero. The trace's ``flags`` count
    the agents whose inner solver hit its iteration cap.

    Returns
    -------
    MetricsTrace
        Row 0 describes the initial point; afterwards one row per
        ``metric_stride`` rounds (the final round is always recorded). Its
        ``state`` is the RoundState after the last round.
    """
    return _rounds(problem, config, schedule, observer, tracked=True)
