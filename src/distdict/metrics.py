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

from .config import RunConfig
from .core import ProblemData, prox_codes, project_dictionary, residual
# unused here; bench/tracer.py wraps them by name on this module
from .agents import (coding_prox_weight, coding_step,  # noqa: F401
                     init_agents)
from .core import (grad_dict, objective_global,  # noqa: F401
                   x_update_linearized)
from .network import build_schedule
from .network import is_b_strongly_connected  # noqa: F401

CSV_COLUMNS = ("nu", "messages", "objective", "delta", "cons_err", "gamma")


@dataclass
class MetricsTrace:
    """Per-round diagnostics; one row per recorded round, plus ``state``,
    the RoundState the run ended in."""

    nu: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    cons_err: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    # the driver's final RoundState; not a column of the trace
    state: object = field(default=None, repr=False, compare=False)

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

    def csv_rows(self) -> list:
        """The rows of the CSV_COLUMNS, one string each, with shortest
        round-trip float formatting, so identical runs give identical
        bytes."""
        return [",".join([str(self.nu[i]), str(self.messages[i]),
                          repr(self.objective[i]), repr(self.delta[i]),
                          repr(self.cons_err[i]), repr(self.gamma[i])])
                for i in range(len(self))]

    def write_csv(self, path) -> None:
        """Write the header and ``csv_rows``."""
        lines = [",".join(CSV_COLUMNS)] + self.csv_rows()
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def mean_dictionary(D_list) -> np.ndarray:
    """Network mean of the dictionary copies, given as an ``(I, M, K)``
    stack or a list of ``(M, K)`` arrays."""
    D = np.asarray(D_list, dtype=float)
    return np.add.reduce(D, axis=0) / len(D)


def stationarity_gap(D_bar, X_groups, problem: ProblemData) -> float:
    """Max-norm distance of (D_bar, X) from its unit-weight prox/projection
    update, evaluated with gradients at the common dictionary D_bar.

    The codes are the group stacks of ``problem.groups``. Each group forms
    one residual ``R = D_bar X - S``, which gives both gradients: ``R X^T``,
    summed over the group, for the dictionary and ``D_bar^T R`` for the
    codes.
    """
    problem.check_code_stacks(X_groups)
    D_bar = np.asarray(D_bar, dtype=float)
    grad_sum = np.zeros_like(D_bar)
    gap = 0.0
    for S, X in zip(problem.S_groups, X_groups):
        R = residual(D_bar, X, S)
        grad_sum += (R @ X.swapaxes(-1, -2)).sum(axis=0)
        step = prox_codes(D_bar.T @ R, X, 1.0, problem.lam, problem.mu)
        step -= X
        gap = max(gap, float(np.abs(step, out=step).max()))
    dev = D_bar - project_dictionary(D_bar - grad_sum / problem.num_agents,
                                     problem.alpha)
    return max(gap, float(np.abs(dev, out=dev).max()))


def consensus_error(D_list, D_bar=None) -> float:
    """Worst entrywise deviation of the local dictionary copies, given as an
    ``(I, M, K)`` stack or a list, from their mean."""
    stack = np.asarray(D_list, dtype=float)
    if D_bar is None:
        D_bar = stack.mean(axis=0)
    dev = stack - D_bar
    return float(np.abs(dev, out=dev).max())


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
    """Single-machine reference: ``protocol.run`` on the pooled data as one
    agent. With one agent the tracker equals the local gradient bit for
    bit, so the direction ``I y`` is that gradient and each round is the
    centralized SCA step; the trace counts its two message exchanges per
    round and ``observer(state)`` is called as in ``run``.
    """
    from .protocol import run  # protocol imports this module

    pooled = ProblemData(S_blocks=[np.hstack(problem.S_blocks)], K=problem.K,
                         lam=problem.lam, mu=problem.mu, alpha=problem.alpha)
    return run(pooled, config, build_schedule("static_ring", 1), observer)


def diffusion_baseline(problem: ProblemData, config: RunConfig,
                       schedule=None, observer=None) -> MetricsTrace:
    """Simplified adapt-then-combine diffusion stand-in, no tracking.

    Each round every agent takes a projected gradient step on its dictionary
    copy driven only by its own gradient with the shared diminishing step
    size, the copies are mixed over the graph (the single message exchange
    of the round), and the codes are refreshed against the mixed dictionary.
    It runs in the round loop of ``protocol.run``, with the same schedule
    checks, trace and ``observer(state)``; the state's trackers are zero.
    """
    from .protocol import _rounds  # protocol imports this module

    return _rounds(problem, config, schedule, observer, tracked=False)
