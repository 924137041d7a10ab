"""Time-varying communication graphs and doubly stochastic mixing weights.

A schedule is a cyclic sequence of mixing matrices over the agents; round
``nu`` uses phase ``nu % period``. The graph of a phase is the support of
its matrix: agent i receives from agent j in phase t when
``weights[t][i, j]`` is nonzero, and every node keeps a self-loop.
Undirected snapshots get Metropolis weights; the directed ring is weighted
as a convex combination of the identity and the cycle permutation, which
keeps every snapshot doubly stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_THETA_MIN = 0.01
STOCHASTICITY_TOL = 1e-12

SCHEDULE_KINDS = ("static_path", "static_ring", "static_random_geometric",
                  "tv_ring_partition")


@dataclass
class GraphSchedule:
    """Cyclic sequence of per-phase mixing matrices.

    Attributes
    ----------
    weights : list of ndarray
        Mixing matrix of each phase, ``(I, I)``; its nonzero entries are
        the phase's links, self-loops included. ``check_schedule`` holds
        every phase to ``validate_weights``.
    window : int
        Declared connectivity window: the union of any aligned run of
        ``window`` consecutive phases is strongly connected.
    """

    weights: list
    window: int = 1

    def __post_init__(self):
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        if not self.weights:
            raise ValueError("a schedule needs at least one phase")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        shape = self.weights[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or \
                any(W.shape != shape for W in self.weights):
            raise ValueError("all phases must be square and same size")

    @property
    def adjacency(self) -> list:
        """Boolean in-neighborhood of each phase, the support of its
        weights: ``adjacency[t][i, j]`` is True when agent i receives from
        agent j."""
        return [W != 0.0 for W in self.weights]

    @property
    def num_agents(self) -> int:
        return self.weights[0].shape[0]

    @property
    def period(self) -> int:
        return len(self.weights)

    def weights_at(self, nu: int) -> np.ndarray:
        return self.weights[nu % self.period]


def _reaches_everyone(adj) -> bool:
    # Breadth-first search from node 0 along the edges j -> i of adj[i, j].
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[:, frontier].any(axis=1) & ~seen
        seen |= frontier
    return bool(seen.all())


def _strongly_connected(adj) -> bool:
    """True iff node 0 reaches every node and every node reaches node 0."""
    adj = np.asarray(adj, dtype=bool)
    return _reaches_everyone(adj) and _reaches_everyone(adj.T)


def is_b_strongly_connected(schedule: GraphSchedule) -> bool:
    """Check that the union of every aligned run of ``schedule.window``
    phases is strongly connected (enumerated over one period by cyclicity)."""
    B = schedule.window
    P = schedule.period
    adjacency = schedule.adjacency
    starts = sorted({(k * B) % P for k in range(P)})
    for s in starts:
        union = np.zeros_like(adjacency[0])
        for t in range(B):
            union |= adjacency[(s + t) % P]
        if not _strongly_connected(union):
            return False
    return True


def check_schedule(schedule: GraphSchedule) -> None:
    """Raise ValueError unless the schedule keeps its connectivity window
    (``is_b_strongly_connected``) and every phase's weights pass
    ``validate_weights``."""
    if not is_b_strongly_connected(schedule):
        raise ValueError(f"schedule with {schedule.num_agents} agents is not "
                         f"strongly connected over windows of "
                         f"{schedule.window}")
    for t, W in enumerate(schedule.weights):
        if not validate_weights(W):
            raise ValueError(f"phase {t} weights fail validation")


def metropolis_weights(adj) -> np.ndarray:
    """Metropolis weights for an undirected snapshot with self-loops.

    For adjacent i != j, w_ij = 1 / (1 + max(deg_i, deg_j)) with degrees
    counted without self-loops; the diagonal absorbs the remainder.
    """
    A = np.asarray(adj, dtype=bool)
    n = A.shape[0]
    if A.shape != (n, n) or not np.array_equal(A, A.T):
        raise ValueError("a symmetric adjacency matrix is required")
    if not A.diagonal().all():
        raise ValueError("every node needs a self-loop")
    off = A & ~np.eye(n, dtype=bool)
    deg = off.sum(axis=1)
    pair = 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :]))
    W = np.where(off, pair, 0.0)
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def validate_weights(W) -> bool:
    """True iff W is a square, finite matrix with a nonzero diagonal (every
    node keeps its self-loop), no nonzero entry below DEFAULT_THETA_MIN,
    and every row and column sum within STOCHASTICITY_TOL of 1."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        return False
    if not W.diagonal().all() or np.any(W[W != 0.0] < DEFAULT_THETA_MIN):
        return False
    # a NaN or inf entry makes its row's sum NaN or inf, which fails here
    sums = np.concatenate([W.sum(axis=1), W.sum(axis=0)])
    return bool(np.all(np.abs(sums - 1.0) <= STOCHASTICITY_TOL))


def _adj_from_edges(n, edges) -> np.ndarray:
    A = np.eye(n, dtype=bool)
    for i, j in edges:
        A[i, j] = True
        A[j, i] = True
    return A


def _directed_ring(n):
    """Directed cycle i -> i+1 with self-loops; every node keeps half its
    mass and passes half on (a lone node keeps all), so the weights are
    doubly stochastic by construction."""
    A = np.eye(n, dtype=bool) | np.roll(np.eye(n, dtype=bool), 1, axis=0)
    return A / A.sum(axis=1, keepdims=True)


def _geometric_adjacency(n, rng):
    pts = rng.random((n, 2))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    radius = np.sqrt(max(np.log(max(n, 2)), 1.0) / n)
    while True:
        A = d2 <= radius * radius
        np.fill_diagonal(A, True)
        if _strongly_connected(A):
            return A
        radius *= 1.25


def schedule_period(kind: str, num_agents: int, window: int,
                    period: int = None) -> int:
    """Check a ``build_schedule`` request and return its number of phases,
    raising ValueError for one no schedule meets. Every kind but
    ``tv_ring_partition`` has one phase and takes no ``period``; there the
    period (default: the window) may exceed neither the window nor the
    agent count, the number of ring edges, and a lone agent gets one."""
    if kind not in SCHEDULE_KINDS:
        raise ValueError(f"unknown schedule kind {kind!r}; choose from "
                         f"{SCHEDULE_KINDS}")
    if num_agents < 1:
        raise ValueError("num_agents must be at least 1")
    if window < 1:
        raise ValueError("window must be at least 1")
    if kind != "tv_ring_partition":
        if period is not None:
            raise ValueError(f"period applies to tv_ring_partition only, "
                             f"not to {kind!r}")
        return 1
    P = window if period is None else period
    if P < 1:
        raise ValueError("period must be at least 1")
    if P > window:
        raise ValueError(f"period {P} exceeds the window {window}; the "
                         "union of a window would miss ring edges")
    if 1 < num_agents < P:
        raise ValueError(f"cannot split {num_agents} ring edges into {P} "
                         "phases")
    return min(P, num_agents)


def build_schedule(kind: str, num_agents: int, window: int = 1,
                   seed: int = 0, period: int = None) -> GraphSchedule:
    """Construct one of the shipped graph schedules.

    Parameters
    ----------
    kind : str
        One of ``static_path``, ``static_ring``, ``static_random_geometric``
        or ``tv_ring_partition``.
    num_agents : int
        Number of agents (>= 1).
    window : int
        Connectivity window the schedule must satisfy.
    seed : int
        Generator seed (used by the random geometric kind).
    period : int, optional
        For ``tv_ring_partition``, the number of phases the ring edges are
        split into (defaults to ``window``).

    Raises
    ------
    ValueError
        For a request ``schedule_period`` rejects or a schedule that fails
        ``check_schedule``.
    """
    P = schedule_period(kind, num_agents, window, period)
    I = num_agents
    if kind == "static_path":
        path = _adj_from_edges(I, [(k, k + 1) for k in range(I - 1)])
        weights = [metropolis_weights(path)]
    elif kind == "static_ring":
        weights = [_directed_ring(I)]
    elif kind == "static_random_geometric":
        rng = np.random.default_rng(seed)
        weights = [metropolis_weights(_geometric_adjacency(I, rng))]
    else:  # tv_ring_partition
        ring_edges = [(k, (k + 1) % I) for k in range(I)] if I > 2 \
            else [(0, 1)] if I == 2 else []
        weights = [metropolis_weights(_adj_from_edges(
            I, [e for k, e in enumerate(ring_edges) if k % P == g]))
            for g in range(P)]

    schedule = GraphSchedule(weights, window)
    check_schedule(schedule)
    return schedule
