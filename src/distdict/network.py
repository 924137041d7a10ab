"""Time-varying communication graphs and doubly stochastic mixing weights.

A schedule is a cyclic sequence of directed graphs over the agents; round
``nu`` uses phase ``nu % period``. ``adjacency[t][i, j]`` is True when agent
i receives from agent j in phase t, and every node always has a self-loop.
Undirected snapshots get Metropolis weights; the directed ring is weighted
as a convex combination of the identity and the cycle permutation, which
keeps every snapshot doubly stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_THETA_MIN = 0.01
STOCHASTICITY_TOL = 1e-12

SCHEDULE_KINDS = ("static_path", "static_ring", "static_random_geometric",
                  "tv_ring_partition")


@dataclass
class GraphSchedule:
    """Cyclic sequence of communication graphs with per-phase mixing weights.

    Attributes
    ----------
    adjacency : list of ndarray
        Boolean in-neighborhood matrices, one per phase, self-loops included.
    weights : list of ndarray
        Doubly stochastic mixing matrix for each phase, sparsity pattern
        identical to the adjacency.
    window : int
        Declared connectivity window: the union of any aligned run of
        ``window`` consecutive phases is strongly connected.
    """

    adjacency: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    window: int = 1

    def __post_init__(self):
        if not self.adjacency:
            raise ValueError("a schedule needs at least one phase")
        if len(self.adjacency) != len(self.weights):
            raise ValueError("one weight matrix per phase is required")
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self.adjacency = [np.asarray(A, dtype=bool) for A in self.adjacency]
        self.weights = [np.asarray(W, dtype=float) for W in self.weights]
        I = self.adjacency[0].shape[0]
        for A, W in zip(self.adjacency, self.weights):
            if A.shape != (I, I) or W.shape != (I, I):
                raise ValueError("all phases must be square and same size")
            if not A.diagonal().all():
                raise ValueError("every node needs a self-loop")

    @property
    def num_agents(self) -> int:
        return self.adjacency[0].shape[0]

    @property
    def period(self) -> int:
        return len(self.adjacency)

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


def is_b_strongly_connected(schedule: GraphSchedule, window: int = None) -> bool:
    """Check that the union of every aligned window of ``window`` consecutive
    phases is strongly connected (enumerated over one period by cyclicity)."""
    B = schedule.window if window is None else window
    if B < 1:
        raise ValueError("window must be at least 1")
    P = schedule.period
    starts = sorted({(k * B) % P for k in range(P)})
    for s in starts:
        union = np.zeros_like(schedule.adjacency[0])
        for t in range(B):
            union |= schedule.adjacency[(s + t) % P]
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
    for t, (A, W) in enumerate(zip(schedule.adjacency, schedule.weights)):
        if not validate_weights(W, A):
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


def validate_weights(W, adj, theta_min: float = DEFAULT_THETA_MIN) -> bool:
    """True iff W is finite, doubly stochastic within 1e-12, matches the
    adjacency pattern exactly, and has all nonzero entries >= theta_min."""
    W = np.asarray(W, dtype=float)
    A = np.asarray(adj, dtype=bool)
    if W.shape != A.shape or not np.isfinite(W).all():
        return False
    pattern = W != 0.0
    if not np.array_equal(pattern, A):
        return False
    if np.any(W[pattern] < theta_min):
        return False
    if np.max(np.abs(W.sum(axis=1) - 1.0)) > STOCHASTICITY_TOL:
        return False
    if np.max(np.abs(W.sum(axis=0) - 1.0)) > STOCHASTICITY_TOL:
        return False
    return True


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
    return A, A / A.sum(axis=1, keepdims=True)


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
        split into (defaults to ``window``; must not exceed it).

    Raises
    ------
    ValueError
        If the requested parameters cannot satisfy the connectivity window
        or produce invalid weights.
    """
    I = num_agents
    if I < 1:
        raise ValueError("num_agents must be at least 1")
    if window < 1:
        raise ValueError("window must be at least 1")

    if kind == "static_path":
        adj = _adj_from_edges(I, [(k, k + 1) for k in range(I - 1)])
        phases = [(adj, metropolis_weights(adj))]
    elif kind == "static_ring":
        phases = [_directed_ring(I)]
    elif kind == "static_random_geometric":
        adj = _geometric_adjacency(I, np.random.default_rng(seed))
        phases = [(adj, metropolis_weights(adj))]
    elif kind == "tv_ring_partition":
        P = window if period is None else period
        if P < 1:
            raise ValueError("period must be at least 1")
        if P > window:
            raise ValueError(f"period {P} exceeds the window {window}; the "
                             "union of a window would miss ring edges")
        if I == 1:
            P = 1
        if P > I:
            raise ValueError(f"cannot split {I} ring edges into {P} phases")
        ring_edges = [(k, (k + 1) % I) for k in range(I)] if I > 2 \
            else [(0, 1)] if I == 2 else []
        phases = []
        for g in range(P):
            group = [e for k, e in enumerate(ring_edges) if k % P == g]
            adj = _adj_from_edges(I, group)
            phases.append((adj, metropolis_weights(adj)))
    else:
        raise ValueError(f"unknown schedule kind {kind!r}; choose from "
                         f"{SCHEDULE_KINDS}")

    schedule = GraphSchedule(adjacency=[a for a, _ in phases],
                             weights=[w for _, w in phases],
                             window=window)
    check_schedule(schedule)
    return schedule
