"""
Communication graphs, mixing weights and connectivity windows
=============================================================

The simulator talks to the network layer only through a schedule: a cyclic
list of doubly stochastic weight matrices, one per round, whose nonzero
entries are the links of that round's directed graph. This script
builds every shipped schedule kind for six agents and inspects the
properties the protocol relies on.
"""

import numpy as np

from distdict import (build_schedule, consensus_step,
                      is_b_strongly_connected, metropolis_weights,
                      validate_weights)
from distdict.network import SCHEDULE_KINDS

print(f"shipped schedule kinds: {', '.join(SCHEDULE_KINDS)}\n")

for kind in SCHEDULE_KINDS:
    kwargs = {"window": 3, "period": 3} if kind == "tv_ring_partition" else {}
    schedule = build_schedule(kind, 6, seed=1, **kwargs)
    edges = [int(A.sum() - 6) for A in schedule.adjacency]
    ok = all(validate_weights(W) for W in schedule.weights)
    print(f"{kind:28s} phases={schedule.period}  window={schedule.window}  "
          f"off-diagonal edges per phase={edges}  weights valid={ok}")

# The time-varying ring splits one ring among its phases: no single phase
# is strongly connected, but any aligned window of them is -- exactly the
# joint-connectivity condition the protocol needs.
tv = build_schedule("tv_ring_partition", 6, window=3, period=3, seed=1)
per_phase = [is_b_strongly_connected(type(tv)([W], window=1))
             for W in tv.weights]
print(f"\ntime-varying ring: phases individually connected? {per_phase}")
print(f"union over the window connected? {is_b_strongly_connected(tv)}")

# Doubly stochastic weights make repeated mixing average: W^t approaches
# the rank-one matrix 11^T / n, so consensus iterations forget initial
# disagreement geometrically.
W = build_schedule("static_ring", 6, seed=0).weights[0]
P = np.linalg.matrix_power(W, 50)
print(f"\nstatic ring, |W^50 - uniform|_max = "
      f"{np.max(np.abs(P - 1.0 / 6.0)):.2e}")

# The same effect seen on data: six disagreeing scalars (as 1x1 matrices)
# pulled toward their common mean by repeated consensus steps.
values = [np.array([[float(v)]]) for v in (0, 10, 2, 8, 4, 6)]
mean = np.mean([v[0, 0] for v in values])
for sweep in range(4):
    spread = max(abs(v[0, 0] - mean) for v in values)
    print(f"after {3 * sweep:2d} consensus steps: spread around the mean = "
          f"{spread:.4f}")
    for _ in range(3):
        values = consensus_step(W, values)

# Metropolis weights are how those matrices are produced from an undirected
# graph: each edge gets 1 / (1 + max degree of its endpoints), and the
# diagonal absorbs the remainder. They are symmetric, hence doubly
# stochastic, for any graph.
A = np.eye(4, dtype=bool)
for i, j in ((0, 1), (1, 2), (2, 3)):
    A[i, j] = A[j, i] = True
W_path = metropolis_weights(A)
print(f"\nMetropolis weights of a 4-node path:\n{np.round(W_path, 4)}")
print(f"row sums {W_path.sum(axis=1)}, column sums {W_path.sum(axis=0)}")
