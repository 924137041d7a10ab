"""
Learning a planted dictionary over a small network
==================================================

Five agents each hold a slice of a data matrix whose columns are sparse
combinations of a hidden dictionary. Running the tracked protocol drives
two merit numbers toward zero: the stationarity gap (how far the averaged
dictionary and the codes are from a fixed point of their own updates) and
the consensus error (how far the per-agent dictionary copies are from
their network average).
"""

import numpy as np

from distdict import (build_run_config, centralized_oracle, make_synthetic,
                      run)

# Plant a ground-truth instance: a 16 x 24 dictionary, 200 data columns
# built from 8-sparse codes plus a little Gaussian noise, split across
# 5 agents.
instance, problem = make_synthetic(M=16, K=24, N=200, num_agents=5, k0=8,
                                   noise_sigma=0.01, seed=42)
print(f"data: {problem.M} x {problem.N}, {problem.num_agents} agents, "
      f"blocks of {[S.shape[1] for S in problem.S_blocks]} columns")

# The run configuration bundles the penalties, the step-size schedule and
# the communication graph. A static path is the harshest of the built-in
# static topologies (information needs num_agents - 1 hops end to end).
config = build_run_config({"agents": 5, "graph": "static_path",
                           "variant": "linearized", "tau_d": "2.0",
                           "eps_gamma": "0.03", "max_rounds": 500,
                           "metric_stride": 50,
                           "lam": str(problem.lam), "mu": str(problem.mu)})

trace = run(problem, config)
print("\n round  messages  objective      gap        consensus   step")
for i in range(len(trace)):
    print(f"{trace.nu[i]:6d}  {trace.messages[i]:8d}  "
          f"{trace.objective[i]:11.5f}  {trace.delta[i]:.3e}  "
          f"{trace.cons_err[i]:.3e}  {trace.gamma[i]:.4f}")

# A single machine holding all 200 columns runs the same surrogate updates
# without any communication; its objective is the natural yardstick for
# what the network should approach.
central = centralized_oracle(problem, config)
print(f"\nfinal objective, network:     {trace.objective[-1]:.5f}")
print(f"final objective, single node: {central.objective[-1]:.5f}")

# With tight consensus the learned atoms can be compared to the planted
# ones. Greedy matching on absolute correlations gives a rough recovery
# score (atoms are only identifiable up to sign and permutation).
D_true = instance.D_true
D_learned = trace.state.D.mean(axis=0)
corr = np.abs(D_true.T @ D_learned)
matched = []
for _ in range(D_true.shape[1]):
    i, j = np.unravel_index(np.argmax(corr), corr.shape)
    matched.append(corr[i, j])
    corr[i, :] = -1.0
    corr[:, j] = -1.0
print(f"planted-atom correlations: median {np.median(matched):.3f}, "
      f"min {min(matched):.3f}")
