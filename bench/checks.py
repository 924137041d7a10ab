"""Correctness checks the benchmark applies to every workload's outputs.

Each check recomputes what it needs with NumPy alone, from the inputs the
benchmark made and the final agent state, and never calls into distdict. A
failed check raises CheckFailed naming what was wrong.
"""

from __future__ import annotations

import numpy as np

TRACKER_TOL = 1e-10
NORM_SLACK = 1e-12
STOCHASTIC_TOL = 1e-12
OBJECTIVE_RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program violates a property the method must have."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def local_gradients(D_list, X_list, S_blocks):
    """Per-agent dictionary gradients (D X - S) X^T."""
    return [(D @ X - S) @ X.T for D, X, S in zip(D_list, X_list, S_blocks)]


def check_tracker_mean(trackers, D_list, X_list, S_blocks):
    """The network mean of the trackers equals the mean local gradient."""
    grads = local_gradients(D_list, X_list, S_blocks)
    err = float(np.max(np.abs(np.mean(trackers, axis=0)
                              - np.mean(grads, axis=0))))
    _require(err <= TRACKER_TOL,
             f"tracker mean is {err:.3g} from the gradient mean")


def check_column_norms(D_list, alpha):
    """Every column of every dictionary copy has norm at most alpha."""
    worst = max(float(np.max(np.sqrt(np.sum(D * D, axis=0))))
                for D in D_list)
    _require(worst <= alpha * (1.0 + NORM_SLACK),
             f"a dictionary column has norm {worst!r} > alpha={alpha}")


def check_doubly_stochastic(weights, adjacency):
    """Every phase's weights are nonnegative, supported on the graph, and
    sum to one along every row and every column."""
    for t, (W, A) in enumerate(zip(weights, adjacency)):
        W = np.asarray(W, dtype=float)
        _require(np.all(W >= 0.0), f"phase {t} has a negative weight")
        _require(not np.any(W[~np.asarray(A, dtype=bool)]),
                 f"phase {t} puts weight on a missing link")
        off = max(float(np.max(np.abs(W.sum(axis=1) - 1.0))),
                  float(np.max(np.abs(W.sum(axis=0) - 1.0))))
        _require(off <= STOCHASTIC_TOL,
                 f"phase {t} row/column sums are off by {off:.3g}")


def objective(D, X_list, S_blocks, lam, mu):
    """sum_i 1/2 ||S_i - D X_i||^2 + lam |X_i|_1 + mu ||X_i||^2."""
    total = 0.0
    for X, S in zip(X_list, S_blocks):
        R = S - D @ X
        total += 0.5 * np.sum(R * R) + lam * np.sum(np.abs(X)) \
            + mu * np.sum(X * X)
    return float(total)


def check_objective(reported, D_list, X_list, S_blocks, lam, mu):
    """The trace's last objective equals the objective at the final mean
    dictionary and codes."""
    want = objective(np.mean(D_list, axis=0), X_list, S_blocks, lam, mu)
    _require(abs(reported - want) <= OBJECTIVE_RTOL * max(abs(want), 1.0),
             f"trace objective {reported!r} differs from recomputed {want!r}")


def check_messages(messages, rounds, per_round=2):
    """Each round is one dictionary and one tracker exchange."""
    _require(messages == per_round * rounds,
             f"{messages} messages after {rounds} rounds, expected "
             f"{per_round * rounds}")


def check_gap_drop(deltas, factor):
    """The final stationarity gap is at least ``factor`` times below the
    initial one."""
    _require(deltas[-1] * factor <= deltas[0],
             f"gap went from {deltas[0]:.4g} to {deltas[-1]:.4g}, less than "
             f"a {factor}x drop")


def check_no_caps(flags):
    """No inner solver hit its iteration cap."""
    _require(not any(flags), f"inner solver caps hit: {sum(flags)}")


def psnr(reference, image, peak=255.0):
    mse = float(np.mean((np.asarray(reference, float)
                         - np.asarray(image, float)) ** 2))
    return 10.0 * np.log10(peak * peak / mse)


def check_denoised(clean, noisy, denoised, min_gain_db):
    """The output is an 8-bit-range image at least ``min_gain_db`` closer
    to the clean image than the noisy input was."""
    _require(denoised.shape == clean.shape,
             f"output shape {denoised.shape} != {clean.shape}")
    _require(float(np.min(denoised)) >= 0.0
             and float(np.max(denoised)) <= 255.0,
             "output pixels leave [0, 255]")
    gain = psnr(clean, denoised) - psnr(clean, noisy)
    _require(gain >= min_gain_db,
             f"PSNR gain {gain:.2f} dB is below {min_gain_db} dB")


def check_gap_order(tracked_gap, baseline_gap):
    """At an equal message budget, tracking is at least as close to
    stationarity as the diffusion baseline."""
    _require(tracked_gap <= baseline_gap,
             f"tracked gap {tracked_gap:.4g} exceeds diffusion gap "
             f"{baseline_gap:.4g}")
