"""The benchmark's correctness checks pass on real outputs and fail on
deliberately corrupted copies of them.

    PYTHONPATH=src python3 -m pytest bench/test_checks.py -q
"""

import copy

import numpy as np
import pytest

import checks
from distdict import build_run_config, build_schedule, make_synthetic, run


@pytest.fixture(scope="module")
def small_run():
    _, problem = make_synthetic(M=6, K=5, N=40, num_agents=4, k0=2,
                                noise_sigma=0.05, seed=3)
    config = build_run_config({"agents": 4, "graph": "tv_ring_partition",
                               "window": 2, "max_rounds": 30})
    schedule = build_schedule("tv_ring_partition", 4, window=2)
    seen = {}
    trace = run(problem, config, schedule,
                observer=lambda state: seen.update(state=state))
    return problem, schedule, trace, seen["state"]


def parts(state):
    agents = state.agents
    return ([a.D.copy() for a in agents], [a.X.copy() for a in agents],
            [a.tracker.copy() for a in agents])


def test_real_outputs_pass_every_check(small_run):
    problem, schedule, trace, state = small_run
    D, X, T = parts(state)
    checks.check_tracker_mean(T, D, X, problem.S_blocks)
    checks.check_column_norms(D, problem.alpha)
    checks.check_doubly_stochastic(schedule.weights, schedule.adjacency)
    checks.check_objective(trace.objective[-1], D, X, problem.S_blocks,
                           problem.lam, problem.mu)
    checks.check_messages(state.messages, state.nu)
    checks.check_gap_drop(trace.delta, 1.0)
    checks.check_no_caps(trace.flags)


def test_tracker_shifted_by_1e_6_fails(small_run):
    problem, _, _, state = small_run
    D, X, T = parts(state)
    T[0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="tracker"):
        checks.check_tracker_mean(T, D, X, problem.S_blocks)


def test_column_scaled_above_alpha_fails(small_run):
    problem, _, _, state = small_run
    D, _, _ = parts(state)
    D[1][:, 2] *= 1.001 * problem.alpha / np.linalg.norm(D[1][:, 2])
    with pytest.raises(checks.CheckFailed, match="norm"):
        checks.check_column_norms(D, problem.alpha)


def test_wrong_message_count_fails(small_run):
    _, _, trace, state = small_run
    with pytest.raises(checks.CheckFailed, match="messages"):
        checks.check_messages(state.messages - 1, state.nu)
    with pytest.raises(checks.CheckFailed, match="messages"):
        checks.check_messages(trace.messages[-1], trace.nu[-1] + 1)


def test_weights_off_by_1e_9_fail(small_run):
    _, schedule, _, _ = small_run
    W = copy.deepcopy(schedule.weights)
    W[1][0, 0] += 1e-9
    with pytest.raises(checks.CheckFailed, match="sums"):
        checks.check_doubly_stochastic(W, schedule.adjacency)


def test_weight_on_missing_link_fails(small_run):
    _, schedule, _, _ = small_run
    W = copy.deepcopy(schedule.weights)
    A = schedule.adjacency[0]
    i, j = np.argwhere(~A)[0]
    W[0][i, j] = 0.01
    W[0][i, i] -= 0.01
    with pytest.raises(checks.CheckFailed, match="missing link"):
        checks.check_doubly_stochastic(W, schedule.adjacency)


def test_objective_off_by_1e_6_fails(small_run):
    problem, _, trace, state = small_run
    D, X, _ = parts(state)
    with pytest.raises(checks.CheckFailed, match="objective"):
        checks.check_objective(trace.objective[-1] * (1 + 1e-6), D, X,
                               problem.S_blocks, problem.lam, problem.mu)


def test_gap_that_did_not_drop_fails(small_run):
    _, _, trace, _ = small_run
    with pytest.raises(checks.CheckFailed, match="drop"):
        checks.check_gap_drop(trace.delta[::-1], 1.0)
    with pytest.raises(checks.CheckFailed, match="drop"):
        checks.check_gap_drop(trace.delta, 1e6)


def test_a_solver_cap_fails():
    with pytest.raises(checks.CheckFailed, match="caps"):
        checks.check_no_caps([0, 0, 1])


def test_gap_order():
    checks.check_gap_order(0.5, 1.08)
    with pytest.raises(checks.CheckFailed, match="diffusion"):
        checks.check_gap_order(1.1, 1.08)


@pytest.fixture
def images():
    rng = np.random.default_rng(0)
    clean = np.clip(rng.uniform(40, 215, (32, 32)), 0, 255)
    noise = 20.0 * rng.standard_normal(clean.shape)
    noisy = np.clip(clean + noise, 0, 255)
    denoised = np.clip(clean + noise / 3.0, 0, 255)
    return clean, noisy, denoised


def test_denoised_image_passes(images):
    clean, noisy, denoised = images
    checks.check_denoised(clean, noisy, denoised, 3.0)


def test_image_with_its_gain_removed_fails(images):
    clean, noisy, _ = images
    with pytest.raises(checks.CheckFailed, match="PSNR"):
        checks.check_denoised(clean, noisy, noisy.copy(), 3.0)


def test_pixel_outside_8_bit_range_fails(images):
    clean, noisy, denoised = images
    bad = denoised.copy()
    bad[3, 4] = 255.5
    with pytest.raises(checks.CheckFailed, match=r"\[0, 255\]"):
        checks.check_denoised(clean, noisy, bad, 3.0)


def test_psnr_matches_the_definition():
    ref = np.zeros((4, 4))
    est = np.full((4, 4), 255.0 / 10.0)
    assert checks.psnr(ref, est) == pytest.approx(20.0)
