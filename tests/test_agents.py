"""Per-agent schedules, initialization and local update steps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distdict.protocol as protocol_mod
from distdict import (ProblemData, StepSchedule,
                      build_run_config, coding_prox_weight, coding_step,
                      dictionary_step, gamma_sequence, grad_dict, init_agents,
                      run, sigma_max)
from distdict.agents import EPS_TAU, INNER_TOL, INNER_TOL_SCALE, VARIANTS
from distdict.core import max_column_norm


def toy_problem(rng, M=4, K=3, sizes=(3, 2), lam=0.125, mu=0.0625):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=lam, mu=mu, alpha=1.0)


def first_agent(problem, seed):
    """Agent 0's initial ``D``, ``X`` and tracker as stacks of one."""
    D, X, tracker = init_agents(problem, seed=seed)
    return D[:1], problem.groups.unstack(X)[0][None], tracker[:1]


# ---------------------------------------------------------------------------
# step-size schedule


def test_gamma_first_values_match_the_recurrence():
    def gamma_at(n):
        return gamma_sequence(n + 1, 0.5, 0.1)[-1]

    assert gamma_at(0) == 0.5
    assert gamma_at(1) == pytest.approx(0.475, abs=1e-15)
    assert gamma_at(2) == pytest.approx(0.4524375, abs=1e-15)


def test_gamma_sequence_is_positive_decreasing_and_slowly_summable():
    # the tail behaves like 1/(0.1 nu), so partial sums grow without bound
    # (like 10 ln nu) while the terms themselves fall below 1e-3
    g = gamma_sequence(500001, 0.5, 0.1)
    assert np.all(g > 0)
    assert np.all(np.diff(g) < 0)
    assert g[0] == 0.5
    assert g[100000] < 1e-3
    assert g.sum() > 100.0


def test_gamma_sequence_stays_below_its_start_for_valid_parameters():
    for gamma0, eps in ((1.0, 0.5), (0.3, 3.0), (0.9, 1.0)):
        g = gamma_sequence(5000, gamma0, eps)
        assert np.all(g > 0)
        assert np.all(g <= gamma0)
        assert np.all(np.diff(g) < 0)


def test_step_schedule_rejects_invalid_parameters():
    with pytest.raises(ValueError):
        StepSchedule(gamma0=1.5)
    with pytest.raises(ValueError):
        StepSchedule(gamma0=0.5, eps_gamma=3.0)  # eps * gamma0 >= 1
    with pytest.raises(ValueError):
        StepSchedule(tau_d=0.0)
    with pytest.raises(ValueError):
        StepSchedule(variant="other")


def test_inner_tolerance_follows_the_squared_step_down_to_its_floor():
    sched = StepSchedule()
    assert sched.inner_tol_at(sched.gamma0) == INNER_TOL_SCALE * 0.25
    # the floor binds once gamma < sqrt(INNER_TOL / INNER_TOL_SCALE) = 1e-3
    assert INNER_TOL == 1e-8
    assert math.sqrt(INNER_TOL / INNER_TOL_SCALE) == pytest.approx(1e-3)
    assert sched.inner_tol_at(2e-3) == pytest.approx(INNER_TOL_SCALE * 4e-6,
                                                    rel=1e-12)
    for gamma in (9.99e-4, 1e-5, 0.0):
        assert sched.inner_tol_at(gamma) == INNER_TOL
    g = gamma_sequence(200001, sched.gamma0, sched.eps_gamma)
    tols = np.array([sched.inner_tol_at(x) for x in g])
    assert np.all(tols >= INNER_TOL)
    assert np.all(np.diff(tols) <= 0)
    assert np.all(tols[g < 1e-3] == INNER_TOL)
    # at the default step rule the floor binds from about round 10 000
    assert 9000 < np.argmax(g < 1e-3) < 11000
    # sum gamma_nu tol_nu converges: the terms beyond round 20 000 add
    # less than a thousandth to it
    weighted = g * tols
    assert weighted[20000:].sum() < 1e-3 * weighted.sum()


# ---------------------------------------------------------------------------
# coding prox weight


def test_coding_prox_weight_floor_and_known_values():
    def lone(U):
        tau, sig = coding_prox_weight(U[None])
        assert tau.shape == (1, 1, 1) and sig.shape == (1,)
        return tau[0, 0, 0], sig[0]

    assert EPS_TAU == 1e-6
    assert lone(np.zeros((3, 2))) == (EPS_TAU, 0.0)
    # the floor binds below sigma^2 = EPS_TAU and not above it
    assert lone(1e-4 * np.eye(3))[0] == EPS_TAU
    assert lone(1e-2 * np.eye(3))[0] == pytest.approx(1e-4, rel=1e-10)
    assert lone(np.eye(3)) == pytest.approx((1.0, 1.0), abs=1e-12)
    U = np.zeros((4, 3))
    U[0, 0], U[1, 1] = 2.0, 1.0
    assert lone(U) == pytest.approx((4.0, 2.0), rel=1e-10)


def test_coding_prox_weight_takes_a_stack_only():
    with pytest.raises(ValueError, match="stack is required"):
        coding_prox_weight(np.eye(3))


# ---------------------------------------------------------------------------
# initialization


def test_initial_states_have_zero_codes_and_feasible_dictionaries():
    rng = np.random.default_rng(30)
    problem = toy_problem(rng)
    D, X, tracker = init_agents(problem, seed=7)
    assert len(D) == problem.num_agents
    protocol_mod.check_round(problem, protocol_mod.RoundState(
        problem.groups, D, X, tracker))
    for d, x, t, S, n in zip(D, problem.groups.unstack(X), tracker,
                             problem.S_blocks, problem.block_sizes):
        assert np.array_equal(x, np.zeros((problem.K, n)))
        assert np.array_equal(t, grad_dict(d[None], x[None], S[None])[0])


def test_initialization_is_deterministic_in_the_seed():
    rng = np.random.default_rng(31)
    problem = toy_problem(rng)
    a = init_agents(problem, seed=3)[0]
    b = init_agents(problem, seed=3)[0]
    c = init_agents(problem, seed=4)[0]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
       K=st.integers(1, 5), seed=st.integers(0, 1000))
@example(sizes=[1, 1, 2, 2], K=2, seed=299)
def test_no_atom_starts_as_a_copy_of_another_at_every_agent(sizes, K, seed):
    # with replacement, the column draws of seed 299 give every agent of
    # this example one column twice; where no atom is such a copy, the
    # draws are the plain ones and the dictionaries are the data columns
    problem = toy_problem(np.random.default_rng(seed), M=3, K=K, sizes=sizes)
    D = init_agents(problem, seed=seed)[0]
    drawn = np.stack([np.random.default_rng([seed, i]).integers(0, n, size=K)
                      for i, n in enumerate(sizes)])
    copies = [(k, l) for l in range(K) for k in range(l)
              if np.array_equal(drawn[:, k], drawn[:, l])]
    if not copies:
        for D_i, S, cols in zip(D, problem.S_blocks, drawn):
            want = S[:, cols] * (1.0 / np.linalg.norm(S[:, cols], axis=0))
            assert np.array_equal(D_i, want)
    if max(sizes) >= K:
        for l in range(K):
            for k in range(l):
                assert not np.array_equal(D[:, :, k], D[:, :, l]), (k, l)


# ---------------------------------------------------------------------------
# dictionary step


def test_dictionary_step_gamma_zero_freezes_the_blend():
    rng = np.random.default_rng(32)
    problem = toy_problem(rng)
    D, X, _ = first_agent(problem, seed=0)
    direction = grad_dict(D, X, problem.S_blocks[0][None])
    D_half, ok = dictionary_step(D, X, direction, 0.0, StepSchedule(),
                                 problem.alpha)
    assert ok
    assert np.array_equal(D_half, D)


def test_dictionary_step_gamma_one_jumps_to_the_surrogate_solution():
    rng = np.random.default_rng(33)
    problem = toy_problem(rng)
    sched = StepSchedule()
    D, X, _ = first_agent(problem, seed=0)
    direction = grad_dict(D, X, problem.S_blocks[0][None])
    full, _ = dictionary_step(D, X, direction, 1.0, sched, problem.alpha)
    half, _ = dictionary_step(D, X, direction, 0.5, sched, problem.alpha)
    # the half step lands exactly between the start and the full step
    assert np.allclose(half, 0.5 * (D + full), atol=1e-12)


def test_dictionary_step_fixed_point_is_preserved_for_any_gamma():
    # When the direction I y is zero (the local and the others' gradients
    # cancel), the surrogate solution in either mode is the current feasible
    # dictionary, so the blend cannot move.
    rng = np.random.default_rng(34)
    problem = toy_problem(rng)
    D, X, _ = first_agent(problem, seed=0)
    X = rng.normal(size=X.shape)
    for d_mode, gamma in itertools.product(VARIANTS, (0.0, 0.3, 1.0)):
        D_half, _ = dictionary_step(D, X, np.zeros_like(D), gamma,
                                    StepSchedule(d_mode=d_mode),
                                    problem.alpha)
        assert np.allclose(D_half, D, atol=1e-14)


def test_dictionary_step_output_stays_feasible():
    rng = np.random.default_rng(35)
    problem = toy_problem(rng)
    D, X0, _ = init_agents(problem, seed=1)
    X = [rng.normal(size=x.shape) for x in problem.groups.unstack(X0)]
    direction = problem.num_agents * np.concatenate(
        [grad_dict(d[None], x[None], S[None])
         for d, x, S in zip(D, X, problem.S_blocks)])
    for gamma in (0.25, 0.9):
        for (d, x, dirn), d_mode in itertools.product(
                zip(D, X, direction), VARIANTS):
            D_half, _ = dictionary_step(d[None], x[None], dirn[None], gamma,
                                        StepSchedule(d_mode=d_mode),
                                        problem.alpha)
            assert max_column_norm(D_half) <= problem.alpha + 1e-12
        # the one linearized call a round makes over the (I, M, K) stacks
        D_half, _ = dictionary_step(D, None, direction, gamma,
                                    StepSchedule(), problem.alpha)
        assert max_column_norm(D_half) <= problem.alpha + 1e-12


# ---------------------------------------------------------------------------
# coding step


def test_coding_step_zero_data_keeps_zero_codes_in_both_variants():
    for variant in ("linearized", "plain"):
        problem = ProblemData(S_blocks=[np.zeros((3, 2))], K=2, lam=0.125,
                              mu=0.0625, alpha=1.0)
        D, X, _ = first_agent(problem, seed=0)
        sched = StepSchedule(variant=variant)
        X_new, ok = coding_step(X, D.copy(), problem.S_blocks[0][None], 1.0,
                                problem.lam, problem.mu, 0.5, sched,
                                sigma_max(D)[0])
        assert ok
        assert np.array_equal(X_new, np.zeros((1, 2, 2)))


def test_coding_step_huge_l1_weight_zeroes_the_codes():
    rng = np.random.default_rng(36)
    problem = toy_problem(rng)
    D, X, _ = first_agent(problem, seed=2)
    D_half = D.copy()
    S = problem.S_blocks[0][None]
    tau, sig = coding_prox_weight(D_half)
    lam_huge = 10.0 * np.max(np.abs(grad_dict(D_half, X, S)))
    lam_huge = max(lam_huge,
                   10.0 * np.max(np.abs(D_half[0].T @ S[0])) + tau.item())
    X_new, _ = coding_step(X, D_half, S, tau, lam_huge, problem.mu, 0.5,
                           StepSchedule(variant="linearized"), sig)
    assert np.array_equal(X_new, np.zeros_like(X))


# ---------------------------------------------------------------------------
# the dictionary step's direction I y, as the round engine hands the
# tracker to observers


def direction_per_round(problem, rounds=5, **mapping):
    """Run the engine and return, per round, each agent's direction
    ``I * tracker`` with its local gradient, taken per group as the engine
    takes it."""
    config = build_run_config(dict(mapping, agents=problem.num_agents,
                                   max_rounds=rounds, metric_stride=rounds))
    seen = []

    def watch(state):
        grads = np.concatenate([grad_dict(state.D[sl], Xg, S) for sl, S, Xg
                                in zip(problem.groups.slices,
                                       problem.S_groups, state.X)])
        seen.append(list(zip(problem.num_agents * state.tracker, grads)))

    run(problem, config, observer=watch)
    assert len(seen) == rounds
    return seen


def test_direction_is_the_local_gradient_for_a_single_agent():
    rng = np.random.default_rng(37)
    problem = ProblemData(S_blocks=[rng.normal(size=(4, 5))], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)
    for d_mode in VARIANTS:
        for rows in direction_per_round(problem, d_mode=d_mode):
            direction, g = rows[0]
            assert g.any()
            assert np.array_equal(direction, g)


def test_direction_sums_all_agents_gradients_at_a_common_point(monkeypatch):
    # all agents share the data block and start from one state, so they
    # stay at a common point and each direction is the sum of all agents'
    # gradients
    rng = np.random.default_rng(38)
    block = rng.normal(size=(4, 3))
    problem = ProblemData(S_blocks=[block.copy() for _ in range(4)], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)

    def common_start(problem, seed=0):
        # agent 0's state for everyone; the codes are zero for all agents
        D, X, tracker = init_agents(problem, seed=seed)
        D, tracker = (np.repeat(a[:1], problem.num_agents, axis=0)
                      for a in (D, tracker))
        return D, X, tracker

    monkeypatch.setattr(protocol_mod, "init_agents", common_start)
    for rows in direction_per_round(problem, graph="static_ring"):
        total = sum(g for _, g in rows)
        for direction, _ in rows:
            assert np.allclose(direction, total, rtol=0.0, atol=1e-12)


def test_direction_zero_instance_is_zero():
    problem = ProblemData(S_blocks=[np.zeros((3, 2)), np.zeros((3, 2))],
                          K=2, lam=0.125, mu=0.0625, alpha=1.0)
    for rows in direction_per_round(problem):
        for direction, _ in rows:
            assert np.array_equal(direction, np.zeros((3, 2)))
