"""Per-agent schedules, initialization and local update steps."""

import numpy as np
import pytest

import distdict.protocol as protocol_mod
from distdict import (AgentState, ProblemData, StepSchedule,
                      build_run_config, coding_prox_weight, coding_step,
                      dictionary_step, gamma_sequence, grad_dict, init_agents,
                      run)


def toy_problem(rng, M=4, K=3, sizes=(3, 2), lam=0.125, mu=0.0625):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=lam, mu=mu, alpha=1.0)


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
        StepSchedule(eps_tau=0.0)
    with pytest.raises(ValueError):
        StepSchedule(variant="other")


# ---------------------------------------------------------------------------
# coding prox weight


def test_coding_prox_weight_floor_and_known_values():
    eps = 1e-6
    assert coding_prox_weight(np.zeros((3, 2)), eps) == (eps, 0.0)
    assert coding_prox_weight(np.eye(3), eps) == pytest.approx((1.0, 1.0),
                                                               abs=1e-12)
    U = np.zeros((4, 3))
    U[0, 0], U[1, 1] = 2.0, 1.0
    assert coding_prox_weight(U, eps) == pytest.approx((4.0, 2.0),
                                                       rel=1e-10)


# ---------------------------------------------------------------------------
# initialization


def test_initial_states_have_zero_codes_and_feasible_dictionaries():
    rng = np.random.default_rng(30)
    problem = toy_problem(rng)
    agents = init_agents(problem, seed=7)
    assert len(agents) == problem.num_agents
    for agent, S, n in zip(agents, problem.S_blocks, problem.block_sizes):
        assert np.array_equal(agent.X, np.zeros((problem.K, n)))
        norms = np.linalg.norm(agent.D, axis=0)
        assert np.all(norms <= problem.alpha + 1e-12)
        g = grad_dict(agent.D, agent.X, S)
        assert np.array_equal(agent.tracker, g)
        expected_rest = problem.num_agents * g - g
        assert np.allclose(agent.grad_rest, expected_rest, atol=1e-15)


def test_initialization_is_deterministic_in_the_seed():
    rng = np.random.default_rng(31)
    problem = toy_problem(rng)
    a = init_agents(problem, seed=3)
    b = init_agents(problem, seed=3)
    c = init_agents(problem, seed=4)
    assert all(np.array_equal(x.D, y.D) for x, y in zip(a, b))
    assert any(not np.array_equal(x.D, y.D) for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# dictionary step


def test_dictionary_step_gamma_zero_freezes_the_blend():
    rng = np.random.default_rng(32)
    problem = toy_problem(rng)
    agent = init_agents(problem, seed=0)[0]
    S = problem.S_blocks[0]
    ok = dictionary_step(agent, S, 0.0, StepSchedule(), problem.alpha,
                         grad_dict(agent.D, agent.X, S))
    assert ok
    assert np.array_equal(agent.D_half, agent.D)


def test_dictionary_step_gamma_one_jumps_to_the_surrogate_solution():
    rng = np.random.default_rng(33)
    problem = toy_problem(rng)
    sched = StepSchedule()
    a = init_agents(problem, seed=0)[0]
    b = init_agents(problem, seed=0)[0]
    S = problem.S_blocks[0]
    g = grad_dict(a.D, a.X, S)
    dictionary_step(a, S, 1.0, sched, problem.alpha, g)
    dictionary_step(b, S, 0.5, sched, problem.alpha, g)
    # the half step lands exactly between the start and the full step
    assert np.allclose(b.D_half, 0.5 * (b.D + a.D_half), atol=1e-12)


def test_dictionary_step_fixed_point_is_preserved_for_any_gamma():
    # When local and remote gradients cancel, the surrogate solution is the
    # current feasible dictionary, so the blend cannot move.
    rng = np.random.default_rng(34)
    problem = toy_problem(rng)
    agent = init_agents(problem, seed=0)[0]
    agent.X = np.zeros_like(agent.X)  # gradient of the fit at X=0 is -S D^T?
    S = problem.S_blocks[0]
    agent.grad_rest = -grad_dict(agent.D, agent.X, S)
    for gamma in (0.0, 0.3, 1.0):
        dictionary_step(agent, S, gamma, StepSchedule(), problem.alpha,
                        grad_dict(agent.D, agent.X, S))
        assert np.allclose(agent.D_half, agent.D, atol=1e-14)


def test_dictionary_step_output_stays_feasible():
    rng = np.random.default_rng(35)
    problem = toy_problem(rng)
    for agent, S in zip(init_agents(problem, seed=1), problem.S_blocks):
        agent.X = rng.normal(size=agent.X.shape)
        agent.grad_rest = (problem.num_agents * agent.tracker
                           - grad_dict(agent.D, agent.X, S))
        for gamma in (0.25, 0.9):
            dictionary_step(agent, S, gamma, StepSchedule(), problem.alpha,
                            grad_dict(agent.D, agent.X, S))
            norms = np.linalg.norm(agent.D_half, axis=0)
            assert np.all(norms <= problem.alpha + 1e-12)


# ---------------------------------------------------------------------------
# coding step


def test_coding_step_zero_data_keeps_zero_codes_in_both_variants():
    for variant in ("linearized", "plain"):
        problem = ProblemData(S_blocks=[np.zeros((3, 2))], K=2, lam=0.125,
                              mu=0.0625, alpha=1.0)
        agent = init_agents(problem, seed=0)[0]
        agent.D_half = agent.D.copy()
        sched = StepSchedule(variant=variant)
        ok = coding_step(agent, problem.S_blocks[0], 1.0, problem.lam,
                         problem.mu, sched)
        assert ok
        assert np.array_equal(agent.X, np.zeros((2, 2)))


def test_coding_step_huge_l1_weight_zeroes_the_codes():
    rng = np.random.default_rng(36)
    problem = toy_problem(rng)
    agent = init_agents(problem, seed=2)[0]
    agent.D_half = agent.D.copy()
    S = problem.S_blocks[0]
    tau, _ = coding_prox_weight(agent.D_half, 1e-6)
    lam_huge = 10.0 * np.max(np.abs(grad_dict(agent.D_half, agent.X, S)))
    lam_huge = max(lam_huge,
                   10.0 * np.max(np.abs(agent.D_half.T @ S)) + tau)
    coding_step(agent, S, tau, lam_huge, problem.mu,
                StepSchedule(variant="linearized"))
    assert np.array_equal(agent.X, np.zeros_like(agent.X))


# ---------------------------------------------------------------------------
# remote-gradient estimate, as the round engine hands it to observers


def grad_rest_per_round(problem, rounds=5, **mapping):
    """Run the engine and return, per round, each agent's grad_rest with
    its local gradient; checks grad_rest == I * tracker - own gradient."""
    config = build_run_config(dict(mapping, agents=problem.num_agents,
                                   max_rounds=rounds, metric_stride=rounds))
    seen = []

    def watch(state):
        rows = []
        for a, S in zip(state.agents, problem.S_blocks):
            g = grad_dict(a.D, a.X, S)
            assert np.allclose(a.grad_rest,
                               problem.num_agents * a.tracker - g,
                               rtol=0.0, atol=1e-12)
            rows.append((a.grad_rest.copy(), g))
        seen.append(rows)

    run(problem, config, observer=watch)
    assert len(seen) == rounds
    return seen


def test_grad_rest_is_zero_for_a_single_agent():
    rng = np.random.default_rng(37)
    problem = ProblemData(S_blocks=[rng.normal(size=(4, 5))], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)
    for rows in grad_rest_per_round(problem):
        assert np.allclose(rows[0][0], 0.0, atol=1e-15)


def test_grad_rest_sums_the_other_agents_gradients_at_a_common_point(
        monkeypatch):
    # all agents share the data block and start from one state, so they
    # stay at a common point and each estimate is the sum of the others'
    # gradients
    rng = np.random.default_rng(38)
    block = rng.normal(size=(4, 3))
    problem = ProblemData(S_blocks=[block.copy() for _ in range(4)], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)

    def common_start(problem, seed=0):
        first = init_agents(problem, seed=seed)[0]
        return [AgentState(D=first.D.copy(), X=first.X.copy(),
                           tracker=first.tracker.copy(),
                           grad_rest=first.grad_rest.copy())
                for _ in range(problem.num_agents)]

    monkeypatch.setattr(protocol_mod, "init_agents", common_start)
    for rows in grad_rest_per_round(problem, graph="static_ring"):
        for i, (rest, _) in enumerate(rows):
            others = sum(g for j, (_, g) in enumerate(rows) if j != i)
            assert np.allclose(rest, others, rtol=0.0, atol=1e-12)


def test_grad_rest_zero_instance_is_zero():
    problem = ProblemData(S_blocks=[np.zeros((3, 2)), np.zeros((3, 2))],
                          K=2, lam=0.125, mu=0.0625, alpha=1.0)
    for rows in grad_rest_per_round(problem):
        for rest, _ in rows:
            assert np.array_equal(rest, np.zeros((3, 2)))
