"""Round orchestration: consensus, tracking and the full simulation loop."""

import numpy as np
import pytest

import distdict.agents as agents_mod
import distdict.core as core_mod
import distdict.protocol as protocol_mod
from distdict import (GraphSpec, ProblemData, build_run_config,
                      build_schedule, consensus_step, grad_dict,
                      make_standard_problem, run, tracking_step)


def toy_problem(rng, sizes=(3, 2, 3), M=4, K=3):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=0.125, mu=0.0625, alpha=1.0)


def config_for(problem, **overrides):
    mapping = {"agents": problem.num_agents}
    mapping.update(overrides)
    return build_run_config(mapping, lam=problem.lam, mu=problem.mu,
                            alpha=problem.alpha)


# ---------------------------------------------------------------------------
# consensus


def test_consensus_identity_weights_change_nothing():
    rng = np.random.default_rng(40)
    mats = [rng.normal(size=(3, 2)) for _ in range(3)]
    out = consensus_step(np.eye(3), mats)
    for got, want in zip(out, mats):
        assert np.array_equal(got, want)


def test_consensus_is_a_fixed_point_on_agreement():
    common = np.arange(6.0).reshape(3, 2)
    W = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    out = consensus_step(W, [common.copy() for _ in range(3)])
    for got in out:
        assert np.allclose(got, common, atol=1e-15)


def test_consensus_two_agents_meet_at_the_average():
    A = np.zeros((2, 2))
    B = np.ones((2, 2))
    out = consensus_step(np.full((2, 2), 0.5), [A, B])
    assert np.allclose(out[0], 0.5, atol=1e-15)
    assert np.allclose(out[1], 0.5, atol=1e-15)


def test_consensus_rejects_a_mismatched_weight_matrix():
    with pytest.raises(ValueError):
        consensus_step(np.eye(3), [np.zeros((2, 2))] * 2)


# ---------------------------------------------------------------------------
# tracking


def test_tracking_mean_is_preserved_when_gradients_are_static():
    rng = np.random.default_rng(41)
    trackers = [rng.normal(size=(3, 2)) for _ in range(4)]
    grads = [rng.normal(size=(3, 2)) for _ in range(4)]
    W = np.full((4, 4), 0.25)
    out = tracking_step(W, trackers, grads, grads)
    before = sum(trackers) / 4
    after = sum(out) / 4
    assert np.allclose(after, before, atol=1e-14)


def test_tracking_single_agent_reproduces_the_new_gradient_exactly():
    rng = np.random.default_rng(42)
    theta = rng.normal(size=(3, 2))
    g_old = theta.copy()  # single-agent init: tracker equals the gradient
    g_new = rng.normal(size=(3, 2))
    out = tracking_step(np.array([[1.0]]), [theta], [g_new], [g_old])
    assert np.array_equal(out[0], g_new)


def test_tracking_mean_identity_holds_along_a_full_run():
    rng = np.random.default_rng(43)
    problem = toy_problem(rng, sizes=(3, 2, 3, 2, 2))
    config = config_for(problem, graph="tv_ring_partition", window=2,
                        max_rounds=100)
    worst = [0.0]

    def check(state):
        grads = [grad_dict(a.D, a.X, S)
                 for a, S in zip(state.agents, problem.S_blocks)]
        tracker_mean = sum(a.tracker for a in state.agents) / len(
            state.agents)
        grad_mean = sum(grads) / len(grads)
        worst[0] = max(worst[0], np.max(np.abs(tracker_mean - grad_mean)))

    run(problem, config, observer=check)
    assert worst[0] <= 1e-10


# ---------------------------------------------------------------------------
# full runs


def test_run_with_frozen_step_size_keeps_the_mean_dictionary_fixed():
    # gamma = 0 freezes every local blend, so consensus only shuffles mass
    # between the copies: the network average never moves (the mixing
    # matrix is doubly stochastic) while the codes keep updating.
    rng = np.random.default_rng(44)
    problem = toy_problem(rng)
    config = config_for(problem, graph="static_path", max_rounds=20,
                        gamma0=0.0)
    snapshots = []

    def watch(state):
        mean_d = sum(a.D for a in state.agents) / len(state.agents)
        snapshots.append((mean_d, [a.X.copy() for a in state.agents]))

    run(problem, config, observer=watch)
    first_mean, first_x = snapshots[0]
    last_mean, last_x = snapshots[-1]
    assert np.allclose(first_mean, last_mean, atol=1e-13)
    assert any(not np.allclose(x0, x1, atol=1e-12)
               for x0, x1 in zip(first_x, last_x))


def test_run_counts_two_messages_per_round():
    rng = np.random.default_rng(45)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=7, metric_stride=1)
    trace = run(problem, config)
    assert trace.nu == list(range(8))
    assert trace.messages == [2 * nu for nu in range(8)]


def test_run_records_only_strided_rows_plus_the_final_round():
    rng = np.random.default_rng(46)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=10, metric_stride=4)
    trace = run(problem, config)
    assert trace.nu == [0, 4, 8, 10]


def test_run_stops_early_once_the_gap_reaches_the_tolerance():
    rng = np.random.default_rng(47)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=500, metric_stride=1,
                        stop_tol=1e-3)
    trace = run(problem, config)
    assert trace.delta[-1] <= 1e-3
    assert trace.nu[-1] < 500


def test_run_returns_the_state_it_ended_in():
    rng = np.random.default_rng(47)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=0, seed=5)
    start = run(problem, config).state
    assert (start.nu, start.messages) == (0, 0)
    for got, want in zip(start.agents,
                         protocol_mod.init_agents(problem, seed=5)):
        for name in ("D", "X", "tracker", "grad_rest"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    # an early stop hands back the arrays of the last round run
    seen = []
    config = config_for(problem, max_rounds=500, metric_stride=1,
                        stop_tol=1e-3)
    trace = run(problem, config, observer=lambda s: seen.append(
        (s.D, s.X, s.tracker, s.grad_rest)))
    end = trace.state
    assert end.nu == trace.nu[-1] == len(seen) < 500
    assert end.messages == 2 * end.nu
    D, X, tracker, grad_rest = seen[-1]
    assert end.D is D and end.tracker is tracker
    assert end.grad_rest is grad_rest
    assert all(got is want for got, want in zip(end.X, X))


def test_run_validates_the_schedule_against_the_problem():
    rng = np.random.default_rng(48)
    problem = toy_problem(rng)  # three agents
    config = config_for(problem)
    wrong = build_schedule("static_ring", problem.num_agents + 1)
    with pytest.raises(ValueError):
        run(problem, config, schedule=wrong)


def test_run_is_deterministic_for_a_fixed_seed():
    rng = np.random.default_rng(49)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=30, seed=11)
    a = run(problem, config)
    b = run(problem, config)
    assert a.nu == b.nu
    assert a.objective == b.objective
    assert a.delta == b.delta
    assert a.cons_err == b.cons_err
    assert a.gamma == b.gamma


def test_run_keeps_every_dictionary_copy_feasible():
    rng = np.random.default_rng(50)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=25)

    def check(state):
        for a in state.agents:
            assert np.all(np.linalg.norm(a.D, axis=0)
                          <= problem.alpha + 1e-12)

    run(problem, config, observer=check)


def test_linearized_round_computes_each_gradient_and_norm_once(monkeypatch):
    counts = {"grad_dict": 0, "sigma_max": 0}

    def counted(name, fn):
        # a stacked call does the work of one call per agent in the stack
        def wrapper(*args, **kwargs):
            counts[name] += len(args[0]) if np.ndim(args[0]) == 3 else 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(agents_mod, "grad_dict",
                        counted("grad_dict", agents_mod.grad_dict))
    monkeypatch.setattr(protocol_mod, "grad_dict",
                        counted("grad_dict", protocol_mod.grad_dict))
    monkeypatch.setattr(agents_mod, "sigma_max",
                        counted("sigma_max", agents_mod.sigma_max))
    per_round = []

    def observer(state):
        per_round.append(dict(counts))
        counts.update(grad_dict=0, sigma_max=0)

    rng = np.random.default_rng(48)
    problem = toy_problem(rng)
    # a zero-round run counts the set-up, which the first round's tally holds
    run(problem, config_for(problem, max_rounds=0))
    setup = dict(counts)
    counts.update(grad_dict=0, sigma_max=0)
    config = config_for(problem, max_rounds=6, metric_stride=1000,
                        variant="linearized", d_mode="linearized")
    run(problem, config, observer=observer)
    per_round[0] = {k: v - setup[k] for k, v in per_round[0].items()}
    I = problem.num_agents
    assert per_round == [{"grad_dict": I, "sigma_max": I}] * 6


def plain_standard_run(rounds):
    _, problem = make_standard_problem()
    run(problem, config_for(problem, graph="static_ring", variant="plain",
                            max_rounds=rounds, metric_stride=rounds))
    return problem


def test_plain_round_takes_one_norm_per_group(monkeypatch):
    counts = {"agents": 0, "core": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # coding_prox_weight looks sigma_max up in agents, the solvers in core
    monkeypatch.setattr(agents_mod, "sigma_max",
                        counted("agents", agents_mod.sigma_max))
    monkeypatch.setattr(core_mod, "sigma_max",
                        counted("core", core_mod.sigma_max))
    problem = plain_standard_run(10)
    assert counts == {"agents": 10 * len(problem.groups.slices), "core": 0}


def test_plain_coding_solver_takes_at_most_20_iterations_per_call(
        monkeypatch):
    # one soft_threshold call per lockstep iteration of x_update_plain
    counts = {"solves": 0, "iterations": 0}
    inside = []
    solve = agents_mod.x_update_plain
    shrink = core_mod.soft_threshold

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        inside.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            inside.pop()

    def counted_shrink(*args, **kwargs):
        counts["iterations"] += bool(inside)
        return shrink(*args, **kwargs)

    monkeypatch.setattr(agents_mod, "x_update_plain", counted_solve)
    monkeypatch.setattr(core_mod, "soft_threshold", counted_shrink)
    problem = plain_standard_run(30)
    assert counts["solves"] == 30 * len(problem.groups.slices)
    assert counts["iterations"] <= 20 * counts["solves"]
