"""Round orchestration: consensus, tracking and the full simulation loop."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import distdict.agents as agents_mod
import distdict.core as core_mod
import distdict.network as network_mod
import distdict.protocol as protocol_mod
from distdict import (GraphSpec, ProblemData, build_run_config,
                      build_schedule, centralized_oracle, check_round,
                      consensus_step, denoise_image, diffusion_baseline,
                      make_standard_problem, make_test_image, run,
                      tracking_residual, tracking_step)
from distdict.agents import VARIANTS
from distdict.network import SCHEDULE_KINDS

from oracles import consensus_tensordot


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_consensus_equals_the_tensordot_mix(data):
    I = data.draw(st.integers(1, 12), label="agents")
    shape = data.draw(st.lists(st.integers(1, 7), max_size=2),
                      label="matrix shape")
    as_list = data.draw(st.booleans(), label="list input")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    W = rng.random((I, I))
    mats = rng.normal(size=(I, *shape))
    arg = list(mats) if as_list else mats
    got = consensus_step(W, arg)
    assert got.shape == mats.shape
    assert np.array_equal(got, consensus_tensordot(W, arg))


def test_consensus_of_no_agents_is_an_empty_stack():
    out = consensus_step(np.zeros((0, 0)), np.zeros((0, 3, 2)))
    assert out.shape == (0, 3, 2)


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


def test_tracking_rejects_a_mismatched_weight_matrix():
    mats = [np.zeros((2, 2))] * 2
    with pytest.raises(ValueError, match="weight matrix size"):
        tracking_step(np.eye(3), mats, mats, mats)


def test_a_run_starts_from_zero_gradients_without_computing_them(
        monkeypatch):
    # the codes start at zero, so every initial local gradient is zero
    calls = []
    grad_dict = core_mod.grad_dict

    def counted(*args):
        calls.append(args)
        return grad_dict(*args)

    for module in (agents_mod, protocol_mod):
        monkeypatch.setattr(module, "grad_dict", counted)
    problem = toy_problem(np.random.default_rng(44))
    state = run(problem, config_for(problem, max_rounds=0)).state
    assert calls == []
    assert not state.tracker.any()
    assert tracking_residual(problem, state) == 0.0


def test_tracking_mean_identity_holds_along_a_full_run():
    rng = np.random.default_rng(43)
    problem = toy_problem(rng, sizes=(3, 2, 3, 2, 2))
    config = config_for(problem, graph="tv_ring_partition", window=2,
                        max_rounds=100)
    residuals = []
    run(problem, config, observer=lambda state: residuals.append(
        tracking_residual(problem, state)))
    assert len(residuals) == 100 and max(residuals) <= 1e-10


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
    initial = protocol_mod.RoundState(
        problem.groups, *protocol_mod.init_agents(problem, seed=5))
    for got, want in zip(start.agents, initial.agents):
        for name in ("D", "X", "tracker"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    # an early stop hands back the arrays of the last round run
    seen = []
    config = config_for(problem, max_rounds=500, metric_stride=1,
                        stop_tol=1e-3)
    trace = run(problem, config, observer=lambda s: seen.append(
        (s.D, s.X, s.tracker)))
    end = trace.state
    assert end.nu == trace.nu[-1] == len(seen) < 500
    assert end.messages == 2 * end.nu
    D, X, tracker = seen[-1]
    assert end.D is D and end.tracker is tracker
    assert all(got is want for got, want in zip(end.X, X))


def test_run_checks_each_schedule_once(monkeypatch):
    rng = np.random.default_rng(52)
    problem = toy_problem(rng)
    config = config_for(problem, max_rounds=1)
    schedule = build_schedule("static_ring", problem.num_agents)
    calls = []
    connected = network_mod.is_b_strongly_connected
    monkeypatch.setattr(network_mod, "is_b_strongly_connected",
                        lambda s: calls.append(s) or connected(s))
    for passed in (None, schedule):  # built from config.graph, passed in
        calls.clear()
        run(problem, config, schedule=passed)
        assert len(calls) == 1


@pytest.mark.parametrize("field, agent, value, fault", [
    ("D", 2, np.nan, "non-finite D"),
    ("tracker", 1, np.inf, "non-finite tracker"),
    ("D", 0, 2.0, "dictionary column of norm"),
])
def test_check_round_names_the_round_and_the_agent_at_fault(
        field, agent, value, fault):
    rng = np.random.default_rng(53)
    problem = toy_problem(rng)
    state = run(problem, config_for(problem, max_rounds=6)).state
    check_round(problem, state)
    np.put(getattr(state, field)[agent], 0, value)
    with pytest.raises(ValueError,
                       match=f"^round 6: agent {agent} has a {fault}"):
        check_round(problem, state)


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
    assert run(problem, config,
               observer=partial(check_round, problem)).nu[-1] == 25


@pytest.fixture(scope="module")
def pooled_objective():
    """The pooled oracle's objective at round 500 on the standard instance,
    split across I agents, by I."""
    out = {}
    for I in (5, 10):
        _, problem = make_standard_problem(num_agents=I)
        trace = centralized_oracle(problem, config_for(problem,
                                                       max_rounds=500))
        out[I] = trace.objective[-1]
    return out


FAILS_ITEM_1 = {("static_ring", 5), ("static_ring", 10),
                ("tv_ring_partition", 10)}


@pytest.mark.parametrize("kind,I", [
    pytest.param(kind, I, marks=pytest.mark.xfail(
        strict=True, reason="the tracked method fails on directed rings and, "
        "at 10 agents, on tv_ring_partition (ROADMAP, item 1)")
        if (kind, I) in FAILS_ITEM_1 else ())
    for kind in SCHEDULE_KINDS for I in (5, 10)])
def test_tracked_run_reaches_the_pooled_objective_on_every_kind(
        pooled_objective, kind, I):
    _, problem = make_standard_problem(num_agents=I)
    window = {"window": 3} if kind == "tv_ring_partition" else {}
    trace = run(problem, config_for(problem, graph=kind, max_rounds=500,
                                    **window))
    assert trace.nu[-1] == 500
    assert trace.objective[-1] <= 1.05 * pooled_objective[I]


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


def test_plain_round_takes_one_norm_per_round(monkeypatch):
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
    assert len(problem.groups.slices) == 1
    assert counts == {"agents": 10, "core": 0}


@pytest.mark.parametrize("driver,d_mode,steps", [
    ("run", "linearized", [(3, 16, 4)] * 2),
    # the plain dictionary solve needs each group's codes and data
    ("run", "plain", [(1, 16, 4)] * 6),
    ("diffusion", "linearized", [])])
def test_dictionary_side_steps_run_once_per_round_over_all_agents(
        monkeypatch, driver, d_mode, steps):
    # blocks this wide make every agent its own group, as in denoise128
    problem = toy_problem(np.random.default_rng(54), sizes=(520, 513, 600),
                          M=16, K=4)
    assert len(problem.groups.slices) == problem.num_agents == 3
    shapes = {"coding_prox_weight": [], "dictionary_step": []}

    def recorded(name, fn):
        def wrapper(D, *args, **kwargs):
            shapes[name].append(np.shape(D))
            return fn(D, *args, **kwargs)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(protocol_mod, name,
                            recorded(name, getattr(protocol_mod, name)))
    config = config_for(problem, max_rounds=2, d_mode=d_mode)
    (run if driver == "run" else diffusion_baseline)(problem, config)
    assert shapes == {"coding_prox_weight": [(3, 16, 4)] * 2,
                      "dictionary_step": steps}


@pytest.mark.parametrize("driver", ["run", "diffusion"])
def test_a_round_mixes_first_then_takes_each_groups_codes_and_gradient(
        monkeypatch, driver):
    # blocks this wide make every agent its own group
    problem = toy_problem(np.random.default_rng(55), sizes=(520, 513, 600),
                          M=16, K=4)
    groups = {id(S): g for g, S in enumerate(problem.S_groups)}
    calls = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            # coding_step and grad_dict take the group's data third
            calls.append((name, groups[id(args[2])]) if len(args) > 2
                         else (name,))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("consensus_step", "coding_step", "grad_dict"):
        monkeypatch.setattr(protocol_mod, name,
                            recorded(name, getattr(protocol_mod, name)))
    config = config_for(problem, max_rounds=1)
    (run if driver == "run" else diffusion_baseline)(problem, config)
    pairs = [(name, g) for g in range(3) for name in ("coding_step",
                                                      "grad_dict")]
    # the tracked round ends with the trackers' mix inside tracking_step
    tail = [("consensus_step",)] if driver == "run" else []
    assert calls == [("consensus_step",)] + pairs + tail


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


def test_plain_standard_run_solves_its_coding_steps_inexactly(monkeypatch):
    # the round tolerance inner_tol_at(gamma_nu) is loose while gamma_nu is
    # large: about 1 550 lockstep iterations, where a fixed 1e-8 takes
    # 3 044, and the gap target is still crossed by round 180 with no solve
    # capped; one soft_threshold call per lockstep iteration
    counts = {"iterations": 0}
    inside = []
    solve = agents_mod.x_update_plain
    shrink = core_mod.soft_threshold

    def counted_solve(*args, **kwargs):
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
    _, problem = make_standard_problem()
    trace = run(problem, config_for(problem, graph="static_ring",
                                    variant="plain", max_rounds=200,
                                    metric_stride=10))
    assert counts["iterations"] <= 1700
    crossed = [nu for nu, gap in zip(trace.nu, trace.delta) if gap <= 0.565]
    assert crossed and crossed[0] <= 180
    assert sum(trace.flags) == 0


def test_no_lapack_eigen_or_singular_value_routine_runs(monkeypatch):
    # sigma_max squares Gram matrices; with LAPACK's eigen and singular
    # value routines made to raise, every round loop still completes
    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine ran")

    for name in ("eigvalsh", "eigh", "svd", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _, problem = make_standard_problem()
    for variant in VARIANTS:
        for d_mode in VARIANTS:
            trace = run(problem, config_for(
                problem, graph="static_ring", variant=variant, d_mode=d_mode,
                max_rounds=5, metric_stride=5))
            assert trace.nu[-1] == 5
    trace = diffusion_baseline(problem, config_for(
        problem, graph="static_ring", max_rounds=5, metric_stride=5))
    assert trace.nu[-1] == 5
    noisy = make_test_image(16).astype(float)
    result = denoise_image(noisy, config_for(
        problem, graph="static_path", agents=3, max_rounds=3,
        metric_stride=3), patch_side=4, stride=2, num_atoms=6)
    assert result.image.shape == noisy.shape
