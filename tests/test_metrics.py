"""Merit functions, image scores, the single-machine reference and the
diffusion baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distdict.core as core_mod
from distdict import (GraphSchedule, ProblemData, build_run_config,
                      build_schedule, centralized_oracle, check_round,
                      coding_prox_weight, consensus_error,
                      diffusion_baseline, grad_dict, mean_dictionary,
                      objective_global, project_dictionary, psnr_mse,
                      stationarity_gap, tracking_residual,
                      x_update_linearized)

from oracles import (consensus_error_formula, objective_formula,
                     projected_gradient_quadratic, prox_scalar_grid,
                     psnr_scalar, ragged_run, stationarity_gap_formula)


def toy_problem(rng, sizes=(3, 2), M=4, K=3):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=0.125, mu=0.0625, alpha=1.0)


# ---------------------------------------------------------------------------
# stationarity gap


def test_gap_vanishes_on_the_zero_instance():
    problem = ProblemData(S_blocks=[np.zeros((3, 4)), np.zeros((3, 2))],
                          K=2, lam=0.125, mu=0.0625, alpha=1.0)
    rng = np.random.default_rng(60)
    D_bar = project_dictionary(rng.normal(size=(3, 2)), 1.0)
    X = [np.zeros((2, 4)), np.zeros((2, 2))]
    assert stationarity_gap(D_bar, problem.groups.stack(X), problem) == 0.0


@pytest.mark.parametrize("budget", [core_mod.BUDGET, 1],
                         ids=["one-group", "group-per-agent"])
def test_merit_functions_read_nan_on_nan_codes(budget):
    # a NaN code in any group, the last one included, must not read as a
    # gap of 0
    rng = np.random.default_rng(62)
    with mock.patch.object(core_mod, "BUDGET", budget):
        problem = toy_problem(rng)
    D_bar = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    for i, n in enumerate(problem.block_sizes):
        X = [np.zeros((3, m)) for m in problem.block_sizes]
        X[i][1, n - 1] = np.nan
        X_groups = problem.groups.stack(X)
        assert np.isnan(stationarity_gap(D_bar, X_groups, problem))
        assert np.isnan(objective_global(D_bar, X_groups, problem))


def test_gap_matches_numeric_minimization_oracles():
    rng = np.random.default_rng(61)
    problem = toy_problem(rng)
    D_bar = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    X = [rng.normal(size=(3, n)) * 0.4 for n in problem.block_sizes]

    grad_mean = sum(grad_dict(D_bar[None], Xi[None], S[None])[0] for Xi, S
                    in zip(X, problem.S_blocks)) / problem.num_agents
    D_hat = projected_gradient_quadratic(D_bar, grad_mean, 1.0,
                                         problem.alpha, iters=300)
    gap_oracle = np.max(np.abs(D_bar - D_hat))
    for Xi, S in zip(X, problem.S_blocks):
        G = D_bar.T @ (D_bar @ Xi - S)
        for idx in np.ndindex(Xi.shape):
            x_hat = prox_scalar_grid(Xi[idx], G[idx], 1.0, problem.lam,
                                     problem.mu)
            gap_oracle = max(gap_oracle, abs(Xi[idx] - x_hat))

    got = stationarity_gap(D_bar, problem.groups.stack(X), problem)
    assert got == pytest.approx(gap_oracle, abs=1e-6)


def test_gap_is_continuous_under_small_perturbations():
    rng = np.random.default_rng(62)
    problem = toy_problem(rng)
    D_bar = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    X = [rng.normal(size=(3, n)) * 0.4 for n in problem.block_sizes]
    X = problem.groups.stack(X)
    base = stationarity_gap(D_bar, X, problem)
    for eta in (1e-6, 1e-4):
        D_pert = D_bar + eta * rng.normal(size=D_bar.shape)
        moved = stationarity_gap(D_pert, X, problem)
        assert abs(moved - base) <= 50.0 * eta


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merit_functions_equal_their_earlier_formulas(data):
    I = data.draw(st.integers(1, 5), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=I, max_size=I),
                      label="block widths")
    M, K = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                     label="M, K")
    per_group = data.draw(st.integers(1, I), label="agents per group")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    with mock.patch.object(core_mod, "BUDGET",
                           per_group * max(M, K) * max(sizes)):
        problem = toy_problem(rng, sizes=sizes, M=M, K=K)
    D_bar = rng.normal(size=(M, K))
    # a quarter of the codes sit at zero, where the shrinkage's band is
    X = [rng.normal(size=(K, n)) * (rng.random((K, n)) > 0.25)
         for n in sizes]
    groups = problem.groups.stack(X)
    want = stationarity_gap_formula(D_bar, groups, problem)
    assert stationarity_gap(D_bar, groups, problem) == want
    assert objective_global(D_bar, groups, problem) == objective_formula(
        D_bar, groups, problem)


def test_merit_functions_reject_per_agent_code_blocks():
    rng = np.random.default_rng(63)
    for problem in (toy_problem(rng), toy_problem(rng, sizes=(4,))):
        D_bar = rng.normal(size=(problem.M, problem.K))
        X = [rng.normal(size=(problem.K, n)) for n in problem.block_sizes]
        for merit in (objective_global, stationarity_gap):
            with pytest.raises(ValueError, match="problem.groups.stack"):
                merit(D_bar, X, problem)
            merit(D_bar, problem.groups.stack(X), problem)


# ---------------------------------------------------------------------------
# consensus error


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mean_and_consensus_error_equal_their_earlier_formulas(data):
    I = data.draw(st.integers(1, 12), label="agents")
    M, K = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     label="M, K")
    as_list = data.draw(st.booleans(), label="list input")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    copies = rng.normal(size=(I, M, K))
    arg = list(copies) if as_list else copies
    D_bar = mean_dictionary(arg)
    assert np.array_equal(D_bar, np.mean(copies, axis=0))
    want = consensus_error_formula(arg)
    assert consensus_error(arg, D_bar) == want


def test_consensus_error_zero_on_agreement():
    D = np.arange(6.0).reshape(3, 2)
    assert consensus_error([D, D.copy(), D.copy()], D) == 0.0


def test_consensus_error_splits_a_single_entry_difference():
    A = np.zeros((2, 2))
    B = np.zeros((2, 2))
    B[0, 1] = 0.3
    assert consensus_error([A, B], mean_dictionary([A, B])) == \
        pytest.approx(0.15, abs=1e-15)


def test_consensus_error_matches_a_scalar_loop():
    rng = np.random.default_rng(63)
    copies = [rng.normal(size=(3, 2)) for _ in range(3)]
    mean = sum(copies) / 3
    worst = 0.0
    for D in copies:
        for idx in np.ndindex(D.shape):
            worst = max(worst, abs(D[idx] - mean[idx]))
    assert consensus_error(copies, mean) == pytest.approx(worst, abs=1e-15)


def test_consensus_error_positive_for_any_disagreement():
    A = np.zeros((2, 2))
    B = A.copy()
    B[1, 1] = 1e-12
    assert consensus_error([A, B], mean_dictionary([A, B])) > 0.0


# ---------------------------------------------------------------------------
# image scores


def test_psnr_identical_images_hit_the_sentinel():
    img = np.full((4, 4), 100.0)
    psnr, mse = psnr_mse(img, img.copy())
    assert mse == 0.0
    assert psnr == float("inf")


def test_psnr_constant_offset_has_closed_form():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 16.0)
    psnr, mse = psnr_mse(a, b)
    assert mse == pytest.approx(256.0, abs=1e-12)
    assert psnr == pytest.approx(10 * np.log10(255.0 ** 2 / 256.0),
                                 abs=1e-12)


def test_psnr_decreases_as_the_error_grows():
    rng = np.random.default_rng(64)
    ref = rng.uniform(0, 255, size=(16, 16))
    noise = rng.standard_normal(ref.shape)
    values = [psnr_mse(ref, ref + scale * noise)[0]
              for scale in (1.0, 2.0, 5.0, 10.0, 25.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_matches_the_scalar_oracle():
    rng = np.random.default_rng(65)
    ref = rng.uniform(0, 255, size=(6, 5))
    est = rng.uniform(0, 255, size=(6, 5))
    got = psnr_mse(ref, est)
    want = psnr_scalar(ref, est)
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    assert got[1] == pytest.approx(want[1], rel=1e-12)


def test_psnr_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        psnr_mse(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# centralized reference


def test_oracle_zero_instance_never_moves():
    problem = ProblemData(S_blocks=[np.zeros((3, 4))], K=2, lam=0.125,
                          mu=0.0625, alpha=1.0)
    config = build_run_config({"agents": 1, "max_rounds": 10,
                               "metric_stride": 1})
    states = []
    trace = centralized_oracle(problem, config,
                               observer=lambda s: states.append(
                                   (s.agents[0].D.copy(),
                                    s.agents[0].X.copy())))
    assert all(obj == 0.0 for obj in trace.objective)
    assert all(delta == 0.0 for delta in trace.delta)
    first_D = states[0][0]
    for D, X in states:
        assert np.array_equal(D, first_D)
        assert np.array_equal(X, np.zeros_like(X))


def test_oracle_objective_descends_for_small_steps():
    rng = np.random.default_rng(66)
    problem = toy_problem(rng)
    config = build_run_config({"agents": problem.num_agents,
                               "max_rounds": 60, "metric_stride": 1,
                               "gamma0": 0.1})
    trace = centralized_oracle(problem, config)
    diffs = np.diff(trace.objective)
    assert np.all(diffs <= 1e-12)


def test_oracle_matches_the_single_agent_network_run():
    # centralized_oracle is run on the pooled problem, so the reference is
    # the per-agent 2-d loop at one agent; the three-block problem checks
    # the pooling
    rng = np.random.default_rng(67)
    blocks = [rng.uniform(-1, 1, size=(4, n)) for n in (5, 3, 4, 2)]
    for S_blocks in (blocks[:1], blocks[1:]):
        problem = ProblemData(S_blocks=S_blocks, K=3, lam=0.125, mu=0.0625,
                              alpha=1.0)
        pooled = ProblemData(S_blocks=[np.hstack(S_blocks)], K=3,
                             lam=0.125, mu=0.0625, alpha=1.0)
        for variant in ("linearized", "plain"):
            config = build_run_config({"agents": problem.num_agents,
                                       "max_rounds": 20, "metric_stride": 1,
                                       "variant": variant})
            central, want = {}, {}
            trace = centralized_oracle(
                problem, config,
                observer=lambda s: central.setdefault(
                    s.nu, (s.agents[0].D.copy(), s.agents[0].X.copy())))
            ragged_run(pooled, config, build_schedule("static_ring", 1),
                       lambda nu, agents, flags: want.setdefault(
                           nu, (agents[0].D.copy(), agents[0].X.copy())))
            assert central.keys() == want.keys()
            for nu in central:
                for got, ref in zip(central[nu], want[nu]):
                    assert np.max(np.abs(got - ref)) <= 1e-12
            assert trace.messages == [2 * nu for nu in trace.nu]


# ---------------------------------------------------------------------------
# diffusion baseline


def test_baseline_counts_one_message_per_round():
    rng = np.random.default_rng(68)
    problem = toy_problem(rng)
    config = build_run_config({"agents": problem.num_agents,
                               "max_rounds": 6, "metric_stride": 1})
    trace = diffusion_baseline(problem, config)
    assert trace.nu == list(range(7))
    assert trace.messages == list(range(7))


def test_baseline_single_agent_is_projected_alternating_descent():
    rng = np.random.default_rng(69)
    problem = ProblemData(S_blocks=[rng.uniform(-1, 1, size=(4, 5))], K=3,
                          lam=0.125, mu=0.0625, alpha=1.0)
    config = build_run_config({"agents": 1, "max_rounds": 5,
                               "metric_stride": 1})
    seen = []
    diffusion_baseline(problem, config,
                       observer=lambda s: seen.append(
                           (s.agents[0].D.copy(), s.agents[0].X.copy())))

    # manual replay with the library primitives
    from distdict import init_agents
    from distdict.agents import gamma_sequence
    D, X, _ = init_agents(problem, seed=config.seed)
    D, X = D[:1].copy(), X[0][:1].copy()
    S = problem.S_blocks[0][None]
    gammas = gamma_sequence(config.max_rounds + 1,
                            config.steps.gamma0, config.steps.eps_gamma)
    for nu in range(config.max_rounds):
        D = project_dictionary(D - gammas[nu] * grad_dict(D, X, S),
                               problem.alpha)
        tau_x, _ = coding_prox_weight(D)
        X = x_update_linearized(X, D, S, tau_x, problem.lam, problem.mu)
        assert np.max(np.abs(seen[nu][0] - D[0])) <= 1e-14
        assert np.max(np.abs(seen[nu][1] - X[0])) <= 1e-14


def test_baseline_breaks_the_tracking_mean_identity():
    rng = np.random.default_rng(70)
    problem = toy_problem(rng, sizes=(3, 3, 2))
    config = build_run_config({"agents": problem.num_agents,
                               "max_rounds": 5, "metric_stride": 1})
    state = diffusion_baseline(problem, config).state
    assert tracking_residual(problem, state) > 1e-6
    with pytest.raises(ValueError, match="round 5: tracking residual"):
        check_round(problem, state)


def test_baseline_rejects_weights_that_fail_validation():
    rng = np.random.default_rng(71)
    problem = toy_problem(rng, sizes=(3, 3, 2))
    path = build_schedule("static_path", 3)
    W = path.weights[0].copy()
    W[0, 1] += 1e-6
    skewed = GraphSchedule([W], window=1)
    config = build_run_config({"agents": 3, "max_rounds": 2})
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        diffusion_baseline(problem, config, schedule=skewed)


def test_baseline_rejects_a_schedule_of_another_size():
    rng = np.random.default_rng(72)
    problem = toy_problem(rng, sizes=(3, 3, 2))
    config = build_run_config({"agents": 3, "max_rounds": 2})
    with pytest.raises(ValueError,
                       match="schedule has 4 agents, problem has 3"):
        diffusion_baseline(problem, config,
                           schedule=build_schedule("static_ring", 4))
