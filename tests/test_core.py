"""Objective, gradients, projections and subproblem solvers against
independent oracles."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import distdict.core as core_mod
from distdict import (ProblemData, StepSchedule, d_update_linearized,
                      d_update_plain, dictionary_step, grad_codes, grad_dict,
                      objective_global, project_dictionary, sigma_max,
                      soft_threshold, x_update_linearized, x_update_plain)

from oracles import (accelerated_coding_steps, d_update_plain_loop,
                     elastic_net_kkt_residual,
                     finite_difference_gradient, grad_codes_formula,
                     grad_dict_formula, objective_scalar_loop,
                     project_column_line_search, project_dictionary_formula,
                     projected_gradient_quadratic, prox_scalar_grid,
                     sigma_max_eigvalsh, soft_threshold_sign,
                     x_update_linearized_formula, x_update_plain_loop)


def random_problem(rng, M=4, K=3, sizes=(3, 3), lam=0.125, mu=0.0625,
                   alpha=1.0):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=lam, mu=mu, alpha=alpha)


def lone_plain_codes(X0, U, S, tau, lam, mu, inner_tol, inner_max_iter):
    """``x_update_plain`` on one agent's matrices as a stack of one, with
    the spectral norm of U it takes; the agent's codes and flag."""
    out, done = x_update_plain(X0[None], U[None], S[None], tau, lam, mu,
                               inner_tol, inner_max_iter,
                               sigma_max(U[None])[0])
    return out[0], done[0]


def lone_plain_dictionary(D0, X, direction, tau, alpha, inner_tol,
                          inner_max_iter):
    """``d_update_plain`` on one agent's matrices as a stack of one; the
    agent's dictionary and flag."""
    out, done = d_update_plain(D0[None], X[None], direction[None], tau,
                               alpha, inner_tol, inner_max_iter)
    return out[0], done[0]


# ---------------------------------------------------------------------------
# objective


def test_objective_zero_variables_gives_half_squared_data_norm():
    rng = np.random.default_rng(0)
    problem = random_problem(rng)
    D = np.zeros((problem.M, problem.K))
    X = [np.zeros((problem.K, n)) for n in problem.block_sizes]
    expected = 0.5 * sum(np.sum(S ** 2) for S in problem.S_blocks)
    assert objective_global(D, problem.groups.stack(X), problem) == \
        pytest.approx(expected, abs=1e-15)


def test_objective_zero_instance_is_zero():
    problem = ProblemData(S_blocks=[np.zeros((3, 2))], K=2, lam=0.125,
                          mu=0.0625, alpha=1.0)
    D = np.full((3, 2), 0.1)
    assert objective_global(D, problem.groups.stack([np.zeros((2, 2))]),
                            problem) == 0.0


def test_objective_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    problem = random_problem(rng, M=4, K=3, sizes=(4, 2))
    D = rng.uniform(-1, 1, size=(4, 3))
    X = [rng.uniform(-1, 1, size=(3, n)) for n in problem.block_sizes]
    expected = objective_scalar_loop(D, X, problem.S_blocks, problem.lam,
                                     problem.mu)
    assert objective_global(D, problem.groups.stack(X), problem) == \
        pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_data_rejects_non_finite_data_naming_the_block(bad):
    blocks = [np.zeros((3, 2)), np.zeros((3, 4))]
    blocks[1][2, 3] = bad
    with pytest.raises(ValueError, match="block 1 holds NaN or inf"):
        ProblemData(S_blocks=blocks, K=2, lam=0.125, mu=0.0625, alpha=1.0)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_problem_data_and_projection_reject_a_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        ProblemData(S_blocks=[np.ones((3, 2))], K=2, lam=0.125, mu=0.0625,
                    alpha=alpha)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        project_dictionary(np.ones((3, 2)), alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["lam", "mu"])
def test_problem_data_rejects_a_non_finite_penalty(name, bad):
    penalties = {"lam": 0.125, "mu": 0.0625, name: bad}
    with pytest.raises(ValueError,
                       match="lam and mu must be positive and finite"):
        ProblemData(S_blocks=[np.ones((3, 2))], K=2, alpha=1.0, **penalties)


def test_objective_rejects_mismatched_dimensions():
    problem = random_problem(np.random.default_rng(2))
    D = np.zeros((problem.M + 1, problem.K))
    X = [np.zeros((problem.K, n)) for n in problem.block_sizes]
    with pytest.raises(ValueError, match="D has shape"):
        objective_global(D, problem.groups.stack(X), problem)


# ---------------------------------------------------------------------------
# gradients


def test_gradients_vanish_in_the_trivial_cases():
    rng = np.random.default_rng(3)
    D = rng.normal(size=(1, 4, 3))
    S = rng.normal(size=(1, 4, 5))
    X0 = np.zeros((1, 3, 5))
    assert np.array_equal(grad_dict(D, X0, D @ X0), np.zeros((1, 4, 3)))
    X = rng.normal(size=(1, 3, 5))
    assert np.allclose(grad_dict(D, X, D @ X), 0.0, atol=1e-12)
    assert np.array_equal(grad_codes(np.zeros((1, 4, 3)), X, S),
                          np.zeros((1, 3, 5)))
    assert np.allclose(grad_codes(D, X, D @ X), 0.0, atol=1e-12)


@pytest.mark.parametrize("d_shape, x_shape, s_shape", [
    ((4, 3), (3, 5), (2, 4, 5)),        # a stack only in S
    ((1, 4, 3), (1, 3, 5), (2, 4, 5)),  # S's stack longer than D @ X's
    ((2, 4, 3), (3, 3, 5), (3, 4, 5)),  # D and X stacks disagree
    ((2, 4, 3), (2, 5, 5), (2, 4, 5)),  # D and X differ in K
    ((2, 4, 3), (2, 3, 5), (2, 6, 5)),  # D and S differ in M
    ((2, 4, 3), (2, 3, 4), (2, 4, 5)),  # X and S differ in width
    ((4, 3), (3, 5), (4, 5)),           # one agent's matrices
    ((4, 3), (2, 3, 5), (2, 4, 5)),     # a 2-d D shared by a stack
    ((1, 4, 3), (2, 3, 5), (2, 4, 5)),  # a stack of one that broadcasts
    ((2, 4, 3), (2, 3, 5), (4, 5)),     # a 2-d S beside stacks
])
def test_gradients_reject_a_stack_that_d_times_x_lacks(d_shape, x_shape,
                                                       s_shape):
    D, X, S = np.ones(d_shape), np.ones(x_shape), np.ones(s_shape)
    for grad in (grad_dict, grad_codes):
        with pytest.raises(ValueError, match="incompatible shapes"):
            grad(D, X, S)


def test_the_plain_solvers_take_stacks_only():
    with pytest.raises(ValueError, match="incompatible shapes"):
        x_update_plain(np.ones((3, 5)), np.ones((4, 3)), np.ones((4, 5)),
                       1.0, 0.1, 0.1, 1e-8, 10, np.ones(1))
    # one agent's matrices, a 2-d X beside stacks, stacks of two lengths
    for shapes in (((4, 3), (3, 5), (4, 3)), ((2, 4, 3), (3, 5), (2, 4, 3)),
                   ((2, 4, 3), (1, 3, 5), (2, 4, 3))):
        D, X, direction = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError, match="incompatible shapes"):
            d_update_plain(D, X, direction, 1.0, 1.0, 1e-8, 10)


def test_sigma_max_takes_a_stack_only():
    with pytest.raises(ValueError, match="stack is required"):
        sigma_max(np.ones((4, 3)))


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    D = rng.uniform(-1, 1, size=(4, 3))
    X = rng.uniform(-1, 1, size=(3, 5))
    S = rng.uniform(-1, 1, size=(4, 5))

    def fit(D_=None, X_=None):
        Dv = D if D_ is None else D_
        Xv = X if X_ is None else X_
        return 0.5 * np.sum((S - Dv @ Xv) ** 2)

    fd_D = finite_difference_gradient(lambda A: fit(D_=A), D)
    fd_X = finite_difference_gradient(lambda A: fit(X_=A), X)
    gD = grad_dict(D[None], X[None], S[None])[0]
    gX = grad_codes(D[None], X[None], S[None])[0]
    assert np.max(np.abs(gD - fd_D)) / np.max(np.abs(fd_D)) <= 1e-5
    assert np.max(np.abs(gX - fd_X)) / np.max(np.abs(fd_X)) <= 1e-5


# ---------------------------------------------------------------------------
# projection


def test_projection_rescales_the_long_column():
    D = np.array([[3.0], [4.0]])
    out = project_dictionary(D, 1.0)
    assert np.allclose(out, [[0.6], [0.8]], atol=1e-15)


def test_projection_is_identity_on_feasible_dictionaries():
    rng = np.random.default_rng(5)
    D = rng.normal(size=(4, 3))
    D = D / np.linalg.norm(D, axis=0) * 0.9
    assert np.array_equal(project_dictionary(D, 1.0), D)


def test_projection_keeps_zero_columns_and_is_idempotent():
    D = np.array([[0.0, 5.0], [0.0, 0.0]])
    once = project_dictionary(D, 1.0)
    assert np.array_equal(once[:, 0], [0.0, 0.0])
    assert np.array_equal(project_dictionary(once, 1.0), once)


def test_projection_matches_per_column_line_search_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        D = rng.uniform(-3, 3, size=(5, 4))
        got = project_dictionary(D, 1.0)
        want = np.column_stack([project_column_line_search(D[:, k], 1.0)
                                for k in range(D.shape[1])])
        assert np.max(np.abs(got - want)) <= 1e-8


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.uniform(-3, 3, size=(4, 3))
        B = rng.uniform(-3, 3, size=(4, 3))
        PA, PB = project_dictionary(A, 1.0), project_dictionary(B, 1.0)
        assert (np.linalg.norm(PA - PB, "fro")
                <= np.linalg.norm(A - B, "fro") + 1e-12)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_projection_equals_its_earlier_formula(data):
    # c = 0 is a 2-d dictionary; alpha = 5 q with q a power of two, so that
    # the columns alpha e_j and (3 q, -4 q) have norm exactly alpha; 1280
    # lies above every column norm drawn
    c = data.draw(st.integers(0, 3), label="agents")
    M, K = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                     label="M, K")
    alpha = data.draw(st.sampled_from([0.3125, 1.25, 5.0, 1280.0]),
                      label="alpha")
    scale = data.draw(st.sampled_from([0.1, 1.0, 10.0]), label="scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    D = rng.normal(scale=scale, size=((c,) if c else ()) + (M, K))
    for k, kind in enumerate(rng.integers(0, 4, size=K)):
        if kind == 0:
            continue
        D[..., k] = 0.0
        if kind == 1:
            continue
        if kind == 2 or M == 1:
            D[..., rng.integers(M), k] = alpha * rng.choice([-1.0, 1.0])
        else:
            D[..., :2, k] = [3 * alpha / 5, -4 * alpha / 5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = project_dictionary(D, alpha)
        want = project_dictionary_formula(D, alpha)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# soft threshold


def test_soft_threshold_zero_level_is_identity():
    x = np.array([-2.0, -0.3, 0.0, 0.7])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_known_values():
    assert soft_threshold(np.array([-0.5]), 1.0)[0] == 0.0
    assert soft_threshold(np.array([1.2]), 0.5)[0] == pytest.approx(
        0.7, abs=1e-15)
    assert soft_threshold(np.array([0.0]), 0.5)[0] == 0.0
    assert soft_threshold(np.array([-1.2]), 0.5)[0] == pytest.approx(
        -0.7, abs=1e-15)


@pytest.mark.parametrize("x", [1.2, np.float64(1.2), np.array(1.2)])
def test_soft_threshold_takes_an_array_only(x):
    with pytest.raises(ValueError, match="takes an array"):
        soft_threshold(x, 0.5)


def test_soft_threshold_gives_positive_zero_inside_the_band():
    x = np.array([-0.5, -0.0, 0.0, 0.25, 0.5, -0.75])
    out = soft_threshold(x, 0.5)
    assert np.array_equal(out, [0.0, 0.0, 0.0, 0.0, 0.0, -0.25])
    assert not np.any(np.signbit(out[:5]))


# ---------------------------------------------------------------------------
# the allocation-lean kernels against their earlier formulas


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernels_equal_their_earlier_formulas(data):
    # entries on a grid of quarters land exactly on the shrinkage band's
    # edges
    c = data.draw(st.integers(1, 3), label="agents")
    M, K, n = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6),
                                  st.integers(1, 7)), label="M, K, n")
    per_agent = data.draw(st.booleans(), label="per-agent tau")
    on_grid = data.draw(st.booleans(), label="entries on a grid")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def draw(*shape):
        if on_grid:
            return rng.integers(-8, 9, size=shape) / 4.0
        return rng.normal(size=shape)

    D = draw(c, M, K)
    X = draw(c, K, n)
    S = draw(c, M, n)
    if per_agent:
        tau = rng.choice([0.5, 1.0, 2.5], size=(c, 1, 1))
    else:
        tau = float(rng.choice([0.5, 1.0, 2.5]))
    lam, mu = 0.25, 0.125

    got = soft_threshold(X, lam / tau)
    assert np.array_equal(got, soft_threshold_sign(X, lam / tau))
    assert not np.any(np.signbit(got[got == 0.0])), "a negative zero"
    assert np.array_equal(grad_dict(D, X, S), grad_dict_formula(D, X, S))
    assert np.array_equal(grad_codes(D, X, S), grad_codes_formula(D, X, S))
    assert np.array_equal(x_update_linearized(X, D, S, tau, lam, mu),
                          x_update_linearized_formula(X, D, S, tau, lam, mu))


def peak_over(fn, X):
    """Peak traced memory of ``fn()``, result included, over X.nbytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / X.nbytes


def test_kernels_stay_within_their_allocation_budgets():
    # one denoise128 agent: 64 atoms, 8x8 patches, a 372-column block
    rng = np.random.default_rng(21)
    X = rng.normal(size=(1, 64, 372))
    D = rng.normal(size=(1, 64, 64))
    S = rng.normal(size=(1, 64, 372))
    tau = np.full((1, 1, 1), 3.0)
    assert peak_over(lambda: x_update_linearized(X, D, S, tau, 0.1, 0.05),
                     X) <= 3.0
    assert peak_over(lambda: grad_dict(D, X, S), X) <= 1.25
    assert peak_over(lambda: soft_threshold(X, tau), X) <= 2.0

    # one synth_plain group: 5 agents, 16 x 24 dictionaries, 40 columns;
    # the plain coding solver's buffers are fixed, so its peak does not
    # grow with the iterations it is forced to run
    X = rng.normal(size=(5, 24, 40))
    U = rng.normal(size=(5, 16, 24))
    S = rng.normal(size=(5, 16, 40))
    tau = rng.uniform(0.5, 2.0, size=(5, 1, 1))
    sig = sigma_max(U)[0]
    peaks = [peak_over(lambda: x_update_plain(X, U, S, tau, 0.1, 0.05,
                                              inner_tol=1e-300,
                                              inner_max_iter=iters,
                                              sigma=sig), X)
             for iters in (20, 200)]
    assert peaks[1] <= 9.0
    assert abs(peaks[1] - peaks[0]) <= 0.1
    # the plain dictionary solver at the same group shape, in the same loop
    D = project_dictionary(U, 1.0)
    G = rng.normal(size=D.shape)
    peaks = [peak_over(lambda: d_update_plain(D, X, G, 1.0, 1.0,
                                              inner_tol=1e-300,
                                              inner_max_iter=iters), D)
             for iters in (20, 200)]
    assert peaks[1] <= 9.5
    assert abs(peaks[1] - peaks[0]) <= 0.1


# ---------------------------------------------------------------------------
# linearized coding update


def test_x_linearized_pure_shrink_when_gradient_and_l1_vanish():
    rng = np.random.default_rng(8)
    K, n = 3, 4
    X = rng.normal(size=(1, K, n))
    U = np.zeros((1, 2, K))
    S = np.zeros((1, 2, n))
    tau, mu = 2.0, 0.25
    out = x_update_linearized(X, U, S, tau, 0.0, mu)
    assert np.allclose(out, tau / (2 * mu + tau) * X, atol=1e-15)


def test_x_linearized_matches_scalar_grid_oracle():
    rng = np.random.default_rng(9)
    tau, lam, mu = 1.7, 0.125, 0.0625
    for _ in range(25):
        x0 = rng.uniform(-2, 2)
        u = rng.uniform(0.2, 2)
        s = rng.uniform(-2, 2)
        U = np.array([[[u]]])
        S = np.array([[[s]]])
        X0 = np.array([[[x0]]])
        got = x_update_linearized(X0, U, S, tau, lam, mu)[0, 0, 0]
        g = u * (u * x0 - s)
        want = prox_scalar_grid(x0, g, tau, lam, mu)
        assert abs(got - want) <= 1e-6


def test_x_linearized_kills_entries_inside_the_threshold_band():
    tau, lam, mu = 2.0, 0.5, 0.1
    U = np.eye(2)[None]
    X0 = np.array([[[0.2, -0.1], [0.05, 0.0]]])
    S = np.zeros((1, 2, 2))
    out = x_update_linearized(X0, U, S, tau, lam, mu)
    step = X0 - grad_codes(U, X0, S) / tau
    assert np.all(out[np.abs(step) <= lam / tau] == 0.0)


def test_x_linearized_satisfies_entrywise_optimality():
    rng = np.random.default_rng(10)
    tau, lam, mu = 1.3, 0.125, 0.0625
    U = rng.normal(size=(1, 4, 3))
    S = rng.normal(size=(1, 4, 5))
    X0 = rng.normal(size=(1, 3, 5))
    out = x_update_linearized(X0, U, S, tau, lam, mu)
    G = grad_codes(U, X0, S)
    for idx in np.ndindex(out.shape):
        x = out[idx]
        resid = G[idx] + tau * (x - X0[idx]) + 2 * mu * x
        if x > 0:
            assert abs(resid + lam) <= 1e-10
        elif x < 0:
            assert abs(resid - lam) <= 1e-10
        else:
            assert abs(resid) <= lam + 1e-10


# ---------------------------------------------------------------------------
# plain coding update


def test_x_plain_reduces_to_a_linear_system_without_regularizers():
    rng = np.random.default_rng(11)
    U = rng.normal(size=(5, 3))
    S = rng.normal(size=(5, 4))
    X0 = rng.normal(size=(3, 4))
    tau = 0.8
    out, converged = lone_plain_codes(X0, U, S, tau, 0.0, 0.0, 1e-10, 2000)
    assert converged
    resid = (U.T @ U + tau * np.eye(3)) @ out - (U.T @ S + tau * X0)
    assert np.max(np.abs(resid)) <= 1e-6


def test_x_plain_zero_data_stays_zero():
    U = np.eye(3)
    out, converged = lone_plain_codes(np.zeros((3, 2)), U, np.zeros((3, 2)),
                                      1.0, 0.125, 0.0625, 1e-8, 2000)
    assert converged
    assert np.array_equal(out, np.zeros((3, 2)))


def test_x_plain_satisfies_kkt_conditions_on_a_small_instance():
    rng = np.random.default_rng(12)
    U = rng.normal(size=(2, 2))
    S = rng.normal(size=(2, 2))
    X0 = rng.normal(size=(2, 2))
    tau, lam, mu = 1.0, 0.125, 0.0625
    out, converged = lone_plain_codes(X0, U, S, tau, lam, mu, 1e-12, 2000)
    assert converged
    assert elastic_net_kkt_residual(out, U, S, tau, X0, lam, mu) <= 1e-6


def test_x_plain_rejects_a_nonconvex_subproblem():
    U = np.eye(2)
    with pytest.raises(ValueError, match="mu"):
        lone_plain_codes(np.ones((2, 2)), U, np.ones((2, 2)), 1.0, 0.125,
                         -0.0625, 1e-8, 2000)
    with pytest.raises(ValueError, match="tau"):
        lone_plain_codes(np.ones((2, 2)), U, np.ones((2, 2)), -1.0, 0.125,
                         0.0625, 1e-8, 2000)


def test_x_plain_rejects_a_subproblem_without_curvature():
    # a zero weight fails whatever mu: tau = mu = 0 (m = tau + 2 mu = 0)
    # and tau = 0 < mu (m = 2 mu) alike, with U = 0 (no step size) or
    # without, and for one agent of a stack as for a lone solve
    for mu in (0.0, 0.0625):
        for U in (np.zeros((4, 2)), np.eye(4, 2)):
            with pytest.raises(ValueError,
                               match="tau must be finite and positive"):
                lone_plain_codes(np.ones((2, 3)), U, np.ones((4, 3)), 0.0,
                                 0.125, mu, 1e-8, 2000)
        U = np.stack([np.eye(2), np.zeros((2, 2))])
        with pytest.raises(ValueError,
                           match="tau must be finite and positive"):
            x_update_plain(np.ones((2, 2, 3)), U, np.ones((2, 2, 3)),
                           np.array([0.5, 0.0])[:, None, None], 0.125, mu,
                           1e-8, 2000, sigma_max(U)[0])


# each solver on stacks of ones: codes X (c, 2, 3), U (c, 4, 2) and data S
# (c, 4, 3); the dictionary steps take U as the dictionary and direction
SOLVERS = {
    "x_update_linearized":
        lambda X, U, S, tau: x_update_linearized(X, U, S, tau, 0.1, 0.05),
    "x_update_plain":
        lambda X, U, S, tau: x_update_plain(X, U, S, tau, 0.1, 0.05, 1e-8,
                                            2000, sigma_max(U)[0]),
    "d_update_linearized":
        lambda X, U, S, tau: d_update_linearized(U, U, tau, 1.0),
    "d_update_plain":
        lambda X, U, S, tau: d_update_plain(U, X, U, tau, 1.0, 1e-8, 2000),
}


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_a_weight_not_finite_and_positive_fails_every_solver(solver):
    # a lone agent's scalar weight, and one agent's entry of a (c, 1, 1)
    # weight; the lone x_update_linearized call with inf gave all-NaN codes
    solve = SOLVERS[solver]
    for c, good in ((1, 0.5), (2, np.array([0.5, 2.0])[:, None, None])):
        X, U, S = np.ones((c, 2, 3)), np.ones((c, 4, 2)), np.ones((c, 4, 3))
        solve(X, U, S, good)
        for bad in (np.inf, -np.inf, np.nan, 0.0, -1.0):
            tau = bad if c == 1 else np.array([0.5, bad])[:, None, None]
            with pytest.raises(ValueError,
                               match="^tau must be finite and positive$"):
                solve(X, U, S, tau)


@pytest.mark.parametrize("lam, mu", [(-0.1, 0.05), (0.1, -0.5),
                                     (0.1, np.inf), (np.nan, 0.05)])
@pytest.mark.parametrize("kernel", ["x_update_linearized", "x_update_plain"])
def test_a_penalty_not_finite_and_nonnegative_fails_both_coding_kernels(
        kernel, lam, mu):
    # linearized: lam = -0.1 gave negative codes, mu = -0.5 at tau = 1 a
    # bare ZeroDivisionError; plain: mu = inf gave all-NaN codes
    X, U, S = np.ones((1, 2, 3)), np.ones((1, 4, 2)), np.ones((1, 4, 3))
    solve = {
        "x_update_linearized": lambda: x_update_linearized(X, U, S, 1.0,
                                                           lam, mu),
        "x_update_plain": lambda: x_update_plain(X, U, S, 0.5, lam, mu, 1e-8,
                                                 2000, sigma_max(U)[0]),
    }[kernel]
    with pytest.raises(ValueError,
                       match="^lam and mu must be nonnegative and finite$"):
        solve()


def test_x_plain_rejects_a_nan_weight_or_spectral_norm():
    X, U, S = np.ones((2, 2, 3)), np.stack([np.eye(2)] * 2), np.ones((2, 2, 3))
    sig = sigma_max(U)[0]
    with pytest.raises(ValueError, match="mu must be nonnegative"):
        x_update_plain(X, U, S, 0.5, 0.125, np.nan, 1e-8, 2000, sig)
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError,
                           match="sigma must be finite and nonnegative"):
            x_update_plain(X, U, S, 0.5, 0.125, 0.0625, 1e-8, 2000,
                           np.array([1.0, bad]))


def test_x_plain_momentum_is_chosen_per_agent():
    # with mu = 0 each agent's momentum constant comes from its own tau
    rng = np.random.default_rng(17)
    U = rng.normal(size=(2, 4, 3))
    S = rng.normal(size=(2, 4, 5))
    X0 = rng.normal(size=(2, 3, 5))
    taus = (0.25, 0.7)
    out, converged = x_update_plain(X0, U, S, np.array(taus)[:, None, None],
                                    0.125, 0.0, inner_tol=1e-15,
                                    inner_max_iter=6, sigma=sigma_max(U)[0])
    assert not converged.any()
    for j, tau in enumerate(taus):
        want = accelerated_coding_steps(X0[j], U[j], S[j], tau, 0.125, 0.0,
                                        iters=6)
        assert np.max(np.abs(out[j] - want)) <= 1e-12


def test_x_plain_does_not_stop_on_two_equal_iterates():
    # at the round engine's floor weight agents.EPS_TAU the 12th and 13th
    # iterates are both zero; the solution is not zero
    rng = np.random.default_rng(90)
    M, K, n = rng.integers(1, 6, size=3)
    U = rng.normal(size=(M, K))
    S = rng.normal(size=(M, n))
    X0 = rng.normal(size=(K, n))
    tau = 1e-6
    for iters in (12, 13):
        early, _ = lone_plain_codes(X0, U, S, tau, 0.125, 0.0625, 1e-300,
                                    iters)
        assert not np.any(early)
    out, converged = lone_plain_codes(X0, U, S, tau, 0.125, 0.0625, 1e-8,
                                      2000)
    assert converged
    assert np.any(out != 0.0)
    assert elastic_net_kkt_residual(out, U, S, tau, X0, 0.125, 0.0625) \
        <= 1e-6


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_x_plain_stack_meets_kkt_and_matches_lone_solves(data):
    # with mu = 0 the agents of a stack differ in m = tau + 2 mu alone;
    # U has singular values in [0.5, 2] so that those with the smallest
    # tau converge quickly too
    c = data.draw(st.integers(1, 4), label="agents")
    K = data.draw(st.integers(1, 4), label="K")
    M = data.draw(st.integers(K, 6), label="M")
    widths = data.draw(st.lists(st.integers(1, 5), min_size=c, max_size=c),
                       label="widths")
    mu = data.draw(st.sampled_from((0.0, 0.0625)), label="mu")
    taus = data.draw(st.lists(st.sampled_from((0.25, 1.0, 4.0)),
                              min_size=c, max_size=c), label="taus")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = 0.125
    n = max(widths)
    Q = np.linalg.qr(rng.normal(size=(c, M, K)))[0]
    V = np.linalg.qr(rng.normal(size=(c, K, K)))[0]
    U = (Q * rng.uniform(0.5, 2.0, size=(c, 1, K))) @ V.swapaxes(-1, -2)
    S = np.zeros((c, M, n))
    X0 = np.zeros((c, K, n))
    for j, w in enumerate(widths):
        S[j, :, :w] = rng.normal(size=(M, w))
        X0[j, :, :w] = rng.normal(size=(K, w))
    tau = np.array(taus)[:, None, None]
    kw = dict(inner_tol=1e-12, inner_max_iter=5000)
    out, converged = x_update_plain(X0, U, S, tau, lam, mu,
                                    sigma=sigma_max(U)[0], **kw)
    assert not np.any(out[:, :, n:]), "a padded code moved"
    for j, w in enumerate(widths):
        args = (X0[j, :, :w], U[j], S[j, :, :w], taus[j], lam, mu)
        lone, lone_converged = lone_plain_codes(*args, **kw)
        assert converged[j] == lone_converged
        assert np.max(np.abs(out[j, :, :w] - lone)) <= 1e-12
        assert elastic_net_kkt_residual(out[j, :, :w], U[j], S[j, :, :w],
                                        taus[j], X0[j, :, :w], lam,
                                        mu) <= 1e-6


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_x_plain_gives_the_bits_of_the_earlier_loop(data):
    # stacks of 1-4 agents; the small caps end solves at the cap while
    # others stop one by one
    c = data.draw(st.integers(1, 4), label="agents")
    K = data.draw(st.integers(1, 6), label="K")
    M = data.draw(st.integers(1, 6), label="M")
    n = data.draw(st.integers(1, 7), label="n")
    mu = data.draw(st.sampled_from((0.0, 0.0625)), label="mu")
    taus = data.draw(st.lists(st.sampled_from((0.25, 1.0, 4.0)),
                              min_size=c, max_size=c), label="taus")
    cap = data.draw(st.sampled_from((1, 2, 3, 2000)), label="cap")
    tol = data.draw(st.sampled_from((1e-12, 1e-6, 1e-2)), label="tol")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    U = rng.normal(size=(c, M, K))
    S = rng.normal(size=(c, M, n))
    X0 = rng.normal(size=(c, K, n))
    tau = np.array(taus)[:, None, None]
    kw = dict(inner_tol=tol, inner_max_iter=cap, sigma=sigma_max(U)[0])
    out, converged = x_update_plain(X0, U, S, tau, 0.125, mu, **kw)
    want, want_converged = x_update_plain_loop(X0, U, S, tau, 0.125, mu,
                                               **kw)
    assert np.array_equal(out, want)
    assert np.array_equal(converged, want_converged)


def test_x_plain_makes_one_shrink_per_iteration():
    # bench/tracer.py counts the coding solver's iterations as the
    # soft_threshold calls it looks up through distdict.core
    rng = np.random.default_rng(24)
    U = rng.normal(size=(2, 5, 4))
    S = rng.normal(size=(2, 5, 6))
    X0 = rng.normal(size=(2, 4, 6))
    for iters in (1, 12):
        with mock.patch.object(core_mod, "soft_threshold",
                               wraps=soft_threshold) as shrink:
            _, converged = x_update_plain(X0, U, S, np.ones((2, 1, 1)),
                                          0.125, 0.0625, inner_tol=1e-300,
                                          inner_max_iter=iters,
                                          sigma=sigma_max(U)[0])
        assert shrink.call_count == iters
        assert not converged.any()


def test_plain_solvers_reject_non_finite_input():
    rng = np.random.default_rng(23)
    U = rng.normal(size=(1, 16, 24))
    S = rng.normal(size=(1, 16, 40))
    X0 = rng.normal(size=(1, 24, 40))
    sig = sigma_max(U)[0]
    for bad in (np.nan, np.inf, -np.inf):
        for name in ("X0", "U", "S"):
            args = {"X0": X0.copy(), "U": U.copy(), "S": S.copy()}
            args[name][0, 3, 5] = bad
            with pytest.raises(ValueError, match="finite"):
                x_update_plain(args["X0"], args["U"], args["S"], 0.5,
                               0.125, 0.0625, 1e-8, 2000, sig)
    D0 = project_dictionary(U, 1.0)
    G = rng.normal(size=D0.shape)
    for bad in (np.nan, np.inf):
        for name in ("D0", "X", "direction"):
            args = {"D0": D0.copy(), "X": X0.copy(), "direction": G.copy()}
            args[name][0, 3, 5] = bad
            with pytest.raises(ValueError, match="finite"):
                d_update_plain(args["D0"], args["X"], args["direction"],
                               1.0, 1e3, 1e-8, 2000)
    # a stack with one bad agent fails too
    Ust = np.concatenate([U, U])
    Ust[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        x_update_plain(np.concatenate([X0, X0]), Ust, np.concatenate([S, S]),
                       np.ones((2, 1, 1)), 0.125, 0.0625, 1e-8, 2000,
                       np.concatenate([sig, sig]))


def test_x_variants_agree_when_the_prox_weights_are_matched():
    # With an orthogonal-column dictionary (U^T U = s^2 I) the exact
    # subproblem with weight t equals the linearized one with weight
    # t + s^2, for any starting point.
    rng = np.random.default_rng(13)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 4)))
    s = 1.3
    U = s * Q
    S = rng.normal(size=(6, 5))
    X0 = rng.normal(size=(4, 5))
    tau_plain, lam, mu = 0.7, 0.125, 0.0625
    exact, converged = lone_plain_codes(X0, U, S, tau_plain, lam, mu,
                                        inner_tol=1e-13,
                                        inner_max_iter=20000)
    assert converged
    linearized = x_update_linearized(X0[None], U[None], S[None],
                                     tau_plain + s ** 2, lam, mu)[0]
    assert np.max(np.abs(exact - linearized)) <= 1e-9


# ---------------------------------------------------------------------------
# dictionary updates


def test_d_linearized_fixed_point_when_gradients_cancel():
    rng = np.random.default_rng(14)
    D = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    out = d_update_linearized(D, np.zeros_like(D), 2.0, 1.0)
    assert np.allclose(out, D, atol=1e-15)


def test_d_linearized_single_column_is_a_projected_gradient_step():
    rng = np.random.default_rng(15)
    D = rng.normal(size=(4, 1))
    G = rng.normal(size=(4, 1))
    tau = 1.7
    out = d_update_linearized(D, G, tau, 1.0)
    assert np.allclose(out, project_dictionary(D - G / tau, 1.0),
                       atol=1e-15)


def test_d_linearized_matches_projected_gradient_oracle():
    rng = np.random.default_rng(16)
    D = rng.normal(size=(3, 2))
    direction = rng.normal(size=(3, 2))
    tau = 2.2
    got = d_update_linearized(D, direction, tau, 1.0)
    want = projected_gradient_quadratic(D, direction, tau, 1.0, iters=200)
    assert np.max(np.abs(got - want)) <= 1e-10


def test_dictionary_steps_take_one_weight_per_agent():
    # a (c, 1, 1) weight gives each agent the step of its lone call with
    # its own weight: the closed form bit for bit, the solve to 1e-12
    rng = np.random.default_rng(19)
    taus = (0.5, 2.2, 7.0)
    tau = np.array(taus)[:, None, None]
    D0 = rng.normal(size=(3, 4, 2))
    X = rng.normal(size=(3, 2, 5))
    G = rng.normal(size=(3, 4, 2))
    out = d_update_linearized(D0, G, tau, 1.0)
    plain, converged = d_update_plain(D0, X, G, tau, 1.0, 1e-10, 2000)
    assert converged.all()
    for j, t in enumerate(taus):
        assert np.array_equal(out[j], d_update_linearized(D0[j], G[j], t,
                                                          1.0))
        lone, _ = lone_plain_dictionary(D0[j], X[j], G[j], t, 1.0, 1e-10,
                                        2000)
        assert np.max(np.abs(plain[j] - lone)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_d_plain_matches_the_earlier_loop(data):
    # stacks of 1-3 agents, with and without an active projection (alpha =
    # 1e3 lies above every column norm drawn); the small caps end solves at
    # the cap while others stop one by one. The loop reads S and the solver
    # does not: the data cancels out of the surrogate once its linear term
    # is the direction
    c = data.draw(st.integers(1, 3), label="agents")
    K = data.draw(st.integers(1, 5), label="K")
    M = data.draw(st.integers(1, 5), label="M")
    n = data.draw(st.integers(1, 6), label="n")
    tau = data.draw(st.sampled_from((0.5, 1.0, 4.0)), label="tau")
    alpha = data.draw(st.sampled_from((1.0, 1e3)), label="alpha")
    cap = data.draw(st.sampled_from((1, 3, 2000)), label="cap")
    tol = data.draw(st.sampled_from((1e-12, 1e-6)), label="tol")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    D0 = rng.normal(size=(c, M, K))
    X = rng.normal(size=(c, K, n))
    S = rng.normal(size=(c, M, n))
    G = 0.1 * rng.normal(size=(c, M, K))
    kw = dict(inner_tol=tol, inner_max_iter=cap)
    out, converged = d_update_plain(D0, X, G, tau, alpha, **kw)
    want, want_converged = d_update_plain_loop(D0, X, S, G, tau, alpha, **kw)
    assert np.array_equal(converged, want_converged)
    assert np.max(np.abs(out - want)) <= 1e-12 * max(1.0,
                                                      np.max(np.abs(want)))


def test_d_plain_is_stationary_on_a_pure_proximal_objective():
    rng = np.random.default_rng(17)
    D = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    X = np.zeros((3, 5))
    out, converged = lone_plain_dictionary(D, X, np.zeros_like(D), 1.5, 1.0,
                                           1e-8, 2000)
    assert converged
    assert np.allclose(out, D, atol=1e-12)


def test_d_plain_solves_the_normal_equations_when_unconstrained():
    rng = np.random.default_rng(18)
    D0 = rng.normal(size=(3, 2)) * 0.1
    X = rng.normal(size=(2, 6))
    S = rng.normal(size=(3, 6))
    grad_rest = rng.normal(size=(3, 2)) * 0.1
    direction = grad_dict(D0[None], X[None], S[None])[0] + grad_rest
    tau = 1.0
    # alpha = 1e3 lies above every column norm of the iterates
    out, converged = lone_plain_dictionary(D0, X, direction, tau, 1e3,
                                           inner_tol=1e-12,
                                           inner_max_iter=20000)
    assert converged
    resid = (out @ X - S) @ X.T + tau * (out - D0) + grad_rest
    assert np.max(np.abs(resid)) <= 1e-6


def test_d_plain_first_inner_iterate_matches_the_linearized_form():
    rng = np.random.default_rng(19)
    D0 = project_dictionary(rng.normal(size=(4, 3)), 1.0)
    X = rng.normal(size=(3, 6))
    S = rng.normal(size=(4, 6))
    direction = (grad_dict(D0[None], X[None], S[None])[0]
                 + rng.normal(size=(4, 3)) * 0.1)
    tau = 0.9
    sigma_sq = sigma_max(X[None])[0][0] ** 2
    one_step, _ = lone_plain_dictionary(D0, X, direction, tau, 1.0, 1e-8, 1)
    linearized = d_update_linearized(D0, direction, sigma_sq + tau, 1.0)
    assert np.max(np.abs(one_step - linearized)) <= 1e-12


# ---------------------------------------------------------------------------
# largest singular value


def test_sigma_max_known_matrices():
    value, converged = sigma_max(np.eye(4)[None])
    assert converged and value[0] == pytest.approx(1.0, abs=1e-12)
    value, converged = sigma_max(np.diag([3.0, 1.0])[None])
    assert converged and value[0] == pytest.approx(3.0, rel=1e-10)


def test_sigma_max_matches_dense_svd():
    rng = np.random.default_rng(20)
    A = rng.normal(size=(8, 5))
    want = np.linalg.svd(A, compute_uv=False)[0]
    value, converged = sigma_max(A[None])
    assert converged
    assert abs(value[0] - want) / want <= 1e-8


@st.composite
def low_rank_matrices(draw):
    """Tall, wide and square matrices of any rank from 0 (all zeros) up to
    full, over six orders of magnitude of scale."""
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    rank = draw(st.integers(0, min(m, n)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return scale * rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices())
@example(np.zeros((1, 1)))
@example(np.zeros((3, 7)))
@example(np.zeros((7, 3)))
def test_sigma_max_equals_the_top_singular_value(A):
    value, converged = sigma_max(A[None])
    value = value[0]
    want = np.linalg.svd(A, compute_uv=False)[0]
    assert converged
    if not A.any():
        assert value == 0.0 and np.copysign(1.0, value) == 1.0
    else:
        assert abs(value - want) <= 1e-12 * want


def test_sigma_max_resolves_a_near_tied_top_pair():
    # diag(1, 1 - 1e-7) turned by random rotations on both sides; an
    # iterative solver separates these two only after ~1e7 sweeps
    rng = np.random.default_rng(22)
    left, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    right, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    A = (left[:, :2] * np.array([1.0, 1.0 - 1e-7])) @ right.T
    value, converged = sigma_max(A[None])
    value = value[0]
    assert converged
    assert abs(value - 1.0) <= 1e-12
    assert abs(value - np.linalg.svd(A, compute_uv=False)[0]) <= 1e-12
    assert abs(sigma_max(A.T[None])[0][0] - value) <= 1e-12


def rotated(rng, m, n, values):
    """An m x n matrix with the singular values ``values`` (at most
    min(m, n) of them) between random orthonormal frames."""
    r = len(values)
    left, _ = np.linalg.qr(rng.normal(size=(m, r)))
    right, _ = np.linalg.qr(rng.normal(size=(n, r)))
    return (left * values) @ right.T


@st.composite
def spectral_stacks(draw):
    """Stacks of 1 to 6 matrices of one shape, tall, wide or square up to
    16 x 16, or 64 x 64. Each matrix is zero, rank 1, full rank, an exact
    top tie (a scaled identity, or a repeated top value on a permuted
    diagonal) or a rotated near tie diag(1, 1 - g), at a scale from 1e-100
    to 1e100."""
    m, n = draw(st.one_of(st.tuples(st.integers(1, 16), st.integers(1, 16)),
                          st.just((64, 64))))
    r = min(m, n)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("zero", "rank 1", "full", "identity",
                                     "repeated top", "near tie")))
        if kind == "zero":
            A = np.zeros((m, n))
        elif kind == "rank 1":
            A = np.outer(rng.normal(size=m), rng.normal(size=n))
        elif kind == "full":
            A = rng.normal(size=(m, n))
        elif kind == "identity":
            A = np.eye(m, n)
        elif kind == "repeated top":
            values = rng.uniform(0.0, 1.0, size=r)
            values[rng.permutation(r)[:draw(st.integers(2, max(2, r)))]] = 1
            A = np.zeros((m, n))
            A[np.arange(r), np.arange(r)] = values
            A = A[rng.permutation(m)][:, rng.permutation(n)]
        else:
            g = draw(st.sampled_from((1e-3, 1e-7, 1e-12)))
            A = rotated(rng, m, n, [1.0, 1.0 - g][:r])
        mats.append(A * 10.0 ** draw(st.integers(-100, 100)))
    return np.stack(mats)


def near_tie_beside_separated():
    # the near tie needs 5 blocks, the random and diagonal ones 1 or 2
    rng = np.random.default_rng(23)
    return np.stack([rng.normal(size=(6, 4)),
                     rotated(rng, 6, 4, [1.0, 1.0 - 1e-7]),
                     np.diag([3.0, 1.0, 0.5, 0.0])[[0, 1, 2, 3, 3, 2]] * 1e3,
                     np.zeros((6, 4))])


def top_share_two_percent():
    # the top eigenvalue holds 1.44 / 64.44 of the Gram's trace; raised to
    # the power 256 that share underflows
    rng = np.random.default_rng(25)
    return rotated(rng, 64, 64, [1.2] + [1.0] * 63)[None]


@settings(max_examples=300, deadline=None)
@given(spectral_stacks())
@example(near_tie_beside_separated())
@example(top_share_two_percent())
def test_sigma_max_matches_the_eigvalsh_formula(stack):
    value, converged = sigma_max(stack)
    want = sigma_max_eigvalsh(stack)
    assert converged is True
    # a zero matrix gives +0.0 exactly, since want is 0.0 there
    assert np.all(np.abs(value - want) <= 1e-13 * want)
    assert not np.signbit(value).any()


@settings(max_examples=200, deadline=None)
@given(spectral_stacks())
@example(near_tie_beside_separated())
def test_a_stacked_sigma_max_equals_its_lone_calls(stack):
    value, _ = sigma_max(stack)
    lone = np.array([sigma_max(A[None])[0][0] for A in stack])
    assert value.tobytes() == lone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 8), st.integers(1, 8),
       st.floats(0.0, 1.0), st.sampled_from((0.5, 1.0, 4.0)),
       st.floats(0.1, 10.0), st.integers(0, 2 ** 32 - 1), st.data())
def test_a_stacked_dictionary_step_equals_its_group_calls(
        I, M, K, gamma, alpha, tau_d, seed, data):
    rng = np.random.default_rng(seed)
    D, direction = rng.normal(size=(2, I, M, K))
    cuts = sorted(data.draw(st.sets(st.integers(1, I - 1))) if I > 1 else [])
    bounds = [0, *cuts, I]
    sched = StepSchedule(tau_d=tau_d)
    whole, _ = dictionary_step(D, None, direction, gamma, sched, alpha)
    parts = [dictionary_step(D[lo:hi], None, direction[lo:hi], gamma, sched,
                             alpha)[0]
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


def test_sigma_max_squares_each_matrix_until_its_bracket_closes():
    # np.matmul runs only the squarings (the Gram product is an @); its
    # calls are counted with the size of the stack they square
    sizes = []
    matmul = np.matmul

    def counted(C, *args, **kwargs):
        sizes.append(len(C))
        return matmul(C, *args, **kwargs)

    near = rotated(np.random.default_rng(24), 2, 2, [1.0, 1.0 - 1e-7])
    with mock.patch.object(np, "matmul", counted):
        # an exact 64-fold tie closes after the last of the 12 blocks
        sigma_max(np.eye(64)[None])
        assert sizes == [1] * 48
        sizes.clear()
        # the separated matrix leaves the stack after one block of 4
        sigma_max(np.stack([np.diag([3.0, 1.0]), near]))
        assert sizes == [2] * 4 + [1] * 24


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sigma_max_rejects_nan_and_inf(bad, stacked):
    A = np.ones((4, 3))
    A[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        sigma_max(np.stack([np.ones((4, 3)), A]) if stacked else A[None])


@pytest.mark.parametrize("stacked", [False, True])
def test_sigma_max_rejects_a_finite_input_whose_gram_overflows(stacked):
    A = np.full((3, 2), 1e200)
    with pytest.raises(ValueError, match="finite"):
        sigma_max(np.stack([np.ones((3, 2)), A]) if stacked else A[None])


# ---------------------------------------------------------------------------
# block-minimization descent


def test_exact_block_minimization_never_increases_the_objective():
    rng = np.random.default_rng(21)
    problem = random_problem(rng, M=5, K=4, sizes=(4, 3), lam=0.125,
                             mu=0.0625)
    D = project_dictionary(rng.normal(size=(5, 4)), 1.0)
    X = [rng.normal(size=(4, n)) * 0.3 for n in problem.block_sizes]
    before = objective_global(D, problem.groups.stack(X), problem)

    S_all = np.hstack(problem.S_blocks)
    X_all = np.hstack(X)
    direction = grad_dict(D[None], X_all[None], S_all[None])[0]
    D_new, _ = lone_plain_dictionary(D, X_all, direction, 1.0, problem.alpha,
                                     1e-11, 2000)
    after_d = objective_global(D_new, problem.groups.stack(X), problem)
    assert after_d <= before + 1e-10

    X_new = list(X)
    X_new[0], _ = lone_plain_codes(X[0], D, problem.S_blocks[0], 1.0,
                                   problem.lam, problem.mu, 1e-11, 2000)
    after_x = objective_global(D, problem.groups.stack(X_new), problem)
    assert after_x <= before + 1e-10
