"""The stacked round engine against the per-agent ragged reference and
``check_round``, and the group layout it runs on."""

import gc
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distdict.agents as agents_mod
import distdict.core as core_mod
from distdict import (ProblemData, build_run_config, build_schedule,
                      check_round, consensus_error, diffusion_baseline,
                      gamma_sequence, mean_dictionary, objective_global, run,
                      stationarity_gap)
from distdict.agents import VARIANTS
from distdict.network import SCHEDULE_KINDS
from distdict.protocol import RoundState, _tracked_round

from oracles import ragged_diffusion, ragged_run

# each round policy of the engine, with its per-agent reference
POLICIES = {"tracked": (run, ragged_run),
            "diffusion": (diffusion_baseline, ragged_diffusion)}


def make_problem(rng, sizes, M, K):
    blocks = [rng.uniform(-1, 1, size=(M, n)) for n in sizes]
    return ProblemData(S_blocks=blocks, K=K, lam=0.125, mu=0.0625, alpha=1.0)


def assert_engine_matches_reference(problem, config, schedule,
                                    policy="tracked"):
    engine, reference = POLICIES[policy]
    want = {}
    reference(problem, config, schedule,
              lambda nu, agents, flags: want.setdefault(nu, (
                  [(a.D.copy(), a.X.copy(), a.tracker.copy())
                   for a in agents], flags)))
    got = {}

    def watch(state):
        if policy == "tracked":
            check_round(problem, state)
        for sl, X in zip(problem.groups.slices, state.X):
            for j, n in enumerate(problem.block_sizes[sl]):
                assert not np.any(X[j, :, n:]), "a padded code moved"
        got[state.nu] = [(a.D, a.X, a.tracker) for a in state.agents]

    trace = engine(problem, config, schedule, watch)
    # a gap of exactly zero ends the run early
    assert sorted(got) == list(range(1, trace.nu[-1] + 1))
    for nu, rows in got.items():
        ref_rows, ref_flags = want[nu]
        assert trace.flags[nu] == ref_flags
        for ours, ref in zip(rows, ref_rows):
            for a, b in zip(ours, ref):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_the_ragged_reference(data):
    I = data.draw(st.integers(1, 6), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=I, max_size=I),
                      label="block widths")
    M, K = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                     label="M, K")
    per_group = data.draw(st.integers(1, I), label="agents per group")
    kind = data.draw(st.sampled_from(SCHEDULE_KINDS), label="schedule")
    mapping = {"agents": I, "graph": kind, "window": 2, "max_rounds": 4,
               "metric_stride": 1,
               "variant": data.draw(st.sampled_from(VARIANTS)),
               "d_mode": data.draw(st.sampled_from(VARIANTS)),
               "inner_max_iter": data.draw(st.sampled_from((3, 2000)),
                                           label="inner cap"),
               "seed": data.draw(st.integers(0, 1000), label="seed")}
    budget = per_group * max(M, K) * max(sizes)
    with mock.patch.object(core_mod, "BUDGET", budget):
        problem = make_problem(np.random.default_rng(mapping["seed"]), sizes,
                               M, K)
    assert problem.groups.slices[0] == slice(0, per_group)
    config = build_run_config(mapping)
    schedule = build_schedule(kind, I, window=2, seed=mapping["seed"])
    assert_engine_matches_reference(
        problem, config, schedule,
        data.draw(st.sampled_from(sorted(POLICIES)), label="round policy"))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_plain_solve_stops_at_the_tolerance_of_its_round(data):
    # both plain solvers under both drivers; the diffusion round has no
    # dictionary solve
    I = data.draw(st.integers(1, 4), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=I, max_size=I),
                      label="block widths")
    M, K = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                     label="M, K")
    gamma0 = data.draw(st.sampled_from((0.05, 0.5, 1.0)), label="gamma0")
    mapping = {"agents": I, "graph": "static_ring", "max_rounds": 6,
               "variant": "plain", "d_mode": "plain", "gamma0": gamma0,
               "eps_gamma": data.draw(st.sampled_from((0.1, 0.9))),
               "inner_tol": data.draw(st.sampled_from((1e-8, 1e-4))),
               "seed": data.draw(st.integers(0, 1000), label="seed")}
    policy = data.draw(st.sampled_from(sorted(POLICIES)), label="policy")
    problem = make_problem(np.random.default_rng(mapping["seed"]), sizes,
                           M, K)
    config = build_run_config(mapping)
    sched = config.steps
    gammas = gamma_sequence(config.max_rounds, sched.gamma0, sched.eps_gamma)
    nu = [0]    # the round under way; the observer moves it on
    solves = []

    def recorded(name):
        solve = getattr(agents_mod, name)
        signature = inspect.signature(solve)

        def wrapper(*args, **kwargs):
            out = solve(*args, **kwargs)
            tol = signature.bind(*args, **kwargs).arguments["inner_tol"]
            solves.append((name, nu[0], tol, bool(np.all(out[1]))))
            return out
        return wrapper

    with mock.patch.object(agents_mod, "x_update_plain",
                           recorded("x_update_plain")), \
            mock.patch.object(agents_mod, "d_update_plain",
                              recorded("d_update_plain")):
        trace = POLICIES[policy][0](
            problem, config, build_schedule("static_ring", I),
            lambda state: nu.__setitem__(0, state.nu))
    names = {"x_update_plain"} | ({"d_update_plain"}
                                  if policy == "tracked" else set())
    per_round = len(names) * len(problem.groups.slices)
    # a gap of exactly zero ends the run early
    assert len(solves) == per_round * trace.nu[-1]
    assert {name for name, *_ in solves} == names
    for name, round_, tol, converged in solves:
        assert tol == sched.inner_tol_at(gammas[round_]), (name, round_)
        assert converged, (name, round_)


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("d_mode", VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_relabelling_the_features_permutes_every_round(variant, d_mode,
                                                        kind, data):
    # permuting the rows of every S_i by one pi permutes the rows of D and
    # the tracker in every round and leaves the codes and the
    # objective, gap and consensus error as they were, up to rounding;
    # uniform data has no zero column, which would take init_agents'
    # random fallback
    I = data.draw(st.integers(1, 4), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=I, max_size=I),
                      label="block widths")
    M, K = data.draw(st.tuples(st.integers(2, 5), st.integers(1, 4)),
                     label="M, K")
    per_group = data.draw(st.integers(1, I), label="agents per group")
    pi = data.draw(st.permutations(range(M)), label="pi")
    seed = data.draw(st.integers(0, 1000), label="seed")
    with mock.patch.object(core_mod, "BUDGET",
                           per_group * max(M, K) * max(sizes)):
        problem = make_problem(np.random.default_rng(seed), sizes, M, K)
        relabelled = ProblemData(S_blocks=[S[pi] for S in problem.S_blocks],
                                 K=K, lam=problem.lam, mu=problem.mu,
                                 alpha=problem.alpha)
    # one record, after the last round, so that no zero gap ends a run early
    config = build_run_config({"agents": I, "graph": kind, "window": 2,
                               "max_rounds": 15, "metric_stride": 15,
                               "variant": variant, "d_mode": d_mode,
                               "seed": seed, "graph_seed": seed})
    rounds = []
    for instance in (problem, relabelled):
        seen = []

        def watch(state, instance=instance, seen=seen):
            D_bar = mean_dictionary(state.D)
            seen.append((state.D, state.tracker, state.X,
                         objective_global(D_bar, state.X, instance),
                         stationarity_gap(D_bar, state.X, instance),
                         consensus_error(state.D, D_bar)))

        run(instance, config, observer=watch)
        rounds.append(seen)
    assert len(rounds[0]) == len(rounds[1]) == 15
    for ours, theirs in zip(*rounds):
        for A, B in zip(ours[:2], theirs[:2]):
            assert np.max(np.abs(A[:, pi] - B)) <= 1e-12
        for X, Y in zip(ours[2], theirs[2]):
            assert np.max(np.abs(X - Y)) <= 1e-12
        assert ours[3:] == pytest.approx(theirs[3:], rel=1e-12, abs=1e-12)


def assert_one_round_permutes_the_agents(sizes, per_group, perm, W, seed,
                                         variant, d_mode):
    # blocks, state stacks and gradients permuted by P, W -> P W P^T: one
    # tracked round gives the permuted state, whatever groups and padding
    # the two labellings make
    rng = np.random.default_rng(seed)
    I, M, K = len(sizes), 4, 3
    with mock.patch.object(core_mod, "BUDGET", per_group * M * max(sizes)):
        problem = make_problem(rng, sizes, M, K)
        relabelled = ProblemData(
            S_blocks=[problem.S_blocks[i] for i in perm], K=K,
            lam=problem.lam, mu=problem.mu, alpha=problem.alpha)
    D = core_mod.project_dictionary(rng.normal(size=(I, M, K)), 1.0)
    codes = [rng.normal(size=(K, n)) for n in sizes]
    tracker, grads = rng.normal(size=(2, I, M, K))
    sched = build_run_config({"agents": I, "variant": variant,
                              "d_mode": d_mode}).steps
    outs = []
    for instance, p, weights in ((problem, list(range(I)), W),
                                 (relabelled, perm, W[np.ix_(perm, perm)])):
        state = RoundState(instance.groups, D[p],
                           instance.groups.stack([codes[i] for i in p]),
                           tracker[p])
        grads_new, flags = _tracked_round(instance, state, weights, 0.5,
                                          sched, grads[p])
        outs.append((state.D, state.tracker, grads_new,
                     instance.groups.unstack(state.X), flags))
    ours, theirs = outs
    for A, B in zip(ours[:3], theirs[:3]):
        assert np.max(np.abs(A[perm] - B)) <= 1e-12
    for i, Y in zip(perm, theirs[3]):
        assert np.max(np.abs(ours[3][i] - Y)) <= 1e-12
    assert ours[4] == theirs[4]


@pytest.mark.parametrize("d_mode", VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_relabelling_the_agents_permutes_one_round(variant, d_mode, data):
    I = data.draw(st.integers(1, 5), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=I, max_size=I),
                      label="block widths")
    seed = data.draw(st.integers(0, 1000), label="seed")
    kind = data.draw(st.sampled_from(SCHEDULE_KINDS), label="schedule")
    W = build_schedule(kind, I, window=2, seed=seed).weights_at(0)
    assert_one_round_permutes_the_agents(
        sizes, data.draw(st.integers(1, I), label="agents per group"),
        data.draw(st.permutations(range(I)), label="P"), W, seed, variant,
        d_mode)


@pytest.mark.parametrize("d_mode", VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_relabelling_the_agents_regroups_and_repads(variant, d_mode):
    # two agents per group: (1, 5 | 2, 3) pads to widths 5 and 3, the
    # relabelled (3, 1 | 5, 2) to 3 and 5
    sizes, perm = (1, 5, 2, 3), [3, 0, 1, 2]
    W = build_schedule("static_path", 4).weights_at(0)
    assert_one_round_permutes_the_agents(sizes, 2, perm, W, 84, variant,
                                         d_mode)


@pytest.mark.parametrize("d_mode", VARIANTS)
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_relabelling_one_blocks_columns_permutes_only_its_codes(
        variant, d_mode, data):
    # the columns of one block S_a and of its codes permuted by P: one
    # tracked round gives the same D, tracker, gradients and flags, agent
    # a's new codes column-permuted and every other agent's codes as they
    # were, though the plain solvers step a group in lockstep
    I = data.draw(st.integers(1, 5), label="agents")
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=I, max_size=I),
                      label="block widths")
    per_group = data.draw(st.integers(1, I), label="agents per group")
    a = data.draw(st.integers(0, I - 1), label="relabelled agent")
    P = data.draw(st.permutations(range(sizes[a])), label="P")
    seed = data.draw(st.integers(0, 1000), label="seed")
    kind = data.draw(st.sampled_from(SCHEDULE_KINDS), label="schedule")
    rng = np.random.default_rng(seed)
    M, K = 4, 3
    with mock.patch.object(core_mod, "BUDGET", per_group * M * max(sizes)):
        problem = make_problem(rng, sizes, M, K)
        blocks = list(problem.S_blocks)
        blocks[a] = blocks[a][:, P]
        relabelled = ProblemData(S_blocks=blocks, K=K, lam=problem.lam,
                                 mu=problem.mu, alpha=problem.alpha)
    D = core_mod.project_dictionary(rng.normal(size=(I, M, K)), 1.0)
    codes = [rng.normal(size=(K, n)) for n in sizes]
    tracker, grads = rng.normal(size=(2, I, M, K))
    W = build_schedule(kind, I, window=2, seed=seed).weights_at(0)
    sched = build_run_config({"agents": I, "variant": variant,
                              "d_mode": d_mode}).steps
    outs = []
    for instance, X_a in ((problem, codes[a]), (relabelled, codes[a][:, P])):
        X = codes[:a] + [X_a] + codes[a + 1:]
        state = RoundState(instance.groups, D.copy(), instance.groups.stack(X),
                           tracker.copy())
        grads_new, flags = _tracked_round(instance, state, W, 0.5, sched,
                                          grads.copy())
        outs.append(((state.D, state.tracker, grads_new),
                     instance.groups.unstack(state.X), flags))
    (ours, our_codes, our_flags), (theirs, their_codes, their_flags) = outs
    for A, B in zip(ours, theirs):
        assert np.max(np.abs(A - B)) <= 1e-12
    assert our_flags == their_flags
    for i, (X, Y) in enumerate(zip(our_codes, their_codes)):
        if i == a:
            assert np.max(np.abs(X[:, P] - Y)) <= 1e-12
        else:
            assert np.array_equal(X, Y), f"agent {i}'s codes moved"


def test_wide_single_agent_group_beside_a_multi_agent_group():
    # 4 x 2048 entries fill half the budget: two agents per group, so the
    # two narrow blocks share a padded stack and the wide one stands alone
    rng = np.random.default_rng(80)
    problem = make_problem(rng, (3, 2, 2048), M=4, K=4)
    assert problem.groups.slices == (slice(0, 2), slice(2, 3))
    assert problem.S_groups[0].shape == (2, 4, 3)
    for variant in VARIANTS:
        for d_mode in VARIANTS:
            config = build_run_config({"agents": 3, "graph": "static_path",
                                       "max_rounds": 3, "metric_stride": 1,
                                       "variant": variant, "d_mode": d_mode})
            assert_engine_matches_reference(
                problem, config, build_schedule("static_path", 3))


def test_single_agent_group_shares_the_callers_block():
    rng = np.random.default_rng(81)
    blocks = [rng.normal(size=(4, 3)), rng.normal(size=(4, 4096))]
    problem = ProblemData(S_blocks=blocks, K=4, lam=0.125, mu=0.0625,
                          alpha=1.0)
    assert problem.groups.slices == (slice(0, 1), slice(1, 2))
    for block, stack in zip(blocks, problem.S_groups):
        assert stack.shape == (1,) + block.shape
        assert np.shares_memory(stack, block)


def test_multi_agent_group_is_zero_padded():
    rng = np.random.default_rng(82)
    blocks = [rng.normal(size=(3, n)) for n in (2, 5, 1)]
    problem = ProblemData(S_blocks=blocks, K=2, lam=0.125, mu=0.0625,
                          alpha=1.0)
    assert problem.groups.slices == (slice(0, 3),)
    stack = problem.S_groups[0]
    assert stack.shape == (3, 3, 5)
    for j, block in enumerate(blocks):
        n = block.shape[1]
        assert np.array_equal(stack[j, :, :n], block)
        assert not np.shares_memory(stack, block)
        assert np.all(stack[j, :, n:] == 0.0)
    for view, block in zip(problem.groups.unstack(problem.S_groups), blocks):
        assert np.array_equal(view, block)


def test_arrays_an_observer_kept_are_never_written_again():
    rng = np.random.default_rng(83)
    problem = make_problem(rng, (3, 1, 4), M=3, K=2)
    config = build_run_config({"agents": 3, "graph": "static_ring",
                               "max_rounds": 5, "variant": "plain",
                               "d_mode": "plain"})
    kept = []

    def keep(state):
        arrays = [state.D, state.tracker, *state.X]
        arrays += [a.X for a in state.agents]
        kept.append([(A, A.copy()) for A in arrays])

    run(problem, config, observer=keep)
    assert len(kept) == 5
    for arrays in kept:
        for A, copy in arrays:
            assert np.array_equal(A, copy)


def test_runs_leave_no_reference_cycles():
    # the stacks of a finished run are freed by reference counting alone,
    # so repeated runs in one process do not pile up memory between
    # collections
    rng = np.random.default_rng(84)
    problem = make_problem(rng, (3, 2, 5), M=4, K=3)
    config = build_run_config({"agents": 3, "max_rounds": 5,
                               "variant": "plain", "d_mode": "plain"})
    gc.collect()
    gc.disable()
    try:
        run(problem, config, observer=lambda state: state.agents)
        diffusion_baseline(problem, config, observer=lambda state: None)
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
