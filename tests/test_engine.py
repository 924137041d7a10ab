"""The stacked round engine against the per-agent ragged reference, and
the group layout it runs on."""

import gc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import distdict.core as core_mod
from distdict import (ProblemData, build_run_config, build_schedule,
                      diffusion_baseline, run)
from distdict.agents import VARIANTS
from distdict.network import SCHEDULE_KINDS

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
        arrays = [state.D, state.tracker, state.grad_rest, *state.X]
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
