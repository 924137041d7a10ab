"""Graph schedules, connectivity checking and mixing weights against
loop-based oracles."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distdict import (GraphSchedule, build_schedule, is_b_strongly_connected,
                      metropolis_weights, validate_weights)
from distdict.network import (DEFAULT_THETA_MIN, SCHEDULE_KINDS,
                              _strongly_connected, check_schedule)

from oracles import metropolis_scalar, strongly_connected_bfs


def schedule_from_edge_sets(n, edge_sets, window):
    """Build a schedule by hand whose phases weigh each link, self-loops
    included, by 1: the connectivity checks read only the links, and
    these weights are not stochastic."""
    phases = []
    for edges in edge_sets:
        A = np.eye(n, dtype=bool)
        for i, j in edges:
            A[i, j] = True
        phases.append(A)
    return GraphSchedule(phases, window=window)


# ---------------------------------------------------------------------------
# construction


def test_static_ring_is_the_cycle_with_self_loops():
    schedule = build_schedule("static_ring", 4)
    assert schedule.period == 1
    A = schedule.adjacency[0]
    expected = np.eye(4, dtype=bool)
    for i in range(4):
        expected[i, (i - 1) % 4] = True
    assert np.array_equal(A, expected)
    assert is_b_strongly_connected(schedule)


def test_single_agent_schedule_is_vacuously_connected():
    for kind in SCHEDULE_KINDS:
        schedule = build_schedule(kind, 1)
        assert schedule.adjacency[0].shape == (1, 1)
        assert schedule.adjacency[0][0, 0]
        assert is_b_strongly_connected(schedule)
        assert np.array_equal(schedule.weights[0], [[1.0]])


def test_ring_partition_spreads_edges_over_phases():
    schedule = build_schedule("tv_ring_partition", 6, window=3, period=3)
    assert schedule.period == 3
    # undirected ring edges come in symmetric pairs; 6 ring vertices give 6
    # undirected edges, so each of the 3 phases holds 2 of them.
    for A in schedule.adjacency:
        off_diag = A & ~np.eye(6, dtype=bool)
        assert np.array_equal(off_diag, off_diag.T)
        assert off_diag.sum() == 2 * 2
        assert not strongly_connected_bfs(A)  # each phase alone is sparse
    assert is_b_strongly_connected(schedule)


def test_schedules_are_deterministic_given_the_seed():
    a = build_schedule("static_random_geometric", 8, seed=5)
    b = build_schedule("static_random_geometric", 8, seed=5)
    c = build_schedule("static_random_geometric", 8, seed=6)
    assert np.array_equal(a.adjacency[0], b.adjacency[0])
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.adjacency[0], c.adjacency[0]) or \
        not np.array_equal(a.weights[0], c.weights[0])


def test_unknown_kind_and_bad_parameters_are_rejected():
    with pytest.raises(ValueError):
        build_schedule("no_such_kind", 4)
    with pytest.raises(ValueError):
        build_schedule("static_ring", 0)
    with pytest.raises(ValueError):
        # more phases than the window can cover cannot stay connected
        build_schedule("tv_ring_partition", 6, window=2, period=3)


@pytest.mark.parametrize("kind", [k for k in SCHEDULE_KINDS
                                  if k != "tv_ring_partition"])
def test_a_period_for_a_kind_without_phases_is_rejected(kind):
    with pytest.raises(ValueError, match="period applies to "
                       "tv_ring_partition only"):
        build_schedule(kind, 5, period=3)


def test_a_schedule_holds_phases_of_one_square_size():
    assert [f.name for f in fields(GraphSchedule)] == ["weights", "window"]
    for phases, window, message in (
            ([], 1, "at least one phase"),
            ([np.eye(2)], 0, "window must be at least 1"),
            ([np.eye(2), np.eye(3)], 1, "square and same size"),
            ([np.full((2, 3), 0.5)], 1, "square and same size"),
            ([np.ones(2)], 1, "square and same size")):
        with pytest.raises(ValueError, match=message):
            GraphSchedule(phases, window=window)


def test_the_adjacency_is_the_support_of_the_weights():
    schedule = build_schedule("tv_ring_partition", 5, window=2)
    assert len(schedule.adjacency) == schedule.period == 2
    for A, W in zip(schedule.adjacency, schedule.weights):
        assert A.dtype == bool
        assert np.array_equal(A, W != 0.0)
    with pytest.raises(AttributeError):
        schedule.adjacency = []


# ---------------------------------------------------------------------------
# connectivity checking


def test_static_connected_graph_passes_any_window():
    for window in (1, 2, 5):
        schedule = build_schedule("static_path", 5, window=window)
        assert is_b_strongly_connected(schedule)


def test_disconnected_components_never_connect():
    # two 2-cliques with no cross edges, forever
    A = np.eye(4, dtype=bool)
    A[0, 1] = A[1, 0] = True
    A[2, 3] = A[3, 2] = True
    for window in (1, 3, 10):
        schedule = GraphSchedule([A], window=window)
        assert not is_b_strongly_connected(schedule)


def test_alternating_halves_connect_only_with_a_two_round_window():
    # phase 0 carries 0<->1, phase 1 carries 1<->2; the union is the path
    # 0-1-2 but neither phase alone is strongly connected.
    edge_sets = [[(0, 1), (1, 0)], [(1, 2), (2, 1)]]
    assert is_b_strongly_connected(
        schedule_from_edge_sets(3, edge_sets, window=2))
    assert not is_b_strongly_connected(
        schedule_from_edge_sets(3, edge_sets, window=1))


def test_check_schedule_rejects_a_broken_window_and_bad_weights():
    # the 2-phase schedule above: connected only over windows of two
    edge_sets = [[(0, 1), (1, 0)], [(1, 2), (2, 1)]]
    with pytest.raises(ValueError, match="3 agents is not strongly "
                                         "connected over windows of 1"):
        check_schedule(schedule_from_edge_sets(3, edge_sets, window=1))
    # rows of unit weights on two links sum to 2
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        check_schedule(schedule_from_edge_sets(3, edge_sets, window=2))
    ring = build_schedule("tv_ring_partition", 4, window=2)
    skewed = [W.copy() for W in ring.weights]
    skewed[1][0, 0] += 1e-6
    with pytest.raises(ValueError, match="phase 1 weights fail validation"):
        check_schedule(GraphSchedule(skewed, window=2))
    check_schedule(ring)


def test_connectivity_checker_agrees_with_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A = rng.random((n, n)) < 0.3
        A |= np.eye(n, dtype=bool)
        schedule = GraphSchedule([A], window=1)
        assert is_b_strongly_connected(schedule) == \
            strongly_connected_bfs(A)


def closure_is_full(A):
    """Strong connectivity from the transitive closure of A | I, found by
    squaring the boolean reachability matrix until it stops growing."""
    R = A | np.eye(A.shape[0], dtype=bool)
    while True:
        grown = (R.astype(np.int64) @ R.astype(np.int64)) > 0
        if np.array_equal(grown, R):
            return bool(R.all())
        R = grown


@st.composite
def directed_graphs(draw):
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0.0, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (rng.random((n, n)) < density) | np.eye(n, dtype=bool)


@settings(max_examples=300, deadline=None)
@given(directed_graphs())
@example(np.ones((1, 1), dtype=bool))
# two components, {0, 1} and {2, 3}
@example(np.kron(np.eye(2, dtype=bool), np.ones((2, 2), dtype=bool)))
# the one-way path 0 -> 1 -> 2 and its reverse
@example(np.eye(3, dtype=bool) | np.eye(3, k=-1, dtype=bool))
@example(np.eye(3, dtype=bool) | np.eye(3, k=1, dtype=bool))
def test_strong_connectivity_agrees_with_the_transitive_closure(A):
    assert _strongly_connected(A) == closure_is_full(A)


# ---------------------------------------------------------------------------
# Metropolis weights


def test_metropolis_two_nodes_average_equally():
    A = np.ones((2, 2), dtype=bool)
    assert np.allclose(metropolis_weights(A), [[0.5, 0.5], [0.5, 0.5]],
                       atol=1e-15)


def test_metropolis_three_node_path_matches_hand_computation():
    A = np.eye(3, dtype=bool)
    A[0, 1] = A[1, 0] = True
    A[1, 2] = A[2, 1] = True
    W = metropolis_weights(A)
    third = 1.0 / 3.0
    expected = np.array([[2 * third, third, 0.0],
                         [third, third, third],
                         [0.0, third, 2 * third]])
    assert np.allclose(W, expected, atol=1e-15)
    assert np.allclose(W.sum(axis=0), 1.0, atol=1e-15)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-15)


def test_metropolis_isolated_node_keeps_all_its_mass():
    A = np.eye(3, dtype=bool)
    A[0, 1] = A[1, 0] = True
    W = metropolis_weights(A)
    assert W[2, 2] == 1.0


def test_metropolis_rejects_asymmetric_graphs():
    A = np.eye(2, dtype=bool)
    A[0, 1] = True
    with pytest.raises(ValueError):
        metropolis_weights(A)


def test_metropolis_matches_scalar_oracle_on_random_graphs():
    rng = np.random.default_rng(24)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        A = upper | upper.T | np.eye(n, dtype=bool)
        assert np.allclose(metropolis_weights(A), metropolis_scalar(A),
                           atol=1e-15)


# ---------------------------------------------------------------------------
# weight validation


def test_validate_accepts_metropolis_output():
    A = np.eye(4, dtype=bool)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        A[i, j] = A[j, i] = True
    assert validate_weights(metropolis_weights(A))


def test_validate_rejects_row_stochastic_only():
    A = np.ones((2, 2), dtype=bool)
    W = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert not validate_weights(W)


def test_validate_rejects_a_single_perturbed_entry():
    A = np.eye(3, dtype=bool)
    A[0, 1] = A[1, 0] = True
    A[1, 2] = A[2, 1] = True
    W = metropolis_weights(A)
    W = W.copy()
    W[0, 1] += 1e-6
    assert not validate_weights(W)


def test_validate_rejects_nonzero_entries_below_the_floor():
    assert DEFAULT_THETA_MIN > 1e-3
    # a link of weight 1e-3 added to the path 0-1-2, between its ends
    B = np.eye(3, dtype=bool)
    B[0, 1] = B[1, 0] = True
    B[1, 2] = B[2, 1] = True
    faint_link = metropolis_weights(B)
    faint_link[0, 2] = faint_link[2, 0] = 1e-3
    faint_link[0, 0] -= 1e-3
    faint_link[2, 2] -= 1e-3
    assert not validate_weights(faint_link)
    tiny = np.array([[1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3]])
    assert not validate_weights(tiny)
    # a negative entry is below the floor too
    assert not validate_weights([[1.5, -0.5], [-0.5, 1.5]])


def test_validate_rejects_a_permutation_without_self_loops():
    # doubly stochastic, every entry 0 or 1, but no agent keeps its own
    # copy; the check before a run rejects a schedule made of it
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert not validate_weights(swap)
    assert validate_weights(0.5 * (np.eye(2) + swap))
    schedule = GraphSchedule([swap], window=1)
    assert is_b_strongly_connected(schedule)
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        check_schedule(schedule)


def test_validate_rejects_mass_moved_within_a_row():
    # 1e-9 moved from W[1, 2] to W[1, 0]: every row still sums to 1, and
    # only the sums of columns 0 and 2 are off
    W = build_schedule("static_path", 3).weights[0]
    assert validate_weights(W)
    W = W.copy()
    W[1, 0] += 1e-9
    W[1, 2] -= 1e-9
    assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-15
    off = np.abs(W.sum(axis=0) - 1.0)
    assert off[1] <= 1e-15 and min(off[0], off[2]) > 9e-10
    assert not validate_weights(W)


@pytest.mark.parametrize("W", [np.ones(2), np.full((2, 3), 1.0 / 3.0),
                               np.ones((1, 1, 1))],
                         ids=["vector", "wide", "3-d"])
def test_validate_rejects_a_matrix_that_is_not_square(W):
    assert not validate_weights(W)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
def test_a_non_finite_weight_fails_validation(entry, value):
    path = build_schedule("static_path", 3)
    W = path.weights[0].copy()
    W[entry] = value
    assert not validate_weights(W)
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        check_schedule(GraphSchedule([W], window=path.window))


# ---------------------------------------------------------------------------
# mixing behaviour


def test_powers_of_connected_metropolis_weights_reach_the_average():
    rng = np.random.default_rng(25)
    for n in (3, 5, 7):
        # random connected undirected graph: start from a path, add extras
        A = np.eye(n, dtype=bool)
        for i in range(n - 1):
            A[i, i + 1] = A[i + 1, i] = True
        extra = np.triu(rng.random((n, n)) < 0.3, k=1)
        A |= extra | extra.T
        W = metropolis_weights(A)
        P = np.linalg.matrix_power(W, 100)
        assert np.max(np.abs(P - np.ones((n, n)) / n)) <= 1e-8


def test_every_shipped_schedule_validates_its_weights():
    cases = []
    for n in (2, 3, 5, 8):
        cases.append(build_schedule("static_path", n))
        cases.append(build_schedule("static_ring", n))
        cases.append(build_schedule("static_random_geometric", n, seed=n))
    for n, window in ((4, 2), (6, 3), (8, 4)):
        cases.append(build_schedule("tv_ring_partition", n, window=window,
                                    period=window))
    for schedule in cases:
        assert is_b_strongly_connected(schedule)
        for W in schedule.weights:
            assert validate_weights(W)
