"""Graph schedules, connectivity checking and mixing weights against
loop-based oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distdict import (GraphSchedule, build_schedule, is_b_strongly_connected,
                      metropolis_weights, validate_weights)
from distdict.network import (SCHEDULE_KINDS, _strongly_connected,
                              check_schedule)

from oracles import metropolis_scalar, strongly_connected_bfs


def schedule_from_edge_sets(n, edge_sets, window):
    """Build a schedule by hand (identity weights keep validation happy for
    connectivity-only checks; weights are not exercised)."""
    phases = []
    for edges in edge_sets:
        A = np.eye(n, dtype=bool)
        for i, j in edges:
            A[i, j] = True
        phases.append(A)
    return GraphSchedule(adjacency=phases,
                         weights=[np.eye(n) for _ in phases],
                         window=window)


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
    assert is_b_strongly_connected(schedule, window=3)


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


# ---------------------------------------------------------------------------
# connectivity checking


def test_static_connected_graph_passes_any_window():
    schedule = build_schedule("static_path", 5)
    for window in (1, 2, 5):
        assert is_b_strongly_connected(schedule, window=window)


def test_disconnected_components_never_connect():
    # two 2-cliques with no cross edges, forever
    A = np.eye(4, dtype=bool)
    A[0, 1] = A[1, 0] = True
    A[2, 3] = A[3, 2] = True
    schedule = GraphSchedule(adjacency=[A], weights=[np.eye(4)], window=1)
    for window in (1, 3, 10):
        assert not is_b_strongly_connected(schedule, window=window)


def test_alternating_halves_connect_only_with_a_two_round_window():
    # phase 0 carries 0<->1, phase 1 carries 1<->2; the union is the path
    # 0-1-2 but neither phase alone is strongly connected.
    edge_sets = [[(0, 1), (1, 0)], [(1, 2), (2, 1)]]
    schedule = schedule_from_edge_sets(3, edge_sets, window=2)
    assert is_b_strongly_connected(schedule, window=2)
    assert not is_b_strongly_connected(schedule, window=1)


def test_check_schedule_rejects_a_broken_window_and_bad_weights():
    # the 2-phase schedule above: connected only over windows of two
    edge_sets = [[(0, 1), (1, 0)], [(1, 2), (2, 1)]]
    with pytest.raises(ValueError, match="3 agents is not strongly "
                                         "connected over windows of 1"):
        check_schedule(schedule_from_edge_sets(3, edge_sets, window=1))
    # identity weights miss the off-diagonal edges of the adjacency
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        check_schedule(schedule_from_edge_sets(3, edge_sets, window=2))
    ring = build_schedule("tv_ring_partition", 4, window=2)
    skewed = [W.copy() for W in ring.weights]
    skewed[1][0, 0] += 1e-6
    with pytest.raises(ValueError, match="phase 1 weights fail validation"):
        check_schedule(GraphSchedule(adjacency=ring.adjacency,
                                     weights=skewed, window=2))
    check_schedule(ring)


def test_connectivity_checker_agrees_with_bfs_oracle_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        A = rng.random((n, n)) < 0.3
        A |= np.eye(n, dtype=bool)
        schedule = GraphSchedule(adjacency=[A], weights=[np.eye(n)],
                                 window=1)
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
    assert validate_weights(metropolis_weights(A), A)


def test_validate_rejects_row_stochastic_only():
    A = np.ones((2, 2), dtype=bool)
    W = np.array([[1.0, 0.0], [0.5, 0.5]])
    assert not validate_weights(W, A)


def test_validate_rejects_a_single_perturbed_entry():
    A = np.eye(3, dtype=bool)
    A[0, 1] = A[1, 0] = True
    A[1, 2] = A[2, 1] = True
    W = metropolis_weights(A)
    W = W.copy()
    W[0, 1] += 1e-6
    assert not validate_weights(W, A)


def test_validate_rejects_pattern_mismatch_and_small_entries():
    A = np.eye(2, dtype=bool)
    A[0, 1] = A[1, 0] = True
    # pattern mismatch: an entry where the graph has no edge
    B = np.eye(3, dtype=bool)
    B[0, 1] = B[1, 0] = True
    B[1, 2] = B[2, 1] = True
    W = metropolis_weights(B)
    bad_pattern = W.copy()
    bad_pattern[0, 2] = bad_pattern[2, 0] = 1e-3
    bad_pattern[0, 0] -= 1e-3
    bad_pattern[2, 2] -= 1e-3
    assert not validate_weights(bad_pattern, B)
    # nonzero below the floor
    tiny = np.array([[1 - 1e-3, 1e-3], [1e-3, 1 - 1e-3]])
    assert not validate_weights(tiny, A, theta_min=0.01)
    assert validate_weights(tiny, A, theta_min=1e-4)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
def test_a_non_finite_weight_fails_validation(entry, value):
    # NaN passes the pattern, theta_min and row-sum comparisons on its own
    path = build_schedule("static_path", 3)
    W = path.weights[0].copy()
    W[entry] = value
    assert not validate_weights(W, path.adjacency[0])
    with pytest.raises(ValueError, match="phase 0 weights fail validation"):
        check_schedule(GraphSchedule(adjacency=path.adjacency, weights=[W],
                                     window=path.window))


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
        for A, W in zip(schedule.adjacency, schedule.weights):
            assert validate_weights(W, A)
