"""Tests for the multilevel hypergraph partitioner."""

import numpy as np
import pytest

from hypergraph_reference import from_pins, table_gain
from repro.hypergraph import (
    COUNTERS,
    BalanceConstraint,
    RefinementState,
    coarsen,
    coarsen_once,
    contract,
    fm_refine,
    partition_hypergraph,
    rebalance,
)


def simple_graph():
    """Two triangles joined by a light edge."""
    weights = np.ones((6, 2), dtype=np.int64)
    pins = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3]]
    edge_weights = [5, 5, 5, 5, 5, 5, 1]
    return from_pins(weights, pins, edge_weights)


class TestHypergraph:
    def test_basic_properties(self):
        g = simple_graph()
        assert g.num_vertices == 6
        assert g.num_edges == 7
        assert g.total_weight.tolist() == [6, 6]

    def test_connectivity_cost(self):
        g = simple_graph()
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert g.connectivity_cost(labels, 2) == 1
        labels = np.array([0, 0, 1, 1, 1, 1])
        assert g.connectivity_cost(labels, 2) == 10  # edges {1,2} and {0,2}

    def test_part_weights(self):
        g = simple_graph()
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert g.part_weights(labels, 2).tolist() == [[3, 3], [3, 3]]

    def test_pin_validation(self):
        with pytest.raises(ValueError):
            from_pins(np.ones((2, 2)), [[0, 5]], [1])

    def test_edge_weight_mismatch(self):
        with pytest.raises(ValueError):
            from_pins(np.ones((2, 2)), [[0, 1]], [1, 2])

    def test_pins_deduplicated(self):
        g = from_pins(np.ones((3, 2)), [[0, 0, 1]], [1])
        assert g.pin_lists()[0] == [0, 1]


class TestBalanceConstraint:
    def test_caps(self):
        g = simple_graph()
        caps = BalanceConstraint((0.0, 0.0)).caps(g, 2)
        assert caps.tolist() == [3, 3]

    def test_caps_relaxed_to_heaviest_vertex(self):
        weights = np.array([[10, 0], [1, 0], [1, 0]], dtype=np.int64)
        g = from_pins(weights, [[0, 1]], [1])
        caps = BalanceConstraint((0.0, 0.0)).caps(g, 3)
        assert caps[0] == 10

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            BalanceConstraint((0.1,)).caps(simple_graph(), 2)


class TestContract:
    def test_weights_conserved(self):
        g = simple_graph()
        mapping = np.array([0, 0, 0, 1, 1, 1])
        coarse = contract(g, mapping, 2)
        assert coarse.weights.sum() == g.weights.sum()

    def test_internal_edges_dropped(self):
        g = simple_graph()
        mapping = np.array([0, 0, 0, 1, 1, 1])
        coarse = contract(g, mapping, 2)
        assert coarse.num_edges == 1
        assert coarse.edge_weights.tolist() == [1]

    def test_duplicate_edges_merged(self):
        g = from_pins(np.ones((4, 2)), [[0, 2], [1, 3]], [3, 4])
        coarse = contract(g, np.array([0, 0, 1, 1]), 2)
        assert coarse.num_edges == 1
        assert coarse.edge_weights.tolist() == [7]


class TestCoarsen:
    def test_coarsen_once_shrinks(self):
        g = simple_graph()
        rng = np.random.default_rng(0)
        result = coarsen_once(g, np.array([3, 3]), rng)
        assert result is not None
        coarse, mapping = result
        assert coarse.num_vertices < g.num_vertices
        assert mapping.max() == coarse.num_vertices - 1

    def test_hierarchy_respects_min_vertices(self):
        # k = 2 stops contracting at max(60, 12 * k) = 60 vertices.
        rng = np.random.default_rng(0)
        n = 200
        pins = [[i, i + 1] for i in range(n - 1)]
        g = from_pins(np.ones((n, 2)), pins, [1] * (n - 1))
        levels = coarsen(g, 2, rng)
        assert levels
        assert 30 <= levels[-1][0].num_vertices <= 60


class TestRefinement:
    def test_gain_matches_recomputed_cost(self):
        g = simple_graph()
        labels = np.array([0, 1, 0, 1, 0, 1])
        state = RefinementState(g, labels, 2)
        for vertex in range(6):
            for target in range(2):
                if target == state.labels[vertex]:
                    continue
                before = state.cost()
                gain = table_gain(state, vertex, target)
                state.move(vertex, target)
                after = state.cost()
                assert before - after == gain
                state.move(vertex, int(labels[vertex]))  # restore

    def test_fm_escapes_plateau_on_chain(self):
        # A chain partitioned off-center: only zero-gain moves lead to
        # the optimum, which greedy alone cannot take.
        n = 10
        pins = [[i, i + 1] for i in range(n - 1)]
        weights = [10] * (n - 1)
        weights[n // 2 - 1] = 1  # light edge at the true center
        g = from_pins(np.ones((n, 2)), pins, weights)
        labels = np.array([0] * 3 + [1] * 7)
        state = RefinementState(g, labels, 2)
        caps = BalanceConstraint((0.2, 0.2)).caps(g, 2)
        fm_refine(state, caps, np.random.default_rng(0))
        assert state.cost() == 1

    def test_rebalance_fixes_overload(self):
        g = simple_graph()
        labels = np.zeros(6, dtype=np.int64)  # everything on part 0
        state = RefinementState(g, labels, 2)
        caps = BalanceConstraint((0.2, 0.2)).caps(g, 2)
        assert not state.is_feasible(caps)
        assert rebalance(state, caps, np.random.default_rng(0))
        assert state.is_feasible(caps)

    def test_rebalance_with_a_zero_cap_evicts_the_overloaded_part(self):
        """A dimension whose total weight is 0 gets cap 0.  Dividing by
        it made every part's overload NaN, so argmax picked part 0,
        which fits, and an overloaded part 1 was reported feasible."""
        weights = np.zeros((6, 2), dtype=np.int64)
        weights[:, 1] = 1
        graph = from_pins(weights, [[0, 1], [2, 3], [4, 5]], [1, 1, 1])
        state = RefinementState(graph, np.array([0, 1, 1, 1, 1, 1]), 2)
        caps = np.array([0, 3])
        assert rebalance(state, caps, np.random.default_rng(0))
        assert state.is_feasible(caps)
        assert state.part_weights.tolist() == [[0, 3], [0, 3]]


class TestPartition:
    def test_two_triangles_split_cleanly(self):
        result = partition_hypergraph(
            simple_graph(), 2, BalanceConstraint((0.1, 0.1)), seed=0,
            restarts=2,
        )
        assert result.cost == 1
        assert result.feasible

    def test_k_equals_one(self):
        result = partition_hypergraph(simple_graph(), 1)
        assert result.cost == 0
        assert np.all(result.labels == 0)

    def test_empty_graph(self):
        g = from_pins(np.zeros((0, 2)), [], [])
        result = partition_hypergraph(g, 4)
        assert result.feasible and len(result.labels) == 0

    def test_deterministic_given_seed(self):
        g = simple_graph()
        a = partition_hypergraph(g, 2, seed=3)
        b = partition_hypergraph(g, 2, seed=3)
        assert np.array_equal(a.labels, b.labels)

    def test_warm_start_never_hurts(self):
        g = simple_graph()
        warm = np.array([0, 0, 0, 1, 1, 1])
        result = partition_hypergraph(
            g, 2, BalanceConstraint((0.1, 0.1)), warm_starts=[warm],
            restarts=1,
        )
        assert result.cost <= g.connectivity_cost(warm, 2)

    def test_invalid_warm_start_rejected(self):
        COUNTERS.reset()
        with pytest.raises(ValueError):
            partition_hypergraph(
                simple_graph(), 2, warm_starts=[np.array([0, 1])]
            )
        valid = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(ValueError):
            partition_hypergraph(
                simple_graph(), 2, warm_starts=[valid, np.full(6, 7)]
            )
        # Rejected before any candidate ran, not after a full search.
        assert COUNTERS.moves == 0 and COUNTERS.gain_evals == 0

    def test_balance_respected_on_random_graph(self):
        rng = np.random.default_rng(5)
        n = 120
        weights = np.stack(
            [rng.integers(1, 10, n), rng.integers(1, 10, n)], axis=1
        )
        pins = [rng.choice(n, size=rng.integers(2, 5), replace=False)
                for _ in range(300)]
        g = from_pins(weights, pins, rng.integers(1, 20, 300))
        balance = BalanceConstraint((0.15, 0.15))
        result = partition_hypergraph(g, 4, balance, seed=0, restarts=2)
        caps = balance.caps(g, 4)
        assert result.feasible
        assert np.all(result.part_weights <= caps[None, :])

    def test_imbalance_metric(self):
        result = partition_hypergraph(simple_graph(), 2, seed=0)
        assert np.all(result.imbalance() >= -1e-9)
