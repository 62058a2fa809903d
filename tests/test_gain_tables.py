"""The incremental gain tables of ``RefinementState``.

Two invariants:

* after any sequence of moves — single moves, a whole ``fm_refine``
  with its rollback, a ``rebalance`` — ``leave`` / ``join`` /
  ``present`` / the pin counts / ``part_weights`` equal those of a state
  built from scratch on the same labels, and every gain
  ``leave[v] - join[v][t]`` equals the scalar reference's recomputation
  from the pin counts;
* the refinement counters are per thread, so plans made concurrently
  report the stats they report when made one after another.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypergraph_reference import (
    ScalarRefinementState,
    from_pins,
    scalar_fm_refine,
    table_gain,
)
from repro import ClusterSpec, DCPConfig, DCPPlanner
from repro.blocks import AttentionSpec, BatchSpec
from repro.hypergraph import (
    COUNTERS,
    BalanceConstraint,
    RefinementState,
    fm_refine,
    greedy_refine,
    rebalance,
)
from repro.masks import CausalMask

JOIN_TIMEOUT_S = 60


def assert_tables_fresh(state: RefinementState) -> None:
    """``state``'s tables equal a from-scratch build on its labels."""
    graph, k = state.graph, state.k
    fresh = RefinementState(graph, state.labels, k)
    assert state.leave == fresh.leave
    assert state.join == fresh.join
    assert state.present == fresh.present
    counts = np.array(state._counts, dtype=np.int64).reshape(-1, k)
    assert np.array_equal(counts, graph.pin_part_counts(state.labels, k))
    assert np.array_equal(state.part_weights, fresh.part_weights)
    assert state.cost() == graph.connectivity_cost(state.labels, k)
    reference = ScalarRefinementState(graph, state.labels, k)
    for vertex in range(graph.num_vertices):
        for target in range(k):
            gain = reference.gain(vertex, target)
            assert table_gain(state, vertex, target) == gain


@st.composite
def refinement_cases(draw):
    """A small hypergraph (isolated vertices and empty parts allowed),
    a labelling, and a script of operations to apply to it."""
    n = draw(st.integers(2, 14))
    k = draw(st.integers(2, 4))
    weights = draw(
        st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 5)),
            min_size=n,
            max_size=n,
        )
    )
    pins = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
            max_size=20,
        )
    )
    edge_weights = draw(
        st.lists(st.integers(0, 30), min_size=len(pins), max_size=len(pins))
    )
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    script = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("move"),
                    st.integers(0, n - 1),
                    st.integers(0, k - 1),
                ),
                st.tuples(
                    st.sampled_from(["fm", "greedy", "rebalance"]),
                    st.integers(0, 2**16),
                    st.just(0),
                ),
            ),
            max_size=12,
        )
    )
    graph = from_pins(np.array(weights, dtype=np.int64), pins, edge_weights)
    return graph, k, np.array(labels, dtype=np.int64), script


class TestTablesStayExact:
    @settings(max_examples=150, deadline=None)
    @given(refinement_cases())
    def test_tables_equal_fresh_build_after_any_moves(self, case):
        graph, k, labels, script = case
        state = RefinementState(graph, labels, k)
        assert_tables_fresh(state)
        caps = BalanceConstraint((0.3, 0.4)).caps(graph, k)
        passes = {"fm": fm_refine, "greedy": greedy_refine, "rebalance": rebalance}
        for op, first, second in script:
            if op == "move":
                state.move(first, second)
            else:
                passes[op](state, caps, np.random.default_rng(first))
            assert_tables_fresh(state)

    def test_move_that_empties_a_part(self):
        # Vertex 2 is part 1's only member: moving it away must zero
        # part 1's presence everywhere and make it joinable at full cost.
        graph = from_pins(
            np.ones((4, 2), dtype=np.int64),
            [[0, 1, 2], [2, 3], [0, 3]],
            [4, 7, 2],
        )
        state = RefinementState(graph, np.array([0, 0, 1, 2]), 3)
        state.move(2, 0)
        assert state.part_weights[1].tolist() == [0, 0]
        assert [row[1] for row in state.present] == [0, 0, 0, 0]
        assert [row[1] for row in state.join] == [6, 4, 11, 9]
        assert_tables_fresh(state)
        state.move(2, 1)  # and back into the empty part
        assert_tables_fresh(state)

    def test_large_edge_refreshes_like_any_other(self):
        # No pin-count cutoff: along a 70-pin edge FM re-pushes exactly
        # the pins whose gains a move changed (usually none, all 70 when
        # a part enters or leaves its span), as the reference does.
        rng = np.random.default_rng(0)
        n = 80
        pins = [list(range(70))] + [
            rng.choice(n, size=3, replace=False).tolist() for _ in range(60)
        ]
        graph = from_pins(
            np.ones((n, 2), dtype=np.int64), pins, rng.integers(1, 9, len(pins))
        )
        labels = rng.integers(0, 3, n)
        caps = BalanceConstraint((0.3, 0.3)).caps(graph, 3)
        state = RefinementState(graph, labels, 3)
        reference = ScalarRefinementState(graph, labels, 3)
        COUNTERS.reset()
        kept = fm_refine(state, caps, np.random.default_rng(1))
        assert kept == scalar_fm_refine(reference, caps, np.random.default_rng(1))
        assert np.array_equal(state.labels, reference.labels)
        assert COUNTERS.moves >= kept > 0
        assert_tables_fresh(state)

    def test_neighbour_reached_through_two_edges(self):
        # Vertices 0 and 1 share two small edges; one move of vertex 0
        # changes vertex 1's gains through both and still pushes it once,
        # like vertex 2.  Vertex 0 -> part 1 is the top gain by a margin.
        graph = from_pins(
            np.ones((5, 2), dtype=np.int64),
            [[0, 1], [0, 1, 2], [1, 3], [2, 4], [3, 4]],
            [9, 8, 1, 1, 1],
        )
        labels = np.array([0, 1, 1, 0, 1])
        caps = np.array([4, 4])
        state = RefinementState(graph, labels, 2)
        COUNTERS.reset()
        rng = np.random.default_rng(0)
        assert fm_refine(state, caps, rng, max_passes=1, move_cap=1) == 1
        assert state.labels.tolist() == [1, 1, 1, 0, 1]
        # Five boundary vertices, then two refreshes, k = 2 gains each.
        assert COUNTERS.snapshot() == {
            "gain_evals": (5 + 2) * 2, "moves": 1, "rolled_back": 0
        }
        assert_tables_fresh(state)
        for seed in range(8):
            state = RefinementState(graph, labels, 2)
            reference = ScalarRefinementState(graph, labels, 2)
            kept = fm_refine(state, caps, np.random.default_rng(seed))
            assert kept == scalar_fm_refine(
                reference, caps, np.random.default_rng(seed)
            )
            assert np.array_equal(state.labels, reference.labels)
            assert_tables_fresh(state)


class TestCountersArePerThread:
    def test_reset_on_another_thread_leaves_counts_alone(self):
        graph = from_pins(
            np.ones((3, 2), dtype=np.int64), [[0, 1], [1, 2]], [2, 3]
        )
        counted, was_reset = threading.Event(), threading.Event()
        seen = {}

        def count_then_read():
            COUNTERS.reset()
            state = RefinementState(graph, np.array([0, 1, 1]), 2)
            # Vertex 0 is the only boundary vertex on this permutation.
            rng = np.random.default_rng(0)
            greedy_refine(state, np.array([3, 3]), rng, max_passes=1)
            counted.set()
            if was_reset.wait(JOIN_TIMEOUT_S):
                seen["counting"] = COUNTERS.snapshot()

        def reset_in_between():
            if counted.wait(JOIN_TIMEOUT_S):
                COUNTERS.reset()
                seen["resetting"] = COUNTERS.snapshot()
                was_reset.set()

        threads = [
            threading.Thread(target=count_then_read),
            threading.Thread(target=reset_in_between),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
            assert not thread.is_alive()
        assert seen["counting"] == {"gain_evals": 2, "moves": 1, "rolled_back": 0}
        assert seen["resetting"] == {"gain_evals": 0, "moves": 0, "rolled_back": 0}

    def test_concurrent_plans_report_synchronous_stats(self):
        planner = DCPPlanner(
            ClusterSpec(num_machines=2, devices_per_machine=2),
            AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16),
            DCPConfig(block_size=64, restarts=1),
        )
        batches = [
            BatchSpec.build(seqlens, CausalMask())
            for seqlens in ([768, 256], [512, 384, 128], [1024], [640, 320, 64])
        ]

        def counts(plan):
            stats = plan.meta["planning_stats"]
            return stats.gain_evals, stats.refine_moves

        expected = [counts(planner.plan_batch(batch)) for batch in batches]
        assert all(moves > 0 for _, moves in expected)
        concurrent = [None] * len(batches)
        start = threading.Barrier(len(batches))

        def plan(index):
            start.wait(JOIN_TIMEOUT_S)
            concurrent[index] = counts(planner.plan_batch(batches[index]))

        threads = [
            threading.Thread(target=plan, args=(index,))
            for index in range(len(batches))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the plans for certain
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT_S)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == expected
