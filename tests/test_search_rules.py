"""The rules that decide where the partitioner stops searching.

* candidates run warm starts first, then the multilevel restarts, and
  stop at the first feasible candidate whose cut is 0;
* a multilevel run refines every level once, the finest included;
* an FM pass stops after ``fruitless_move_limit`` tentative moves
  without a new best cost, re-pushes exactly the vertices whose gains a
  move changed, and retries a candidate dropped for lack of room once
  its target loses weight.
"""

import heapq
from contextlib import contextmanager

import numpy as np
import pytest
from hypergraph_reference import (
    ScalarRefinementState,
    from_pins,
    scalar_fm_refine,
)

from repro.hypergraph import (
    COUNTERS,
    BalanceConstraint,
    RefinementState,
    fm_refine,
    partition_hypergraph,
)
from repro.hypergraph import partition as partition_module
from repro.hypergraph.refine import fruitless_move_limit
from repro.obs import disable_tracing, enable_tracing, get_tracer


@contextmanager
def traced_spans():
    """Spans recorded inside the block, as ``(name, args)`` pairs."""
    tracer = get_tracer()
    tracer.clear()
    enable_tracing()
    spans = []
    try:
        yield spans
    finally:
        disable_tracing()
        spans.extend((span[0], span[8] or {}) for span in tracer.spans())
        tracer.clear()


def names(spans):
    return [name for name, _ in spans]


def two_islands():
    """Two triangles with nothing between them: the optimal cut is 0."""
    pins = [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    return from_pins(np.ones((6, 2), dtype=np.int64), pins, [5] * 6)


def random_graph(seed, n=120, edges=300):
    rng = np.random.default_rng(seed)
    weights = np.stack([rng.integers(1, 10, n), rng.integers(1, 10, n)], axis=1)
    pins = [
        rng.choice(n, size=rng.integers(2, 5), replace=False) for _ in range(edges)
    ]
    return from_pins(weights, pins, rng.integers(1, 20, edges))


def chain(n):
    pins = [[i, i + 1] for i in range(n - 1)]
    return from_pins(np.ones((n, 2), dtype=np.int64), pins, [3] * (n - 1))


def rank(result):
    return (not result.feasible, result.cost, float(result.imbalance().max()))


class TestCandidateOrder:
    def test_optimal_warm_start_skips_every_other_candidate(self):
        islands = np.array([0, 0, 0, 1, 1, 1])
        zigzag = np.array([0, 1, 0, 1, 0, 1])
        with traced_spans() as spans:
            result = partition_hypergraph(
                two_islands(),
                2,
                BalanceConstraint((0.1, 0.1)),
                restarts=2,
                warm_starts=[islands, zigzag],
            )
        assert (result.method, result.cost, result.feasible) == ("warm", 0, True)
        assert np.array_equal(result.labels, islands)
        assert names(spans) == ["refine"]  # no multilevel run, no second warm
        assert spans[0][1]["candidates_skipped"] == 3
        assert spans[0][1]["moves"] == 0

    def test_later_candidates_run_until_one_is_optimal(self):
        islands = np.array([0, 0, 0, 1, 1, 1])
        # With exact balance no single move fits, so this start stays
        # at cut 20 and the next candidate has to run.
        stuck = np.array([0, 0, 1, 1, 1, 0])
        with traced_spans() as spans:
            result = partition_hypergraph(
                two_islands(),
                2,
                BalanceConstraint((0.0, 0.0)),
                restarts=2,
                warm_starts=[stuck, islands],
            )
        assert result.cost == 0
        skipped = [args["candidates_skipped"] for name, args in spans]
        assert names(spans) == ["refine", "refine"] and skipped == [0, 2]

    def test_infeasible_cost_zero_candidate_does_not_stop_the_search(self):
        # Three vertices of weight 5 cannot be split under a cap of 9,
        # so no candidate is ever feasible; the warm start's cut of 0
        # must not pass for the optimum.
        graph = from_pins(np.full((3, 2), 5), [[0, 1]], [1])
        with traced_spans() as spans:
            result = partition_hypergraph(
                graph, 2, restarts=2, warm_starts=[np.array([0, 0, 1])]
            )
        assert not result.feasible
        assert names(spans).count("partition") == 2
        assert all(
            args["candidates_skipped"] == 0
            for name, args in spans
            if name in ("refine", "partition")
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_never_ranks_below_the_best_refined_warm_start(self, seed):
        graph = random_graph(seed)
        rng = np.random.default_rng(seed)
        warm = [rng.integers(0, 4, graph.num_vertices) for _ in range(2)]
        balance = BalanceConstraint((0.15, 0.15))
        warm_only = partition_hypergraph(
            graph, 4, balance, seed=seed, restarts=0, warm_starts=warm
        )
        full = partition_hypergraph(
            graph, 4, balance, seed=seed, restarts=2, warm_starts=warm
        )
        assert rank(full) <= rank(warm_only)

    def test_delta_replan_path_refines_the_warm_starts_only(self):
        graph = random_graph(7)
        warm = np.random.default_rng(7).integers(0, 4, graph.num_vertices)
        with traced_spans() as spans:
            result = partition_hypergraph(
                graph, 4, BalanceConstraint((0.15, 0.15)), restarts=0,
                warm_starts=[warm],
            )
        assert result.method == "warm"
        assert names(spans) == ["refine"]
        assert spans[0][1]["method"] == "warm"
        with pytest.raises(ValueError):
            partition_hypergraph(graph, 4, restarts=0)

    def test_work_attributes_add_up_to_the_counters(self):
        COUNTERS.reset()
        with traced_spans() as spans:
            partition_hypergraph(random_graph(3, n=300, edges=700), 4, restarts=1)
        (partition,) = [args for name, args in spans if name == "partition"]
        inner = [
            args
            for name, args in spans
            if name in ("initial_partition", "refine_level")
        ]
        assert len(inner) >= 2  # this graph coarsens
        for key, total in COUNTERS.snapshot().items():
            assert partition[key] == total
            assert sum(args[key] for args in inner) <= total
        assert 0 < partition["rolled_back"] < partition["moves"]


class TestOneRefinementPerLevel:
    @pytest.mark.parametrize("n, coarsens", [(60, False), (400, True)])
    def test_finest_graph_gets_one_refinement_state(self, monkeypatch, n, coarsens):
        graph = random_graph(1, n=n, edges=2 * n)
        built = []

        class CountingState(RefinementState):
            def __init__(self, state_graph, labels, k):
                built.append(state_graph)
                super().__init__(state_graph, labels, k)

        monkeypatch.setattr(partition_module, "RefinementState", CountingState)
        caps = BalanceConstraint((0.15, 0.15)).caps(graph, 4)
        result = partition_module._multilevel_run(
            graph, 4, caps, np.random.default_rng(0), 6
        )
        assert result.method == "multilevel" and result.feasible
        assert sum(1 for g in built if g is graph) == 1
        assert (len(built) > 1) == coarsens
        assert len(set(map(id, built))) == len(built)  # every level once


class TestStoppingRule:
    def test_bound_follows_the_graph_up_to_the_old_constant(self):
        assert fruitless_move_limit(3000) == 128
        assert fruitless_move_limit(60) == 12 < 60
        assert fruitless_move_limit(10) == 8
        limits = [fruitless_move_limit(n) for n in range(1, 4000)]
        assert limits == sorted(limits) and max(limits) <= 128

    def test_fruitless_pass_stops_before_moving_every_vertex(self):
        # A chain cut in the middle is optimal: everything FM tries is
        # undone, and it gives up after the bound, not after 60 moves.
        graph = chain(60)
        labels = np.repeat([0, 1], 30)
        caps = BalanceConstraint((0.5, 0.5)).caps(graph, 2)
        state = RefinementState(graph, labels, 2)
        COUNTERS.reset()
        assert fm_refine(state, caps, np.random.default_rng(0)) == 0
        assert np.array_equal(state.labels, labels)
        assert COUNTERS.rolled_back == fruitless_move_limit(60)
        assert COUNTERS.moves == 2 * COUNTERS.rolled_back


class TestFmBookkeeping:
    def test_blocked_candidate_is_retried_when_its_target_frees_up(self):
        # Part 1 is full in the first dimension, so the best move
        # (vertex 0 -> 1, gain 10) is dropped at first; vertex 2 -> 0
        # (gain 3) shares no edge with vertex 0 and still brings it back
        # by making room.  Vertex 3 never fits into part 0 (second
        # dimension), which rules out the mirrored solution.
        weights = np.array([[1, 1], [1, 3], [1, 1], [1, 3], [1, 1]])
        graph = from_pins(weights, [[0, 3], [2, 1]], [10, 3])
        labels = np.array([0, 0, 1, 1, 1])
        caps = np.array([3, 6])
        state = RefinementState(graph, labels, 2)
        reference = ScalarRefinementState(graph, labels, 2)
        assert fm_refine(state, caps, np.random.default_rng(0), max_passes=1) == 2
        assert state.labels.tolist() == [1, 0, 0, 1, 1] and state.cost() == 0
        scalar_fm_refine(reference, caps, np.random.default_rng(0), max_passes=1)
        assert np.array_equal(state.labels, reference.labels)

    @pytest.mark.parametrize("seed", range(6))
    def test_heap_pushes_equal_the_reference(self, monkeypatch, seed):
        # Equal labels could hide a vertex pushed without need (or not
        # pushed when needed) behind a lucky tie-break; the number of
        # heap pushes cannot.
        graph = random_graph(seed, n=90, edges=200)
        labels = np.random.default_rng(seed).integers(0, 3, graph.num_vertices)
        caps = BalanceConstraint((0.1, 0.1)).caps(graph, 3)
        pushes = []
        real_push = heapq.heappush

        def counting_push(heap, entry):
            pushes[-1] += 1
            real_push(heap, entry)

        monkeypatch.setattr(heapq, "heappush", counting_push)
        pushes.append(0)
        state = RefinementState(graph, labels, 3)
        kept = fm_refine(state, caps, np.random.default_rng(seed))
        pushes.append(0)
        reference = ScalarRefinementState(graph, labels, 3)
        assert kept == scalar_fm_refine(reference, caps, np.random.default_rng(seed))
        assert np.array_equal(state.labels, reference.labels)
        assert pushes[0] == pushes[1] > 0
