"""Parity tests: vectorized planner hot path vs scalar references.

The CSR/structure-of-arrays rewrite of the planner must not change any
decision: these property tests prove, on randomized hypergraphs and
batches, that

* vectorized gain evaluation matches the scalar per-edge definition,
* ``greedy_refine``/``fm_refine``/``rebalance`` produce identical
  labels, cost and move counts to the scalar reference implementations
  under the same RNG seed,
* vectorized block generation emits exactly the multiset of
  computation blocks the scalar loop produced,

plus the planner-level satellites (non-mutating ``plan()``, plan-cache
stats, planning-stats counters).
"""

import numpy as np
import pytest

from cache_client import plan_batch
from hypergraph_reference import (
    ScalarRefinementState,
    from_pins,
    scalar_fm_refine,
    scalar_greedy_refine,
    scalar_rebalance,
    table_gain,
)
from repro.blocks import (
    AttentionSpec,
    BatchSpec,
    CompBlock,
    generate_blocks,
)
from repro.hypergraph import (
    BalanceConstraint,
    Hypergraph,
    RefinementState,
    fm_refine,
    greedy_refine,
    partition_hypergraph,
    rebalance,
)
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask
from repro.placement import PlacementConfig


def random_hypergraph(rng, num_vertices=60, num_edges=120):
    weights = np.stack(
        [rng.integers(1, 10, num_vertices), rng.integers(0, 6, num_vertices)],
        axis=1,
    )
    pins = [
        rng.choice(num_vertices, size=int(rng.integers(2, 6)), replace=False)
        for _ in range(num_edges)
    ]
    edge_weights = rng.integers(1, 30, num_edges)
    return from_pins(weights, pins, edge_weights)


class TestCsrStructure:
    def test_pin_part_counts_matches_naive(self):
        rng = np.random.default_rng(0)
        g = random_hypergraph(rng)
        k = 4
        labels = rng.integers(0, k, g.num_vertices)
        counts = g.pin_part_counts(labels, k)
        for edge_index, pin in enumerate(g.pin_lists()):
            parts, occur = np.unique(labels[pin], return_counts=True)
            naive = np.zeros(k, dtype=np.int64)
            naive[parts] = occur
            assert np.array_equal(counts[edge_index], naive)

    def test_connectivity_cost_matches_naive(self):
        rng = np.random.default_rng(1)
        g = random_hypergraph(rng)
        k = 3
        labels = rng.integers(0, k, g.num_vertices)
        naive = sum(
            int(g.edge_weights[e]) * (len(np.unique(labels[pin])) - 1)
            for e, pin in enumerate(g.pin_lists())
            if len(pin)
        )
        assert g.connectivity_cost(labels, k) == naive

    def test_vertex_csr_matches_incidence(self):
        rng = np.random.default_rng(2)
        g = random_hypergraph(rng)
        indptr, edges = g.vertex_csr()
        incidence = g.incidence()
        for vertex in range(g.num_vertices):
            incident = edges[indptr[vertex] : indptr[vertex + 1]]
            assert incident.tolist() == incidence[vertex]

    def test_from_csr_roundtrip(self):
        rng = np.random.default_rng(3)
        g = random_hypergraph(rng)
        rebuilt = Hypergraph.from_csr(
            g.weights, g.edge_indptr, g.edge_pins, g.edge_weights
        )
        labels = rng.integers(0, 3, g.num_vertices)
        assert rebuilt.connectivity_cost(labels, 3) == g.connectivity_cost(
            labels, 3
        )


class TestGainParity:
    def test_gain_matches_scalar_definition(self):
        rng = np.random.default_rng(4)
        g = random_hypergraph(rng)
        k = 4
        labels = rng.integers(0, k, g.num_vertices)
        vec = RefinementState(g, labels, k)
        ref = ScalarRefinementState(g, labels, k)
        for vertex in range(g.num_vertices):
            for target in range(k):
                assert table_gain(vec, vertex, target) == ref.gain(
                    vertex, target
                )

    def test_move_keeps_cost_consistent(self):
        rng = np.random.default_rng(6)
        g = random_hypergraph(rng)
        k = 3
        labels = rng.integers(0, k, g.num_vertices)
        state = RefinementState(g, labels, k)
        for vertex in range(0, g.num_vertices, 5):
            for target in range(k):
                if target == state.labels[vertex]:
                    continue
                before = state.cost()
                gain = table_gain(state, vertex, target)
                state.move(vertex, target)
                assert before - state.cost() == gain
                state.move(vertex, int(labels[vertex]))  # restore


class TestRefinementParity:
    @pytest.mark.parametrize("trial", range(12))
    def test_full_parity_on_random_graphs(self, trial):
        rng = np.random.default_rng(100 + trial)
        g = random_hypergraph(rng, 40 + 3 * trial, 90 + 5 * trial)
        k = 2 + trial % 4
        labels = rng.integers(0, k, g.num_vertices)
        caps = BalanceConstraint((0.2, 0.3)).caps(g, k)
        for vec_fn, ref_fn in [
            (greedy_refine, scalar_greedy_refine),
            (fm_refine, scalar_fm_refine),
            (rebalance, scalar_rebalance),
        ]:
            vec_state = RefinementState(g, labels.copy(), k)
            ref_state = ScalarRefinementState(g, labels.copy(), k)
            vec_out = vec_fn(vec_state, caps, np.random.default_rng(trial))
            ref_out = ref_fn(ref_state, caps, np.random.default_rng(trial))
            assert vec_out == ref_out
            assert np.array_equal(vec_state.labels, ref_state.labels)
            assert vec_state.cost() == ref_state.cost()
            assert np.array_equal(
                vec_state.part_weights, ref_state.part_weights
            )

    def test_chained_pipeline_parity(self):
        # greedy -> fm -> rebalance back to back, sharing one RNG like
        # the partition driver does.
        rng = np.random.default_rng(7)
        g = random_hypergraph(rng, 80, 160)
        k = 4
        labels = rng.integers(0, k, g.num_vertices)
        caps = BalanceConstraint((0.15, 0.25)).caps(g, k)
        vec_state = RefinementState(g, labels.copy(), k)
        ref_state = ScalarRefinementState(g, labels.copy(), k)
        vec_rng = np.random.default_rng(11)
        ref_rng = np.random.default_rng(11)
        rebalance(vec_state, caps, vec_rng)
        scalar_rebalance(ref_state, caps, ref_rng)
        greedy_refine(vec_state, caps, vec_rng)
        scalar_greedy_refine(ref_state, caps, ref_rng)
        fm_refine(vec_state, caps, vec_rng)
        scalar_fm_refine(ref_state, caps, ref_rng)
        assert np.array_equal(vec_state.labels, ref_state.labels)
        assert vec_state.cost() == ref_state.cost()

    def test_partition_cost_identical_across_runs(self):
        # End-to-end determinism of the multilevel driver stays intact.
        rng = np.random.default_rng(8)
        g = random_hypergraph(rng, 90, 200)
        a = partition_hypergraph(g, 4, seed=5)
        b = partition_hypergraph(g, 4, seed=5)
        assert a.cost == b.cost
        assert np.array_equal(a.labels, b.labels)


def scalar_generate_comp_blocks(batch, attention, block_size):
    """The original per-tile Python loop, kept as the test oracle."""
    from repro.masks import block_bounds, tile_workload_matrix

    comp_blocks = []
    for seq_index, seq in enumerate(batch.sequences):
        bounds = block_bounds(seq.seqlen, block_size)
        workload = tile_workload_matrix(seq.mask, seq.seqlen, bounds)
        q_idx, kv_idx = np.nonzero(workload)
        for qi, ki in zip(q_idx.tolist(), kv_idx.tolist()):
            pairs = int(workload[qi, ki])
            for head_group in range(attention.head_groups):
                comp_blocks.append(
                    CompBlock(
                        seq_index=seq_index,
                        head_group=head_group,
                        q_block=qi,
                        kv_block=ki,
                        pairs=pairs,
                    )
                )
    return comp_blocks


class TestGenerateBlocksParity:
    @pytest.mark.parametrize(
        "mask",
        [
            CausalMask(),
            LambdaMask(sink=2, window=12),
            SharedQuestionMask(num_answers=3, answer_fraction=0.25),
        ],
        ids=["causal", "lambda", "shared_question"],
    )
    def test_comp_block_multisets_identical(self, mask):
        batch = BatchSpec.build([100, 64, 17], mask)
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        block_set = generate_blocks(batch, attention, block_size=16)
        expected = scalar_generate_comp_blocks(batch, attention, 16)
        # Exact order parity, which implies multiset parity.
        assert block_set.comp_blocks == expected
        assert sorted(block_set.comp_blocks) == sorted(expected)

    def test_array_and_object_views_agree(self):
        batch = BatchSpec.build([64, 32], CausalMask())
        block_set = generate_blocks(batch, AttentionSpec(), block_size=16)
        arr = block_set.comp_array
        assert len(arr) == len(block_set.comp_blocks)
        assert arr.to_blocks() == block_set.comp_blocks

    def test_aggregates_match_object_sums(self):
        batch = BatchSpec.build([96, 48], LambdaMask(sink=1, window=24))
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        block_set = generate_blocks(batch, attention, block_size=16)
        assert block_set.total_pairs == sum(
            c.pairs for c in block_set.comp_blocks
        )
        assert block_set.total_flops == sum(
            attention.tile_flops(c.pairs) for c in block_set.comp_blocks
        )
        assert block_set.total_bytes == sum(
            attention.slice_bytes(ts.tokens) for ts in block_set.token_slices
        )


class TestPlannerSatellites:
    def _planner(self):
        from repro import ClusterSpec, DCPConfig, DCPPlanner

        cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
        attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        return DCPPlanner(
            cluster, attention, DCPConfig(
                block_size=16, placement=PlacementConfig(restarts=1)
            )
        )

    def test_plan_does_not_mutate_cluster(self):
        from repro import ClusterSpec

        planner = self._planner()
        original = planner.cluster
        other = ClusterSpec(num_machines=2, devices_per_machine=2)
        batch = BatchSpec.build([64], CausalMask())
        block_set = generate_blocks(
            batch, planner.attention, planner.config.block_size
        )
        plan = planner.plan(block_set, other)
        assert planner.cluster is original
        assert plan.cluster == other

    def test_planning_stats_counters_populated(self):
        planner = self._planner()
        batch = BatchSpec.build([96, 64], CausalMask())
        plan = planner.plan_batch(batch)
        stats = plan.meta["planning_stats"]
        assert stats.num_vertices > 0
        assert stats.num_edges > 0
        assert stats.gain_evals > 0
        assert stats.total > 0

    def test_plan_cache_stats(self):
        from repro.core import PlanCache

        cache = PlanCache(self._planner(), capacity=4)
        batch = BatchSpec.build([48, 32], CausalMask())
        first = plan_batch(cache, batch)
        assert cache.stats()["misses"] == 1
        second = plan_batch(cache, batch)
        assert second is first
        assert "plan_cache" not in first.meta  # a shared plan stays clean
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1
        assert stats["capacity"] == 4


class TestScalarFastPath:
    """Degenerate inputs of the gain tables against the scalar reference."""

    def test_isolated_vertices_identical(self):
        # A vertex with no incident edges has empty table rows: no gain,
        # no adjacent part, and it never becomes a move candidate.
        weights = np.array([[1, 0], [2, 1], [3, 0]])
        g = from_pins(weights, [[0, 1]], np.array([5]))
        labels = np.array([0, 1, 0])
        state = RefinementState(g, labels, 3)
        ref = ScalarRefinementState(g, labels, 3)
        assert state.leave[2] == 0
        assert state.join[2] == [0, 0, 0]
        assert state.present[2] == [0, 0, 0]
        for vertex in (2, 0):
            for target in range(3):
                assert table_gain(state, vertex, target) == ref.gain(
                    vertex, target
                )
        assert state.present[0] == [1, 1, 0]
        caps = np.array([10, 10])
        assert greedy_refine(state, caps, np.random.default_rng(0)) == 1
        assert fm_refine(state, caps, np.random.default_rng(0)) == 0
        assert state.labels[2] == 0
