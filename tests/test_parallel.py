"""Tests for repro.parallel: topology, TP sharding, 1F1B, hybrid."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import AttentionSpec, BatchSpec
from repro.blocks.data_blocks import DTYPE_BYTES
from repro.core.config import DCPConfig
from repro.masks import CausalMask
from repro.parallel import (
    HybridConfig,
    RankTopology,
    StageCost,
    allreduce_time,
    dcp_view_cluster,
    hybrid_iteration_time,
    one_f_one_b_order,
    shard_attention,
    simulate_1f1b_varied,
    split_layers,
    tp_layer_comm_time,
)
from repro.placement import PlacementConfig
from repro.sim import cluster as hardware
from repro.sim import modelcost
from repro.sim.cluster import ClusterSpec


def simulate_1f1b(stage_costs, num_microbatches, p2p_time=0.0):
    """1F1B with every microbatch costing the same on a stage."""
    return simulate_1f1b_varied(
        [[cost] * num_microbatches for cost in stage_costs], p2p_time
    )


# -- RankTopology ----------------------------------------------------------


class TestRankTopology:
    def test_world_size(self):
        assert RankTopology(tp=4, dcp=4, pp=2).world_size == 32

    def test_degrees_must_be_positive(self):
        with pytest.raises(ValueError):
            RankTopology(tp=0)

    def test_validate_against_matching_cluster(self):
        topo = RankTopology(tp=4, dcp=8, pp=1)
        topo.validate_against(ClusterSpec(num_machines=4, devices_per_machine=8))

    def test_validate_rejects_wrong_world(self):
        topo = RankTopology(tp=4, dcp=4, pp=1)
        with pytest.raises(ValueError, match="world"):
            topo.validate_against(
                ClusterSpec(num_machines=4, devices_per_machine=8)
            )

    def test_validate_rejects_tp_straddling_machines(self):
        topo = RankTopology(tp=16, dcp=2, pp=1)
        with pytest.raises(ValueError, match="exceeds"):
            topo.validate_against(
                ClusterSpec(num_machines=4, devices_per_machine=8)
            )

    def test_validate_rejects_nondivisible_tp(self):
        topo = RankTopology(tp=3, dcp=8, pp=1)
        with pytest.raises(ValueError, match="divide"):
            topo.validate_against(
                ClusterSpec(num_machines=3, devices_per_machine=8)
            )

    def test_describe(self):
        assert RankTopology(tp=2, dcp=4, pp=2).describe() == "tp=2 dcp=4 pp=2"


# -- TP sharding -------------------------------------------------------------


class TestShardAttention:
    def test_tp_one_is_identity(self):
        spec = AttentionSpec()
        assert shard_attention(spec, 1) is spec

    def test_shards_heads_and_groups(self):
        spec = AttentionSpec(num_q_heads=32, num_kv_groups=8)
        sharded = shard_attention(spec, 4)
        assert sharded.num_q_heads == 8
        assert sharded.num_kv_groups == 2
        assert sharded.head_dim == spec.head_dim

    def test_rejects_nondivisible_q_heads(self):
        with pytest.raises(ValueError, match="query heads"):
            shard_attention(AttentionSpec(num_q_heads=8, num_kv_groups=2), 3)

    def test_rejects_kv_replication(self):
        with pytest.raises(ValueError, match="KV groups"):
            shard_attention(AttentionSpec(num_q_heads=8, num_kv_groups=2), 4)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            shard_attention(AttentionSpec(), 0)


class TestDcpViewCluster:
    def test_tp_one_is_identity(self):
        cluster = ClusterSpec()
        assert dcp_view_cluster(cluster, 1) is cluster

    def test_aggregates_flops_and_shrinks_machines(self):
        cluster = ClusterSpec(num_machines=2, devices_per_machine=8)
        view = dcp_view_cluster(cluster, 4)
        assert view.devices_per_machine == 2
        assert view.num_machines == 2
        assert view.peak_flops == pytest.approx(4 * cluster.peak_flops)
        assert view.inter_bandwidth == cluster.inter_bandwidth

    def test_fields_tp_does_not_rescale_survive(self):
        """TP rescales the per-machine device count and a device's
        FLOPs; every other field of the cluster is carried over."""
        cluster = ClusterSpec(num_machines=3, devices_per_machine=8,
                              peak_flops=100e12, inter_bandwidth=10e9)
        view = dcp_view_cluster(cluster, 2)
        rescaled = {"devices_per_machine", "peak_flops"}
        for field in dataclasses.fields(ClusterSpec):
            if field.name not in rescaled:
                assert getattr(view, field.name) == getattr(cluster,
                                                            field.name)
        assert (view.devices_per_machine, view.peak_flops) == (4, 200e12)

    def test_rejects_nondivisible(self):
        with pytest.raises(ValueError):
            dcp_view_cluster(ClusterSpec(devices_per_machine=8), 3)


class TestAllreduce:
    def test_single_rank_free(self):
        assert allreduce_time(1e9, 1, 1e9) == 0.0

    def test_ring_volume_factor(self):
        # 2 (R-1)/R of the buffer crosses the link.
        t = allreduce_time(1e9, 4, 1e9)
        assert t == pytest.approx(2 * 3 / 4)

    def test_latency_term(self):
        base = allreduce_time(0.0, 4, 1e9, latency=1e-6)
        assert base == pytest.approx(6e-6)

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError):
            allreduce_time(1.0, 0, 1e9)


class TestTpLayerComm:
    def test_tp_one_free(self):
        assert tp_layer_comm_time(4096, 1) == 0.0

    def test_four_allreduces(self):
        t = tp_layer_comm_time(4096, 4)
        one = allreduce_time(
            4096 * modelcost.HIDDEN * DTYPE_BYTES,
            4,
            hardware.INTRA_BANDWIDTH,
            hardware.INTRA_LATENCY,
        )
        assert t == pytest.approx(4 * one)

    def test_scales_with_tokens(self):
        assert tp_layer_comm_time(8192, 4) > tp_layer_comm_time(4096, 4)


# -- pipeline schedule -------------------------------------------------------


class TestSplitLayers:
    def test_even(self):
        assert split_layers(32, 4) == [8, 8, 8, 8]

    def test_remainder_goes_early(self):
        assert split_layers(10, 4) == [3, 3, 2, 2]

    def test_sums_to_layers(self):
        for layers in (7, 16, 33):
            for stages in (1, 2, 3, 4):
                if layers >= stages:
                    assert sum(split_layers(layers, stages)) == layers

    def test_rejects_more_stages_than_layers(self):
        with pytest.raises(ValueError):
            split_layers(2, 4)

    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            split_layers(4, 0)


class TestOneFOneBOrder:
    def test_single_stage_alternates(self):
        order = one_f_one_b_order(0, 1, 3)
        assert order == [
            ("F", 0), ("B", 0), ("F", 1), ("B", 1), ("F", 2), ("B", 2),
        ]

    def test_warmup_depth(self):
        # Stage 0 of 4 warms up with 4 forwards (or M if fewer).
        order = one_f_one_b_order(0, 4, 8)
        assert order[:4] == [("F", 0), ("F", 1), ("F", 2), ("F", 3)]
        assert order[4] == ("B", 0)

    def test_last_stage_no_warmup_beyond_one(self):
        order = one_f_one_b_order(3, 4, 8)
        assert order[0] == ("F", 0)
        assert order[1] == ("B", 0)

    def test_all_tasks_exactly_once(self):
        for stage in range(4):
            order = one_f_one_b_order(stage, 4, 6)
            assert sorted(order) == sorted(
                [("F", m) for m in range(6)] + [("B", m) for m in range(6)]
            )

    def test_forward_precedes_backward_per_microbatch(self):
        order = one_f_one_b_order(2, 4, 6)
        position = {task: i for i, task in enumerate(order)}
        for m in range(6):
            assert position[("F", m)] < position[("B", m)]


class TestSimulate1F1B:
    def test_single_stage_is_serial(self):
        timing = simulate_1f1b([StageCost(2.0, 3.0)], num_microbatches=4)
        assert timing.total == pytest.approx(4 * 5.0)
        assert timing.bubble_fraction == pytest.approx(0.0)

    def test_uniform_closed_form(self):
        # (M + S - 1) * (f + b) for uniform stages, zero p2p.
        stages, microbatches = 4, 8
        timing = simulate_1f1b(
            [StageCost(1.0, 2.0)] * stages, num_microbatches=microbatches
        )
        assert timing.total == pytest.approx((microbatches + stages - 1) * 3.0)

    def test_uniform_bubble_fraction(self):
        stages, microbatches = 4, 8
        timing = simulate_1f1b(
            [StageCost(1.0, 1.0)] * stages, num_microbatches=microbatches
        )
        expected = (stages - 1) / (microbatches + stages - 1)
        assert timing.bubble_fraction == pytest.approx(expected)

    def test_more_microbatches_shrink_bubble(self):
        costs = [StageCost(1.0, 2.0)] * 4
        small = simulate_1f1b(costs, num_microbatches=2)
        large = simulate_1f1b(costs, num_microbatches=16)
        assert large.bubble_fraction < small.bubble_fraction

    def test_p2p_stretches_total(self):
        costs = [StageCost(1.0, 1.0)] * 2
        fast = simulate_1f1b(costs, num_microbatches=4)
        slow = simulate_1f1b(costs, num_microbatches=4, p2p_time=0.5)
        assert slow.total > fast.total

    def test_rejects_zero_microbatches(self):
        with pytest.raises(ValueError):
            simulate_1f1b([StageCost(1.0, 1.0)], num_microbatches=0)

    def test_rejects_empty_stages(self):
        with pytest.raises(ValueError):
            simulate_1f1b([], num_microbatches=1)

    def test_rejects_negative_cost(self):
        with pytest.raises(ValueError):
            StageCost(-1.0, 1.0)

    def test_varied_rejects_ragged_costs(self):
        with pytest.raises(ValueError):
            simulate_1f1b_varied(
                [[StageCost(1, 1)] * 2, [StageCost(1, 1)] * 3]
            )

    def test_varied_single_stage_sums(self):
        costs = [[StageCost(1.0, 1.0), StageCost(2.0, 3.0)]]
        timing = simulate_1f1b_varied(costs)
        assert timing.total == pytest.approx(7.0)

    @given(
        stages=st.integers(1, 4),
        microbatches=st.integers(1, 6),
        forward=st.floats(0.1, 5.0),
        backward=st.floats(0.1, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_total_bounded_by_work(self, stages, microbatches, forward,
                                   backward):
        timing = simulate_1f1b(
            [StageCost(forward, backward)] * stages,
            num_microbatches=microbatches,
        )
        per_stage = microbatches * (forward + backward)
        assert timing.total >= per_stage - 1e-9
        assert timing.total <= stages * per_stage + 1e-9
        assert all(b == pytest.approx(per_stage) for b in timing.stage_busy)


# -- hybrid composition ------------------------------------------------------


@pytest.fixture
def small_model(monkeypatch):
    """The hybrid estimates price a small model, not the paper's 8B."""
    for name, value in dict(NUM_LAYERS=4, HIDDEN=256, NUM_Q_HEADS=8,
                            NUM_KV_GROUPS=4, HEAD_DIM=32, FFN_HIDDEN=512,
                            VOCAB=1024, TENSOR_PARALLEL=1).items():
        monkeypatch.setattr(modelcost, name, value)


def _batch() -> BatchSpec:
    return BatchSpec.build([700, 300, 500], CausalMask())


@pytest.mark.usefixtures("small_model")
class TestHybrid:
    def test_smoke_tp_dcp_pp(self):
        cluster = ClusterSpec(num_machines=2, devices_per_machine=4)
        config = HybridConfig(
            topology=RankTopology(tp=2, dcp=2, pp=2),
            num_microbatches=2,
            dcp_config=DCPConfig(block_size=256,
                                 placement=PlacementConfig(restarts=1)),
        )
        result = hybrid_iteration_time(_batch(), cluster, config)
        assert result.iteration_time > 0
        assert result.pipeline.num_stages == 2
        assert len(result.microbatch_plans) == 2
        assert result.attention_time > 0
        assert result.tp_comm_time > 0

    def test_pure_dcp_no_tp_comm(self):
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        config = HybridConfig(
            topology=RankTopology(tp=1, dcp=4, pp=1),
            dcp_config=DCPConfig(block_size=256,
                                 placement=PlacementConfig(restarts=1)),
        )
        result = hybrid_iteration_time(_batch(), cluster, config)
        assert result.tp_comm_time == 0.0
        assert result.grad_sync_time > 0
        assert result.pipeline.bubble_fraction == pytest.approx(0.0)

    def test_pp_must_divide_machines(self):
        cluster = ClusterSpec(num_machines=3, devices_per_machine=2)
        config = HybridConfig(topology=RankTopology(tp=1, dcp=3, pp=2))
        with pytest.raises(ValueError, match="divide"):
            hybrid_iteration_time(_batch(), cluster, config)

    def test_topology_must_match_cluster(self):
        cluster = ClusterSpec(num_machines=1, devices_per_machine=4)
        config = HybridConfig(topology=RankTopology(tp=1, dcp=2, pp=1))
        with pytest.raises(ValueError, match="world"):
            hybrid_iteration_time(_batch(), cluster, config)

    def test_rejects_zero_microbatches(self):
        with pytest.raises(ValueError):
            HybridConfig(topology=RankTopology(), num_microbatches=0)

    def test_more_microbatches_do_not_lose_sequences(self):
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        config = HybridConfig(
            topology=RankTopology(tp=1, dcp=2, pp=2),
            num_microbatches=3,
            dcp_config=DCPConfig(block_size=256,
                                 placement=PlacementConfig(restarts=1)),
        )
        result = hybrid_iteration_time(_batch(), cluster, config)
        planned_tokens = sum(
            sum(ts.tokens for dp in plan.device_plans.values()
                for ts in dp.local_slices)
            for plan in result.microbatch_plans
        )
        assert planned_tokens == _batch().total_tokens
