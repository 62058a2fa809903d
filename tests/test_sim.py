"""Tests for cluster spec, timing simulation and the e2e cost model."""

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec, e2e_iteration_time, simulate_plan
from repro.sim import cluster as hardware
from repro.sim import modelcost
from repro.sim.timing import _intersection_length, _union_length


class TestClusterSpec:
    def test_device_machine_mapping(self):
        cluster = ClusterSpec(num_machines=3, devices_per_machine=4)
        assert cluster.num_devices == 12
        assert cluster.machine_of(0) == 0
        assert cluster.machine_of(11) == 2
        assert cluster.same_machine(4, 7)
        assert not cluster.same_machine(3, 4)

    def test_out_of_range_rejected(self):
        cluster = ClusterSpec(2, 2)
        with pytest.raises(ValueError):
            cluster.machine_of(4)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            ClusterSpec(0, 4)


class TestIntervalHelpers:
    def test_union_merges_overlaps(self):
        assert _union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)

    def test_union_empty(self):
        assert _union_length([]) == 0.0

    def test_intersection(self):
        a = [(0, 4), (6, 8)]
        b = [(2, 7)]
        assert _intersection_length(a, b) == pytest.approx(3.0)

    def test_intersection_disjoint(self):
        assert _intersection_length([(0, 1)], [(2, 3)]) == 0.0


def make_plan(seqlens=(96, 48), machines=2, devices=2, block=16):
    batch = BatchSpec.build(list(seqlens), CausalMask())
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    block_set = generate_blocks(batch, spec, block_size=block)
    cluster = ClusterSpec(machines, devices)
    planner = DCPPlanner(cluster, spec, DCPConfig(
        block_size=block, placement=PlacementConfig(restarts=1)
    ))
    return planner.plan(block_set), cluster


class TestTiming:
    def test_deterministic(self):
        plan, _ = make_plan()
        a = simulate_plan(plan)
        b = simulate_plan(plan)
        assert a.iteration_time == b.iteration_time

    def test_backward_slower_than_forward(self):
        plan, _ = make_plan()
        fw = simulate_plan(plan, backward=False)
        bw = simulate_plan(plan, backward=True)
        assert bw.iteration_time > fw.iteration_time

    def test_breakdown_sums_to_total(self):
        plan, _ = make_plan()
        breakdown = simulate_plan(plan).breakdown()
        parts = (
            breakdown["others"] + breakdown["non_ovlp_attn"]
            + breakdown["overlap"] + breakdown["non_ovlp_comm"]
        )
        assert parts == pytest.approx(breakdown["total"], rel=1e-6)

    def test_overlap_bounded(self):
        plan, _ = make_plan(seqlens=(128, 96, 64))
        timing = simulate_plan(plan)
        for device in timing.devices.values():
            assert device.overlap_time <= device.compute_time + 1e-12
            assert device.overlap_time <= device.comm_time + 1e-12

    def test_slower_network_increases_time(self, monkeypatch):
        plan, cluster = make_plan(seqlens=(128, 96))
        fast = simulate_plan(plan, cluster)
        slow_cluster = ClusterSpec(
            cluster.num_machines, cluster.devices_per_machine,
            inter_bandwidth=cluster.inter_bandwidth / 100,
        )
        monkeypatch.setattr(hardware, "INTRA_BANDWIDTH",
                            hardware.INTRA_BANDWIDTH / 100)
        slow = simulate_plan(plan, slow_cluster)
        assert slow.iteration_time >= fast.iteration_time


class TestModelCost:
    def test_parameter_count_of_8b_model(self):
        params = modelcost.parameter_count()
        assert 6e9 < params < 9e9  # Llama3-8B-shaped

    def test_e2e_composition(self):
        plan, cluster = make_plan()
        result = e2e_iteration_time(plan, cluster=cluster)
        expected = (
            result.num_layers
            * (
                result.attention_forward.iteration_time
                + result.attention_backward.iteration_time
            )
            + result.others_time
            + result.grad_sync_time
        )
        assert result.iteration_time == pytest.approx(expected)

    def test_more_tokens_cost_more(self, monkeypatch):
        monkeypatch.setattr(modelcost, "NUM_LAYERS", 2)
        _plan, cluster = make_plan()
        few = modelcost._others_time(np.array([1000] * 4), cluster)
        many = modelcost._others_time(np.array([100000] * 4), cluster)
        assert many > few
