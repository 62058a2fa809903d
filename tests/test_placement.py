"""Tests for hypergraph construction, heuristics and hierarchical placement."""

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, BlockKind, generate_blocks
from repro.masks import CausalMask, SharedQuestionMask
from repro.placement import (
    Placement,
    PlacementConfig,
    build_block_hypergraph,
    dp_pack_labels,
    place_blocks,
    zigzag_chunk_device,
    zigzag_labels,
)
from repro.scheduling import fill_divisions, serialize_schedule
from repro.sim import ClusterSpec


def small_block_set(seqlens=(64, 32), block_size=16, mask=None):
    batch = BatchSpec.build(list(seqlens), mask or CausalMask())
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return generate_blocks(batch, spec, block_size=block_size)


def lowered(block_set, cluster, slice_device, comp_device):
    """The one-division plan of a hand-made placement."""
    placement = Placement(block_set, cluster, slice_device, comp_device)
    return serialize_schedule(fill_divisions(block_set, placement, 1))


class TestBuildHypergraph:
    def test_vertex_counts_and_weights(self):
        block_set = small_block_set()
        bhg = build_block_hypergraph(block_set)
        num_slices = len(block_set.token_slices)
        assert bhg.graph.num_vertices == num_slices + len(block_set.comp_blocks)
        # Slice vertices carry only bytes; comp vertices only flops.
        assert np.all(bhg.graph.weights[:num_slices, 0] == 0)
        assert np.all(bhg.graph.weights[num_slices:, 1] == 0)
        assert (
            bhg.graph.weights[:num_slices, 1].sum() == block_set.total_bytes
        )
        assert (
            bhg.graph.weights[num_slices:, 0].sum() == block_set.total_flops
        )

    def test_edge_weights_are_block_bytes(self):
        block_set = small_block_set()
        bhg = build_block_hypergraph(block_set)
        for edge_index, block in enumerate(bhg.edge_blocks):
            assert (
                bhg.graph.edge_weights[edge_index]
                == block_set.block_bytes(block)
            )

    def test_connectivity_equals_comm_volume(self):
        block_set = small_block_set(seqlens=(48, 32, 16))
        bhg = build_block_hypergraph(block_set)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, bhg.graph.num_vertices)
        slice_device, comp_device = bhg.labels_to_devices(labels)
        plan = lowered(
            block_set, ClusterSpec(num_machines=2, devices_per_machine=2),
            slice_device, comp_device,
        )
        assert bhg.graph.connectivity_cost(labels, 4) == plan.total_comm_bytes()

    def test_induced_subgraph(self):
        block_set = small_block_set()
        bhg = build_block_hypergraph(block_set)
        vertices = list(range(0, bhg.graph.num_vertices, 2))
        sub, ids = bhg.induced_subgraph(vertices)
        assert sub.num_vertices == len(vertices)
        assert np.array_equal(ids, np.asarray(sorted(vertices)))
        for pin in sub.pin_lists():
            assert len(pin) >= 2


class TestHeuristics:
    def test_zigzag_chunk_pattern(self):
        assert [zigzag_chunk_device(i, 8, 4) for i in range(8)] == [
            0, 1, 2, 3, 3, 2, 1, 0,
        ]

    def test_zigzag_chunk_validation(self):
        with pytest.raises(ValueError):
            zigzag_chunk_device(9, 8, 4)

    def test_zigzag_labels_balanced_tokens(self):
        block_set = small_block_set(seqlens=(128,), block_size=16)
        bhg = build_block_hypergraph(block_set)
        labels = zigzag_labels(bhg, 4)
        slice_device, _ = bhg.labels_to_devices(labels)
        tokens = np.zeros(4, dtype=int)
        for ts, dev in zip(block_set.token_slices, slice_device):
            tokens[dev] += ts.tokens
        assert np.all(tokens == 32)

    def test_comp_blocks_follow_q(self):
        block_set = small_block_set()
        bhg = build_block_hypergraph(block_set)
        labels = zigzag_labels(bhg, 2)
        slice_device, comp_device = bhg.labels_to_devices(labels)
        slice_idx = {
            (ts.seq_index, ts.block_index): i
            for i, ts in enumerate(block_set.token_slices)
        }
        for comp, dev in zip(block_set.comp_blocks, comp_device):
            q_dev = slice_device[slice_idx[(comp.seq_index, comp.q_block)]]
            assert dev == q_dev

    def test_dp_pack_keeps_sequences_whole(self):
        block_set = small_block_set(seqlens=(64, 48, 32, 16))
        bhg = build_block_hypergraph(block_set)
        labels = dp_pack_labels(bhg, 2)
        slice_device, _ = bhg.labels_to_devices(labels)
        for seq_index in range(4):
            devices = {
                int(slice_device[i])
                for i, ts in enumerate(block_set.token_slices)
                if ts.seq_index == seq_index
            }
            assert len(devices) == 1

    def test_dp_pack_has_zero_communication(self):
        block_set = small_block_set(seqlens=(64, 48, 32, 16))
        bhg = build_block_hypergraph(block_set)
        labels = dp_pack_labels(bhg, 2)
        assert bhg.graph.connectivity_cost(labels, 2) == 0


class TestPlanBytes:
    def test_hand_built_transfers(self):
        block_set = small_block_set(seqlens=(32,), block_size=16)
        # 2 slices; place slice 0 on dev 0, slice 1 on dev 1; all comps on 0.
        slice_device = np.array([0, 1])
        comp_device = np.zeros(len(block_set.comp_blocks), dtype=np.int64)
        plan = lowered(
            block_set, ClusterSpec(num_machines=1, devices_per_machine=2),
            slice_device, comp_device,
        )
        spec = block_set.attention
        # Device 0 fetches slice 1's Q and KV, returns its O: per head group.
        expected = spec.head_groups * (
            spec.q_block_bytes(16) + spec.kv_block_bytes(16)
            + spec.o_block_bytes(16)
        )
        assert plan.total_comm_bytes() == expected
        assert plan.inter_machine_bytes() == 0
        sent = {
            device: {
                (send.tag[1].kind, send.peer)
                for ins in device_plan.instructions
                if ins.kind == "comm_launch"
                for send in ins.sends
            }
            for device, device_plan in plan.device_plans.items()
        }
        # Q and KV go from their home to the computing device, the
        # partial output back.
        assert sent == {
            0: {(BlockKind.O, 1)},
            1: {(BlockKind.Q, 0), (BlockKind.KV, 0)},
        }

    def test_inter_machine_bytes(self):
        block_set = small_block_set(seqlens=(48, 32), block_size=16)
        rng = np.random.default_rng(1)
        slice_device = rng.integers(0, 4, len(block_set.token_slices))
        comp_device = rng.integers(0, 4, len(block_set.comp_blocks))
        per_machine = {
            machines: lowered(
                block_set,
                ClusterSpec(num_machines=machines,
                            devices_per_machine=4 // machines),
                slice_device, comp_device,
            )
            for machines in (1, 2, 4)
        }
        total = per_machine[1].total_comm_bytes()
        assert total > 0
        assert per_machine[1].inter_machine_bytes() == 0
        assert 0 < per_machine[2].inter_machine_bytes() < total
        assert per_machine[4].inter_machine_bytes() == total


class TestPlaceBlocks:
    def test_balance_and_consistency(self):
        block_set = small_block_set(seqlens=(128, 64, 32), block_size=16)
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        placement = place_blocks(
            block_set, cluster, PlacementConfig(seed=0, restarts=1)
        )
        tokens = placement.tokens_per_device()
        assert tokens.sum() == block_set.batch.total_tokens
        flops = placement.flops_per_device()
        assert flops.sum() == block_set.total_flops
        # Computation balance within a generous factor of the tolerance.
        assert flops.max() <= 1.6 * flops.mean()

    def test_beats_or_ties_zigzag(self):
        block_set = small_block_set(seqlens=(96, 48, 32, 16), block_size=16)
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        placement = place_blocks(
            block_set, cluster, PlacementConfig(seed=1, restarts=1)
        )
        bhg = build_block_hypergraph(block_set)
        zz = zigzag_labels(bhg, cluster.num_devices)
        zz_cost = bhg.graph.connectivity_cost(zz, cluster.num_devices)
        plan = lowered(
            block_set, cluster, placement.slice_device, placement.comp_device
        )
        assert plan.total_comm_bytes() <= zz_cost

    def test_single_device_no_comm(self):
        block_set = small_block_set()
        cluster = ClusterSpec(num_machines=1, devices_per_machine=1)
        placement = place_blocks(block_set, cluster)
        plan = lowered(
            block_set, cluster, placement.slice_device, placement.comp_device
        )
        assert plan.total_comm_bytes() == 0

    def test_masked_batch_discards_masked_work(self):
        mask = SharedQuestionMask(num_answers=2, answer_fraction=0.25)
        block_set = small_block_set(seqlens=(64,), block_size=8, mask=mask)
        causal_set = small_block_set(seqlens=(64,), block_size=8)
        assert block_set.total_flops < causal_set.total_flops
