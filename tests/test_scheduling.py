"""Tests for division scheduling, buffers and plan serialization."""

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.masks import CausalMask
from repro.placement import PlacementConfig, build_block_hypergraph, place_blocks
from repro.scheduling import (
    BlockwiseAttention,
    BufferManager,
    CommLaunch,
    CommWait,
    build_schedule,
    fill_divisions,
    serialize_schedule,
)
from repro.sim import ClusterSpec


def planned(seqlens=(96, 48), block_size=16, num_divisions=4, mask=None,
            machines=2, devices=2, seed=0):
    batch = BatchSpec.build(list(seqlens), mask or CausalMask())
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    block_set = generate_blocks(batch, spec, block_size=block_size)
    cluster = ClusterSpec(num_machines=machines, devices_per_machine=devices)
    placement = place_blocks(
        block_set, cluster, PlacementConfig(seed=seed, restarts=1)
    )
    # The fixed-T primitive: these tests assert on Listing 3's structure.
    schedule = fill_divisions(block_set, placement, num_divisions)
    return block_set, placement, schedule


class TestBufferManager:
    def test_alloc_sequential(self):
        manager = BufferManager()
        assert [manager.alloc("q") for _ in range(3)] == [0, 1, 2]
        assert manager.sizes().get("q", 0) == 3

    def test_free_and_reuse(self):
        manager = BufferManager()
        first = manager.alloc("kv")
        manager.alloc("kv")
        manager.free("kv", first)
        assert manager.alloc("kv") == first
        assert manager.sizes().get("kv", 0) == 2

    def test_double_free_rejected(self):
        manager = BufferManager()
        slot = manager.alloc("q")
        manager.free("q", slot)
        with pytest.raises(ValueError):
            manager.free("q", slot)

    def test_namespaces_independent(self):
        manager = BufferManager()
        assert manager.alloc("q") == 0
        assert manager.alloc("kv") == 0
        assert len(manager._live.get("q", ())) == 1


class TestDivisions:
    def test_every_block_scheduled_exactly_once(self):
        block_set, placement, schedule = planned()
        seen = []
        for device_schedule in schedule.device_schedules.values():
            seen.extend([c for d in device_schedule.divisions for c in d])
        assert sorted(seen) == sorted(block_set.comp_blocks)

    def test_blocks_stay_on_assigned_device(self):
        block_set, placement, schedule = planned()
        comp_dev = {
            comp: int(dev)
            for comp, dev in zip(block_set.comp_blocks, placement.comp_device)
        }
        for device, device_schedule in schedule.device_schedules.items():
            for comp in [c for d in device_schedule.divisions for c in d]:
                assert comp_dev[comp] == device

    def test_division_zero_is_communication_free(self):
        block_set, placement, schedule = planned()
        slice_idx = {
            (ts.seq_index, ts.block_index): i
            for i, ts in enumerate(block_set.token_slices)
        }
        for device, device_schedule in schedule.device_schedules.items():
            assert device_schedule.fetches[0] == []
            for comp in device_schedule.divisions[0]:
                for block in comp.inputs:
                    home = int(
                        placement.slice_device[
                            slice_idx[(block.seq_index, block.block_index)]
                        ]
                    )
                    assert home == device

    def test_fetches_are_marginal(self):
        _, _, schedule = planned(seqlens=(128, 64), num_divisions=3)
        for device_schedule in schedule.device_schedules.values():
            flat = [
                block
                for fetch_list in device_schedule.fetches
                for block in fetch_list
            ]
            assert len(flat) == len(set(flat)), "remote block fetched twice"

    def test_output_sends_match_placement(self):
        block_set, placement, schedule = planned(seed=2)
        slice_idx = {
            (ts.seq_index, ts.block_index): i
            for i, ts in enumerate(block_set.token_slices)
        }
        for device, device_schedule in schedule.device_schedules.items():
            expected = set()
            for comp in [c for d in device_schedule.divisions for c in d]:
                home = int(
                    placement.slice_device[
                        slice_idx[(comp.seq_index, comp.q_block)]
                    ]
                )
                if home != device:
                    expected.add(comp.output)
            assert set(device_schedule.output_sends) == expected

    def test_single_division(self):
        _, _, schedule = planned(num_divisions=1)
        for device_schedule in schedule.device_schedules.values():
            assert len(device_schedule.divisions) == 1

    def test_invalid_divisions_rejected(self):
        block_set, placement, _ = planned()
        with pytest.raises(ValueError):
            build_schedule(block_set, placement, 0)


class TestSerialization:
    def test_every_wait_has_a_launch(self):
        _, _, schedule = planned()
        plan = serialize_schedule(schedule)
        for device_plan in plan.device_plans.values():
            launched = set()
            for instruction in device_plan.instructions:
                if isinstance(instruction, CommLaunch):
                    launched.add(instruction.op_id)
                elif isinstance(instruction, CommWait):
                    assert instruction.op_id in launched

    def test_sends_and_recvs_pair_up(self):
        _, _, schedule = planned(seqlens=(128, 64, 32))
        plan = serialize_schedule(schedule)
        sends, recvs = set(), set()
        for device, device_plan in plan.device_plans.items():
            for instruction in device_plan.instructions:
                if not isinstance(instruction, CommLaunch):
                    continue
                for send in instruction.sends:
                    sends.add((device, send.peer, send.tag))
                for recv in instruction.recvs:
                    recvs.add((recv.peer, device, recv.tag))
        assert sends == recvs

    def test_tiles_reference_valid_slots(self):
        _, _, schedule = planned()
        plan = serialize_schedule(schedule)
        for device_plan in plan.device_plans.values():
            sizes = device_plan.buffer_sizes
            for instruction in device_plan.instructions:
                if not isinstance(instruction, BlockwiseAttention):
                    continue
                for tile in instruction.tiles:
                    assert 0 <= tile.q_slot < sizes.get("q", 0)
                    assert 0 <= tile.acc_slot < sizes.get("acc", 0)
                    assert len(tile.kv_slots) == len(tile.kv_blocks) > 0
                    for kv_slot in tile.kv_slots:
                        assert 0 <= kv_slot < sizes.get("kv", 0)

    def test_o_slots_cover_local_outputs(self):
        block_set, placement, schedule = planned()
        plan = serialize_schedule(schedule)
        groups = block_set.attention.head_groups
        for device, device_plan in plan.device_plans.items():
            expected = {
                (ts.seq_index, ts.block_index, hg)
                for ts in device_plan.local_slices
                for hg in range(groups)
            }
            assert set(device_plan.o_slots) == expected

    def test_comm_bytes_match_connectivity(self):
        """The lowered plan moves exactly the partitioner's objective."""
        block_set, placement, schedule = planned(seqlens=(128, 48, 32))
        plan = serialize_schedule(schedule)
        labels = np.concatenate([placement.slice_device, placement.comp_device])
        graph = build_block_hypergraph(block_set).graph
        assert plan.total_comm_bytes() == graph.connectivity_cost(
            labels, placement.cluster.num_devices
        )

    def test_division_count_in_meta(self):
        _, _, schedule = planned(num_divisions=3)
        plan = serialize_schedule(schedule)
        assert plan.meta["num_divisions"] == 3
