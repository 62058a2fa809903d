"""Tests for plan validation, memory accounting and group-wise scaling."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    generate_blocks,
    make_mask,
)
from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.parallel import split_batch_by_workload
from repro.placement import PlacementConfig, place_blocks
from repro.scheduling import (
    PlanValidationError,
    build_schedule,
    serialize_backward_schedule,
    serialize_schedule,
    validate_plan,
)
from repro.scheduling.instructions import CommWait
from repro.sim import plan_memory

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def dcp_plan(seqlens=(96, 64, 32), mask=None, seed=0):
    batch = BatchSpec.build(list(seqlens), mask or make_mask("causal"))
    block_set = generate_blocks(batch, ATTENTION, block_size=16)
    planner = DCPPlanner(CLUSTER, ATTENTION,
                         DCPConfig(
                             block_size=16,
                             placement=PlacementConfig(restarts=1, seed=seed),
                         ))
    return planner.plan(block_set), block_set


class TestValidatePlan:
    def test_dcp_plans_validate(self):
        for seed in range(3):
            plan, _ = dcp_plan(seed=seed)
            validate_plan(plan)

    def test_baseline_plans_validate(self):
        batch = BatchSpec.build([96, 64], make_mask("causal"))
        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        for planner in (RingAttentionPlanner(), RingAttentionPlanner(True),
                        TransformerEnginePlanner()):
            validate_plan(planner.plan(block_set, CLUSTER))

    @pytest.mark.parametrize(
        "serialize",
        [serialize_schedule, serialize_backward_schedule],
        ids=["forward", "backward"],
    )
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seq_index", 7, "unknown sequence"),
            ("q_block", 99, "outside sequence"),
            ("kv_block", 99, "outside sequence"),
        ],
    )
    def test_detects_tile_outside_batch(self, serialize, field, value, message):
        batch = BatchSpec.build([96, 64, 32], make_mask("causal"))
        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        placement = place_blocks(
            block_set, CLUSTER, PlacementConfig(seed=0, restarts=1)
        )
        plan = serialize(build_schedule(block_set, placement))
        validate_plan(plan)
        instructions, index = next(
            (device_plan.instructions, index)
            for device_plan in plan.device_plans.values()
            for index, instruction in enumerate(device_plan.instructions)
            if instruction.kind in ("attention", "attention_backward")
        )
        kernel = instructions[index]
        tile = kernel.tiles[0]
        if hasattr(tile, field):
            tile = replace(tile, **{field: value})
        else:  # the side the tile walks: its first block
            walked = getattr(tile, field + "s")
            tile = replace(tile, **{field + "s": (value, *walked[1:])})
        instructions[index] = replace(kernel, tiles=(tile, *kernel.tiles[1:]))
        with pytest.raises(PlanValidationError, match=message):
            validate_plan(plan)

    def test_detects_wait_without_launch(self):
        plan, _ = dcp_plan()
        plan.device_plans[0].instructions.insert(0, CommWait(op_id=424242))
        with pytest.raises(PlanValidationError, match="unlaunched"):
            validate_plan(plan)

    def test_detects_unmatched_send(self):
        plan, _ = dcp_plan(seqlens=(128, 64, 48))
        # Drop one device's instructions entirely: its sends/recvs vanish
        # while peers still expect them.
        victim = None
        for device, device_plan in plan.device_plans.items():
            if any(ins.kind == "comm_launch"
                   for ins in device_plan.instructions):
                victim = device
                break
        assert victim is not None
        plan.device_plans[victim].instructions = [
            ins for ins in plan.device_plans[victim].instructions
            if ins.kind not in ("comm_launch", "comm_wait")
        ]
        with pytest.raises(PlanValidationError, match="unmatched"):
            validate_plan(plan)


class TestPlanMemory:
    def test_memory_positive_and_tracks_tokens(self):
        plan, block_set = dcp_plan()
        report = plan_memory(plan)
        assert report.max_bytes > 0
        assert sum(report.per_device.values()) >= report.max_bytes
        # Total local Q/KV/O must be at least the batch's footprint.
        assert sum(report.per_device.values()) >= block_set.total_bytes

    def test_memory_roughly_balanced(self):
        plan, _ = dcp_plan(seqlens=(256, 128, 64, 32))
        report = plan_memory(plan)
        assert report.imbalance() < 1.0

    def test_empty_report(self):
        from repro.sim.memory import MemoryReport

        assert MemoryReport({}).max_bytes == 0
        assert MemoryReport({}).imbalance() == 0.0


class TestGroups:
    def test_split_balances_workload(self):
        batch = BatchSpec.build([256, 128, 128, 64, 64, 64],
                                make_mask("causal"))
        groups = split_batch_by_workload(batch, 2)
        loads = [
            sum(s.mask.total_pairs(s.seqlen) for s in g.sequences)
            for g in groups
        ]
        assert max(loads) <= 1.5 * min(loads)

    @given(
        seqlens=st.lists(st.integers(min_value=1, max_value=300),
                         min_size=1, max_size=12),
        num_groups=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_split_is_a_partition_within_one_sequence_of_balance(
        self, seqlens, num_groups
    ):
        """Every sequence lands in exactly one group, and LPT leaves the
        heaviest group at most one sequence's work above the lightest."""
        batch = BatchSpec.build(seqlens, make_mask("causal"))
        groups = split_batch_by_workload(batch, num_groups)
        assert len(groups) == num_groups
        placed = [s.seqlen for g in groups if g is not None for s in g.sequences]
        assert sorted(placed) == sorted(seqlens)
        loads = [
            sum(s.mask.total_pairs(s.seqlen) for s in g.sequences) if g else 0
            for g in groups
        ]
        heaviest = max(s.mask.total_pairs(s.seqlen) for s in batch.sequences)
        assert max(loads) - min(loads) <= heaviest

    def test_more_groups_than_sequences(self):
        batch = BatchSpec.build([64], make_mask("causal"))
        groups = split_batch_by_workload(batch, 3)
        assert sum(g is not None for g in groups) == 1

    def test_invalid_group_count(self):
        batch = BatchSpec.build([64], make_mask("causal"))
        with pytest.raises(ValueError):
            split_batch_by_workload(batch, 0)
