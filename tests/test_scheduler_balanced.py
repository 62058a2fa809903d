"""Tests for the compute-balanced division scheduler (§7.5 extension)."""

import numpy as np
import pytest

from repro import AttentionSpec, BatchSpec, ClusterSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask, LambdaMask
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.scheduling import (
    CommLaunch,
    fill_divisions,
    serialize_schedule,
    validate_plan,
)
from repro.sim import simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def _schedule(strategy, seqlens=(256, 128, 64), mask=None, divisions=4):
    batch = BatchSpec.build(list(seqlens), mask or CausalMask())
    block_set = generate_blocks(batch, ATTENTION, block_size=16)
    placement = place_blocks(
        block_set, CLUSTER, PlacementConfig(seed=0, restarts=1)
    )
    return fill_divisions(
        block_set, placement, num_divisions=divisions, strategy=strategy
    )


class TestBalancedScheduler:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            _schedule("zigzag")

    def test_config_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            DCPConfig(scheduler="wrong")

    def test_all_blocks_scheduled_once(self):
        for strategy in ("paper", "balanced"):
            schedule = _schedule(strategy)
            scheduled = [
                comp
                for ds in schedule.device_schedules.values()
                for comp in [c for d in ds.divisions for c in d]
            ]
            assert len(scheduled) == len(schedule.block_set.comp_blocks)
            assert len(set(map(id, scheduled))) == len(scheduled)

    def test_plans_validate(self):
        for strategy in ("paper", "balanced"):
            plan = serialize_schedule(_schedule(strategy))
            validate_plan(plan)

    @pytest.mark.parametrize("mask", [CausalMask(), LambdaMask(4, 24)],
                             ids=lambda m: m.name)
    def test_numerics_identical(self, mask):
        """Strategy changes ordering, never results."""
        plan = serialize_schedule(_schedule("balanced", mask=mask))
        executor = SimExecutor(plan)
        inputs = BatchInputs.random(plan.block_set, seed=2)
        executor.load_inputs(inputs)
        executor.run()
        outputs = executor.gather_outputs()
        references = reference_batch_outputs(plan.block_set, inputs)
        for out, ref in zip(outputs, references):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    def test_balanced_spreads_division_compute(self):
        """Per-division compute variance shrinks under 'balanced'."""

        def spread(schedule):
            worst = 0.0
            for ds in schedule.device_schedules.values():
                pairs = np.array(
                    [sum(c.pairs for c in div) for div in ds.divisions],
                    dtype=np.float64,
                )
                if pairs.sum() == 0:
                    continue
                worst = max(worst, float(pairs.max() / pairs.mean()))
            return worst

        paper = spread(_schedule("paper"))
        balanced = spread(_schedule("balanced"))
        assert balanced <= paper + 1e-9

    def test_balanced_respects_comm_budget_middle_divisions(self):
        schedule = _schedule("balanced")
        plan = serialize_schedule(schedule)
        block_bytes = schedule.block_set.block_bytes
        for device, ds in schedule.device_schedules.items():
            outputs = {
                send.tag[1]
                for op in plan.device_plans[device].instructions
                if isinstance(op, CommLaunch)
                for send in op.sends
                if send.tag[0] == "out"
            }
            total = sum(
                block_bytes(b) for fetch in ds.fetches for b in fetch
            ) + sum(block_bytes(b) for b in outputs)
            if total == 0:
                continue
            limit = total / schedule.num_divisions
            for division in range(1, schedule.num_divisions - 1):
                fetched = sum(block_bytes(b) for b in ds.fetches[division])
                assert fetched <= limit + 1e-9

    def test_division_zero_communication_free(self):
        schedule = _schedule("balanced")
        for ds in schedule.device_schedules.values():
            assert not ds.fetches[0]

    def test_planner_accepts_strategy(self):
        batch = BatchSpec.build([256, 64], CausalMask())
        block_set = generate_blocks(batch, ATTENTION, block_size=16)
        planner = DCPPlanner(
            CLUSTER, ATTENTION,
            DCPConfig(block_size=16, scheduler="balanced",
                      placement=PlacementConfig(restarts=1)),
        )
        plan = planner.plan(block_set, CLUSTER)
        validate_plan(plan)
        assert simulate_plan(plan).iteration_time > 0

    def test_single_division_everything_in_last(self):
        schedule = _schedule("balanced", divisions=1)
        for ds in schedule.device_schedules.values():
            assert len(ds.divisions) == 1
