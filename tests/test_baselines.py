"""Tests for the baseline planners (RFA, TE, LoongTrain)."""

import math

import numpy as np
import pytest

from repro.baselines import (
    LoongTrainPlanner,
    RingAttentionPlanner,
    TransformerEnginePlanner,
    slice_positions,
)
from repro.baselines.loongtrain import pad_batch
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.scheduling import validate_plan
from repro.sim import ClusterSpec, simulate_plan
from ring_oracles import plan_ring_backward


def build(seqlens=(96, 48, 32), mask=None, block_size=16):
    batch = BatchSpec.build(list(seqlens), mask or CausalMask())
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return generate_blocks(batch, spec, block_size=block_size)


CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


class TestAssignments:
    def test_contiguous_splits_in_order(self):
        block_set = build(seqlens=(128,), block_size=16)  # 8 slices
        assign = slice_positions(block_set, 4, zigzag=False)
        assert assign.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_zigzag_mirrors(self):
        block_set = build(seqlens=(128,), block_size=16)
        assign = slice_positions(block_set, 4, zigzag=True)
        assert assign.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]

    def test_short_sequence_covers_prefix_devices(self):
        block_set = build(seqlens=(32,), block_size=16)  # 2 slices, k=4
        assign = slice_positions(block_set, 4, zigzag=False)
        assert set(assign.tolist()) <= {0, 1, 2, 3}


@pytest.mark.parametrize(
    "planner",
    [
        RingAttentionPlanner(zigzag=False),
        RingAttentionPlanner(zigzag=True),
        TransformerEnginePlanner(),
    ],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize(
    "mask",
    [CausalMask(), LambdaMask(sink=4, window=12),
     SharedQuestionMask(num_answers=2, answer_fraction=0.3)],
    ids=lambda m: m.name,
)
def test_baseline_numerics(planner, mask):
    block_set = build(mask=mask)
    plan = planner.plan(block_set, CLUSTER)
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(block_set, seed=9)
    executor.load_inputs(inputs)
    executor.run()
    outputs = executor.gather_outputs()
    references = reference_batch_outputs(block_set, inputs)
    for out, ref in zip(outputs, references):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


PIN_BATCHES = {
    "causal_2x2": (
        dict(seqlens=(96, 48, 32)),
        ClusterSpec(num_machines=2, devices_per_machine=2),
    ),
    "sparse_2x4": (
        dict(seqlens=(160, 96, 64, 32),
             mask=SharedQuestionMask(num_answers=2, answer_fraction=0.3)),
        ClusterSpec(num_machines=2, devices_per_machine=4),
    ),
}

# Simulated forward + backward ms and total comm bytes of each baseline:
# the denominators of every DCP speedup.  A refactor of the static ring
# must reproduce them exactly.  RingFlashAttention merges nothing, so
# its devices finalize in their last attention kernel: one launch fewer
# per device in each replay than a standalone reduction (-0.04 ms).
# Every ring step takes one tile per Q row, as DCP's kernels do; that
# took 0.006-0.054 ms off each pin (per-pair tiles: 0.324 ms for
# rfa_ring on causal_2x2), the bytes unchanged.
BASELINE_PINS = {
    ("rfa_ring", "causal_2x2"): (0.306041703931624, 67584),
    ("rfa_zigzag", "causal_2x2"): (0.3400339035897436, 67584),
    ("te", "causal_2x2"): (0.3081293675213676, 56320),
    ("loongtrain", "causal_2x2"): (0.3262198153846154, 92160),
    ("rfa_ring", "sparse_2x4"): (0.6261000232478632, 315392),
    ("rfa_zigzag", "sparse_2x4"): (0.6780331049572649, 315392),
    ("te", "sparse_2x4"): (0.6282135384615383, 202752),
    ("loongtrain", "sparse_2x4"): (0.6594997880341879, 368640),
}
PIN_PLANNERS = {
    "rfa_ring": RingAttentionPlanner(zigzag=False),
    "rfa_zigzag": RingAttentionPlanner(zigzag=True),
    "te": TransformerEnginePlanner(),
    "loongtrain": LoongTrainPlanner(),
}


@pytest.mark.parametrize("planner_name,batch_name", sorted(BASELINE_PINS))
def test_baseline_denominators_pinned(planner_name, batch_name):
    build_kwargs, cluster = PIN_BATCHES[batch_name]
    plan = PIN_PLANNERS[planner_name].plan(build(**build_kwargs), cluster)
    ms = 1e3 * (
        simulate_plan(plan).iteration_time
        + simulate_plan(plan, backward=True).iteration_time
    )
    assert (ms, plan.total_comm_bytes()) == BASELINE_PINS[(planner_name, batch_name)]


# Simulated ms and total comm bytes of the RFA backward plan: KV and its
# dKV accumulator circulate, then every accumulator takes one hop home.
# Recorded before the backward joined the forward's ring lowering.
RING_BACKWARD_PINS = {
    ("rfa_ring", "causal_2x2"): (0.2656184072283273, 157696),
    ("rfa_zigzag", "causal_2x2"): (0.2534625551159952, 157696),
    ("rfa_ring", "sparse_2x4"): (0.5030597411477405, 675840),
    ("rfa_zigzag", "sparse_2x4"): (0.4788442744810741, 675840),
}


@pytest.mark.parametrize("planner_name,batch_name", sorted(RING_BACKWARD_PINS))
def test_ring_backward_denominators_pinned(planner_name, batch_name):
    build_kwargs, cluster = PIN_BATCHES[batch_name]
    plan = plan_ring_backward(
        build(**build_kwargs), cluster, zigzag=planner_name == "rfa_zigzag"
    )
    ms = 1e3 * simulate_plan(plan).iteration_time
    assert (ms, plan.total_comm_bytes()) == RING_BACKWARD_PINS[
        (planner_name, batch_name)
    ]


class TestRingProperties:
    def test_static_comm_independent_of_mask(self):
        """Ring forwards every KV block every step, mask or not."""
        causal = RingAttentionPlanner().plan(build(), CLUSTER)
        sparse = RingAttentionPlanner().plan(
            build(mask=LambdaMask(sink=4, window=12)), CLUSTER
        )
        assert causal.total_comm_bytes() == sparse.total_comm_bytes()

    def test_comm_volume_formula(self):
        """Each KV block travels R-1 hops around the ring."""
        block_set = build(seqlens=(64,), block_size=16)
        plan = RingAttentionPlanner().plan(block_set, CLUSTER)
        spec = block_set.attention
        total_kv = 4 * spec.head_groups * spec.kv_block_bytes(16)
        expected = total_kv * (CLUSTER.num_devices - 1)
        assert plan.total_comm_bytes() == expected

    def test_zigzag_balances_causal_compute(self):
        block_set = build(seqlens=(256,), block_size=16)
        ring_plan = RingAttentionPlanner(zigzag=False).plan(block_set, CLUSTER)
        zz_plan = RingAttentionPlanner(zigzag=True).plan(block_set, CLUSTER)

        def compute_spread(plan):
            timing = simulate_plan(plan)
            compute = [d.compute_time for d in timing.devices.values()]
            return max(compute) / (sum(compute) / len(compute))

        assert compute_spread(zz_plan) < compute_spread(ring_plan)


class TestTEProperties:
    def test_less_comm_than_rfa(self):
        """Head parallelism shrinks the ring: less KV traffic."""
        block_set = build(seqlens=(128, 64))
        rfa = RingAttentionPlanner().plan(block_set, CLUSTER)
        te = TransformerEnginePlanner().plan(block_set, CLUSTER)
        assert te.total_comm_bytes() < rfa.total_comm_bytes()

    @pytest.mark.parametrize(
        "groups, devices", [(4, 1), (4, 2), (4, 6), (2, 3)]
    )
    def test_head_rows_divide_groups_and_devices(self, groups, devices):
        """Devices that do not split into one head row per KV group get
        ``gcd(groups, devices)`` head rows; the plan validates and
        computes the reference attention."""
        spec = AttentionSpec(num_q_heads=8, num_kv_groups=groups, head_dim=16)
        batch = BatchSpec.build([96, 48, 32], CausalMask())
        block_set = generate_blocks(batch, spec, block_size=16)
        cluster = ClusterSpec(num_machines=1, devices_per_machine=devices)
        plan = TransformerEnginePlanner().plan(block_set, cluster)
        assert plan.meta["head_parallel"] == math.gcd(groups, devices)
        validate_plan(plan)
        executor = SimExecutor(plan)
        inputs = BatchInputs.random(block_set, seed=9)
        executor.load_inputs(inputs)
        executor.run()
        references = reference_batch_outputs(block_set, inputs)
        for out, ref in zip(executor.gather_outputs(), references):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    def test_head_rows_split_work(self):
        block_set = build(seqlens=(128,))
        plan = TransformerEnginePlanner().plan(block_set, CLUSTER)
        # Every attention tile on device d must belong to head row d % hp.
        hp = plan.meta["head_parallel"]
        for device, device_plan in plan.device_plans.items():
            for instruction in device_plan.instructions:
                if instruction.kind != "attention":
                    continue
                for tile in instruction.tiles:
                    assert tile.head_group % hp == device % hp


class TestLoongTrain:
    def test_pad_batch(self):
        batch = BatchSpec.build([100, 60, 30], CausalMask())
        padded = pad_batch(batch)
        assert all(seq.seqlen == 100 for seq in padded.sequences)

    def test_padding_inflates_compute_and_comm(self):
        block_set = build(seqlens=(96, 32, 32))
        lt = LoongTrainPlanner().plan(block_set, CLUSTER)
        te = TransformerEnginePlanner().plan(block_set, CLUSTER)
        assert lt.meta["padded_tokens"] > lt.meta["real_tokens"]
        assert lt.total_comm_bytes() > te.total_comm_bytes()

    def test_plan_is_timeable(self):
        block_set = build()
        plan = LoongTrainPlanner().plan(block_set, CLUSTER)
        timing = simulate_plan(plan)
        assert timing.iteration_time > 0
