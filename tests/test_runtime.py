"""Tests for kernels, fabric and the simulated executor."""

import numpy as np
import pytest

from mask_oracles import mask_id
from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import (
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    LambdaMask,
    PackedDocumentMask,
    SharedQuestionMask,
    make_mask,
)
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import (
    BatchInputs,
    Fabric,
    SimExecutor,
    empty_partial,
    finalize,
    merge_partials,
    reference_attention,
    reference_batch_outputs,
    tile_attention,
)
from repro.scheduling import fill_divisions, serialize_schedule
from repro.sim import ClusterSpec


class TestKernels:
    def _random_tile(self, rng, heads=2, q_rows=8, k_rows=8, dim=4):
        q = rng.standard_normal((heads, q_rows, dim)).astype(np.float32)
        k = rng.standard_normal((k_rows, dim)).astype(np.float32)
        v = rng.standard_normal((k_rows, dim)).astype(np.float32)
        return q, k, v

    def test_single_tile_matches_dense_softmax(self):
        rng = np.random.default_rng(0)
        q, k, v = self._random_tile(rng)
        mask = np.tril(np.ones((8, 8), dtype=bool))
        state = tile_attention(q, k, v, mask, scale=0.5)
        out = finalize(state)
        for head in range(2):
            scores = (q[head] @ k.T) * 0.5
            scores = np.where(mask, scores, -np.inf)
            probs = np.exp(scores - scores.max(axis=1, keepdims=True))
            probs = np.where(mask, probs, 0)
            probs /= probs.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(out[head], probs @ v, rtol=1e-5,
                                       atol=1e-6)

    def test_merge_is_order_invariant(self):
        rng = np.random.default_rng(1)
        q, _, _ = self._random_tile(rng, k_rows=24)
        k = rng.standard_normal((24, 4)).astype(np.float32)
        v = rng.standard_normal((24, 4)).astype(np.float32)
        full_mask = np.ones((8, 24), dtype=bool)
        whole = finalize(tile_attention(q, k, v, full_mask, 0.5))

        # Split KV into three chunks, merge in two different orders.
        parts = []
        for lo, hi in ((0, 8), (8, 16), (16, 24)):
            parts.append(
                tile_attention(q, k[lo:hi], v[lo:hi],
                               np.ones((8, hi - lo), dtype=bool), 0.5)
            )
        forward = empty_partial(2, 8, 4)
        for part in parts:
            merge_partials(forward, part.copy())
        backward = empty_partial(2, 8, 4)
        for part in reversed(parts):
            merge_partials(backward, part.copy())
        np.testing.assert_allclose(finalize(forward), whole, rtol=1e-5,
                                   atol=1e-6)
        np.testing.assert_allclose(finalize(backward), whole, rtol=1e-5,
                                   atol=1e-6)

    def test_fully_masked_rows_produce_zeros(self):
        rng = np.random.default_rng(2)
        q, k, v = self._random_tile(rng)
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, :] = True
        out = finalize(tile_attention(q, k, v, mask, 0.5))
        assert np.all(out[:, 1:, :] == 0)
        assert np.any(out[:, 0, :] != 0)

    def test_empty_partial_finalizes_to_zeros(self):
        out = finalize(empty_partial(2, 4, 8))
        assert out.shape == (2, 4, 8)
        assert np.all(out == 0)


class TestFabric:
    def test_post_collect_roundtrip(self):
        fabric = Fabric(ClusterSpec(2, 2))
        fabric.post(0, 3, ("t",), "payload", 100)
        assert fabric.ready(0, 3, ("t",))
        message = fabric.collect(0, 3, ("t",))
        assert message.payload == "payload"
        assert not fabric.ready(0, 3, ("t",))

    def test_duplicate_post_rejected(self):
        fabric = Fabric(ClusterSpec(2, 2))
        fabric.post(0, 1, ("t",), None, 1)
        with pytest.raises(RuntimeError):
            fabric.post(0, 1, ("t",), None, 1)

    def test_traffic_accounting(self):
        fabric = Fabric(ClusterSpec(2, 2))
        fabric.post(0, 1, ("a",), None, 100)  # intra-machine
        fabric.post(0, 2, ("b",), None, 50)  # inter-machine
        assert fabric.total_bytes == 150
        assert fabric.inter_machine_bytes == 50
        assert fabric.message_count == 2
        assert fabric.link_bytes[(0, 2)] == 50


def run_dcp(seqlens, mask, block_size=16, machines=2, devices=2,
            num_divisions=4, seed=0):
    batch = BatchSpec.build(list(seqlens), mask)
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    block_set = generate_blocks(batch, spec, block_size=block_size)
    cluster = ClusterSpec(num_machines=machines, devices_per_machine=devices)
    placement = place_blocks(block_set, cluster,
                             PlacementConfig(seed=seed, restarts=1))
    plan = serialize_schedule(
        fill_divisions(block_set, placement, num_divisions)
    )
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(block_set, seed=seed + 100)
    executor.load_inputs(inputs)
    executor.run()
    return executor, block_set, inputs, placement


class TestExecutor:
    @pytest.mark.parametrize(
        "mask",
        [
            CausalMask(),
            LambdaMask(sink=4, window=12),
            SharedQuestionMask(num_answers=2, answer_fraction=0.3),
            make_mask("causal_blockwise", block=8, window_blocks=2,
                      sink_blocks=1),
            PackedDocumentMask(doc_lens=(20, 30, 14)),
            DilatedBlockMask(block=8, stride=2, window=16),
            GlobalTokenMask(every=16, window=8),
        ],
        ids=mask_id,
    )
    def test_numerics_match_reference(self, mask):
        executor, block_set, inputs, _ = run_dcp((80, 48, 20), mask)
        outputs = executor.gather_outputs()
        references = reference_batch_outputs(block_set, inputs)
        for out, ref in zip(outputs, references):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    @pytest.mark.parametrize("num_divisions", [1, 2, 3, 6])
    def test_any_division_count(self, num_divisions):
        executor, block_set, inputs, _ = run_dcp(
            (64, 32), CausalMask(), num_divisions=num_divisions
        )
        outputs = executor.gather_outputs()
        references = reference_batch_outputs(block_set, inputs)
        for out, ref in zip(outputs, references):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    @pytest.mark.parametrize("planner", ["dcp", "te", "rfa_zigzag"])
    @pytest.mark.parametrize("devices", [2, 4], ids=lambda d: f"2x{d}")
    def test_fabric_traffic_matches_plan_bytes(self, planner, devices):
        """What the plan says it moves is what execution moves."""
        batch = BatchSpec.build([96, 48, 24], CausalMask())
        spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        block_set = generate_blocks(batch, spec, block_size=16)
        cluster = ClusterSpec(num_machines=2, devices_per_machine=devices)
        if planner == "dcp":
            plan = DCPPlanner(
                cluster, spec, DCPConfig(
                    block_size=16,
                    placement=PlacementConfig(restarts=1, seed=3),
                )
            ).plan(block_set)
        else:
            baseline = (
                TransformerEnginePlanner()
                if planner == "te"
                else RingAttentionPlanner(zigzag=True)
            )
            plan = baseline.plan(block_set, cluster)
        executor = SimExecutor(plan)
        executor.load_inputs(BatchInputs.random(block_set, seed=103))
        executor.run()
        assert plan.total_comm_bytes() > 0
        assert executor.fabric.total_bytes == plan.total_comm_bytes()
        assert executor.fabric.inter_machine_bytes == plan.inter_machine_bytes()

    def test_ragged_tail_blocks(self):
        executor, block_set, inputs, _ = run_dcp((50, 23), CausalMask())
        outputs = executor.gather_outputs()
        references = reference_batch_outputs(block_set, inputs)
        for out, ref in zip(outputs, references):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)

    def test_deadlock_detection(self):
        from repro.scheduling.instructions import CommWait, DevicePlan, ExecutionPlan

        batch = BatchSpec.build([16], CausalMask())
        spec = AttentionSpec(num_q_heads=2, num_kv_groups=1, head_dim=8)
        block_set = generate_blocks(batch, spec, block_size=16)
        cluster = ClusterSpec(1, 2)
        # A wait with no matching launch anywhere: deadlock.
        bad = ExecutionPlan(
            block_set=block_set,
            cluster=cluster,
            device_plans={
                0: DevicePlan(0, [CommWait(op_id=1)], {}, []),
                1: DevicePlan(1, [], {}, []),
            },
        )
        executor = SimExecutor(bad)
        # CommWait with unknown op: pending_recvs empty -> completes; build
        # a real deadlock instead with a recv that is never sent.
        from repro.scheduling.instructions import CommLaunch, RecvArg

        bad.device_plans[0].instructions = [
            CommLaunch(
                op_id=1,
                recvs=(RecvArg(peer=1, buffer="q", slot=0, tag=("x",),
                               nbytes=4),),
            ),
            CommWait(op_id=1),
        ]
        bad.device_plans[0].buffer_sizes = {"q": 1}
        executor = SimExecutor(bad)
        with pytest.raises(RuntimeError, match="deadlock"):
            executor.run()


class TestReference:
    def test_gqa_head_group_mapping(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((4, 10, 8)).astype(np.float32)
        k = rng.standard_normal((2, 10, 8)).astype(np.float32)
        v = rng.standard_normal((2, 10, 8)).astype(np.float32)
        mask = np.ones((10, 10), dtype=bool)
        out = reference_attention(q, k, v, mask, q_heads_per_group=2)
        # Heads 0,1 use group 0; heads 2,3 use group 1.
        out_swapped = reference_attention(
            q[[2, 3, 0, 1]], k[[1, 0]], v[[1, 0]], mask, 2
        )
        np.testing.assert_allclose(out[[2, 3, 0, 1]], out_swapped, rtol=1e-5)
