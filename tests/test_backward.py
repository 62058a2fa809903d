"""Tests for the distributed attention backward pass."""

import numpy as np
import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    generate_blocks,
    make_mask,
)
from repro.model.attention import attention_forward_backward
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import (
    BatchInputs,
    finalize,
    finalize_with_lse,
    run_forward_backward,
    tile_attention,
    tile_backward,
)
from repro.scheduling import (
    fill_divisions,
    serialize_backward_schedule,
    serialize_schedule,
    validate_plan,
)
from repro.scheduling.instructions import BlockwiseAttention
from repro.sim import cluster as hardware
from repro.sim import simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)


def make_schedule(seqlens, mask, machines=2, devices=2, num_divisions=4,
                  seed=0, block_size=16):
    batch = BatchSpec.build(list(seqlens), mask)
    block_set = generate_blocks(batch, ATTENTION, block_size=block_size)
    cluster = ClusterSpec(num_machines=machines, devices_per_machine=devices)
    placement = place_blocks(block_set, cluster,
                             PlacementConfig(seed=seed, restarts=1))
    return fill_divisions(block_set, placement, num_divisions)


class TestTileBackward:
    def test_matches_numerical_gradients(self):
        rng = np.random.default_rng(0)
        heads, q_rows, k_rows, dim = 2, 6, 7, 4
        q = rng.standard_normal((heads, q_rows, dim)).astype(np.float32)
        k = rng.standard_normal((k_rows, dim)).astype(np.float32)
        v = rng.standard_normal((k_rows, dim)).astype(np.float32)
        mask = rng.random((q_rows, k_rows)) < 0.7
        mask[:, 0] = True
        scale = 0.5
        upstream = rng.standard_normal((heads, q_rows, dim)).astype(np.float32)

        def loss():
            out = finalize(tile_attention(q, k, v, mask, scale))
            return float((out * upstream).sum())

        out, lse = finalize_with_lse(tile_attention(q, k, v, mask, scale))
        delta = (upstream * out).sum(axis=2)
        dq, dk, dv = tile_backward(q, k, v, upstream, lse, delta, mask, scale)

        eps = 1e-3
        for array, grad in ((q, dq), (k, dk), (v, dv)):
            flat = array.reshape(-1)
            for index in np.random.default_rng(1).integers(0, flat.size, 6):
                orig = flat[index]
                flat[index] = orig + eps
                up = loss()
                flat[index] = orig - eps
                down = loss()
                flat[index] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grad.reshape(-1)[index]
                assert abs(numeric - analytic) < 3e-3 * max(1, abs(numeric))

    def test_fully_masked_rows_zero_gradient(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, 4, 4)).astype(np.float32)
        k = rng.standard_normal((4, 4)).astype(np.float32)
        v = rng.standard_normal((4, 4)).astype(np.float32)
        mask = np.zeros((4, 4), dtype=bool)
        upstream = rng.standard_normal((1, 4, 4)).astype(np.float32)
        lse = np.full((1, 4), -np.inf, dtype=np.float32)
        delta = np.zeros((1, 4), dtype=np.float32)
        dq, dk, dv = tile_backward(q, k, v, upstream, lse, delta, mask, 0.5)
        assert np.all(dq == 0) and np.all(dk == 0) and np.all(dv == 0)


@pytest.mark.parametrize(
    "mask",
    [
        make_mask("causal"),
        make_mask("lambda", sink=4, window=12),
        make_mask("shared_question", num_answers=2, answer_fraction=0.3),
        make_mask("causal_blockwise", block=8, window_blocks=2,
                  sink_blocks=1),
    ],
    ids=lambda m: m.name,
)
def test_distributed_backward_matches_dense(mask):
    schedule = make_schedule((80, 48, 20), mask)
    inputs = BatchInputs.random(schedule.block_set, seed=7)
    rng = np.random.default_rng(8)
    grad_outputs = [
        rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
    ]
    outputs, grads, _, _ = run_forward_backward(schedule, inputs,
                                                grad_outputs)
    for seq in range(len(inputs.q)):
        _, backward = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], mask
        )
        dq_ref, dk_ref, dv_ref = backward(grad_outputs[seq])
        np.testing.assert_allclose(grads.dq[seq], dq_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dk[seq], dk_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dv[seq], dv_ref, rtol=3e-3,
                                   atol=3e-4)


@pytest.mark.parametrize("num_divisions", [1, 2, 4])
def test_distributed_backward_any_division_count(num_divisions):
    schedule = make_schedule((64, 32), make_mask("causal"),
                             num_divisions=num_divisions)
    inputs = BatchInputs.random(schedule.block_set, seed=1)
    grad_outputs = [np.ones_like(q) for q in inputs.q]
    _, grads, _, _ = run_forward_backward(schedule, inputs, grad_outputs)
    for seq in range(len(inputs.q)):
        _, backward = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], make_mask("causal")
        )
        dq_ref, _, _ = backward(grad_outputs[seq])
        np.testing.assert_allclose(grads.dq[seq], dq_ref, rtol=3e-3,
                                   atol=3e-4)


class TestBackwardPlan:
    def test_plan_validates(self):
        schedule = make_schedule((96, 64), make_mask("causal"))
        plan = serialize_backward_schedule(schedule)
        validate_plan(plan)

    def test_backward_traffic_exceeds_forward(self):
        """Backward moves KV in *and* gradients out."""
        schedule = make_schedule((128, 64, 32), make_mask("causal"), seed=3)
        inputs = BatchInputs.random(schedule.block_set, seed=1)
        grad_outputs = [np.ones_like(q) for q in inputs.q]
        _, _, forward, backward = run_forward_backward(
            schedule, inputs, grad_outputs
        )
        if forward.fabric.total_bytes > 0:
            assert backward.fabric.total_bytes > forward.fabric.total_bytes

    @staticmethod
    def _timings(seqlens, block_size):
        schedule = make_schedule(seqlens, make_mask("causal"),
                                 block_size=block_size)
        forward_plan = serialize_schedule(schedule)
        return (
            forward_plan,
            simulate_plan(forward_plan),
            simulate_plan(serialize_backward_schedule(schedule)),
        )

    @staticmethod
    def _kernel_time(result):
        return sum(d.compute_time for d in result.devices.values())

    def test_backward_plan_is_timeable(self):
        forward_plan, forward, backward = self._timings((96, 64), 16)
        # Executed backward runs more kernel time than forward (2.5x
        # tile FLOPs).
        assert self._kernel_time(backward) > self._kernel_time(forward)
        # End to end these shapes are launch-bound, and the finish line
        # is set by when partial outputs arrive.  A sender that merges
        # nothing finalizes in its last attention kernel, ahead of the
        # CommLaunch that ships its partials, so the forward may finish
        # up to one epilogue's HBM time later than the backward (3.0 ns
        # here, against a 5.1 ns epilogue) — but no more.
        memory_bytes = ATTENTION.o_block_bytes(16) * 2
        epilogue = max(
            len(instruction.finalizes) * memory_bytes
            for device_plan in forward_plan.device_plans.values()
            for instruction in device_plan.instructions
            if isinstance(instruction, BlockwiseAttention)
        ) / hardware.HBM_BANDWIDTH
        assert epilogue > 0
        assert (backward.iteration_time
                >= forward.iteration_time - epilogue)

    def test_backward_outlasts_forward_when_flops_matter(self):
        """Forward tiles are Q rows, backward tiles KV columns: on this
        placement the same 344 block pairs make 126 rows but 112
        columns.  At (1024, 512), block 64, the forward's FLOPs cost
        1.3 us against 189 us of tile setup, so the backward's 14 fewer
        tiles outweigh its 2.5x FLOPs (0.572 ms of kernels against
        0.591 ms).  Here the forward's FLOPs cost 0.33 ms: backward
        0.562 ms against forward 0.359 ms end to end, kernels 1.39 ms
        against 0.92 ms."""
        _, forward, backward = self._timings((16384, 8192), 1024)
        assert backward.iteration_time > forward.iteration_time
        assert self._kernel_time(backward) > self._kernel_time(forward)
