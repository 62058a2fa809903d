"""Tests for the RingFlashAttention backward pass."""

import numpy as np
import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    generate_blocks,
    make_mask,
)
from repro.baselines import RingAttentionPlanner
from repro.baselines.ring import lower_ring, ring_layout
from repro.model.attention import attention_forward_backward
from repro.runtime import BatchInputs
from repro.scheduling import validate_plan
from repro.scheduling.serialize import Backward, Forward
from repro.sim import simulate_plan
from ring_oracles import plan_ring_backward, run_ring_forward_backward

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def build(seqlens=(96, 48, 20), mask=None):
    batch = BatchSpec.build(list(seqlens), mask or make_mask("causal"))
    return generate_blocks(batch, ATTENTION, block_size=16)


@pytest.mark.parametrize(
    "cluster",
    [CLUSTER, ClusterSpec(num_machines=1, devices_per_machine=4),
     ClusterSpec(num_machines=2, devices_per_machine=4)],
    ids=["2x2", "1x4", "2x4"],
)
@pytest.mark.parametrize("zigzag", [False, True], ids=["ring", "zigzag"])
@pytest.mark.parametrize(
    "mask",
    [make_mask("causal"), make_mask("lambda", sink=4, window=12),
     make_mask("shared_question", num_answers=2, answer_fraction=0.3)],
    ids=lambda m: m.name,
)
def test_ring_backward_matches_dense(zigzag, mask, cluster):
    block_set = build(mask=mask)
    inputs = BatchInputs.random(block_set, seed=5)
    rng = np.random.default_rng(6)
    grad_outputs = [
        rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
    ]
    _, grads, _, _ = run_ring_forward_backward(
        block_set, cluster, inputs, grad_outputs, zigzag=zigzag
    )
    for seq in range(len(inputs.q)):
        _, dense = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], mask
        )
        dq_ref, dk_ref, dv_ref = dense(grad_outputs[seq])
        np.testing.assert_allclose(grads.dq[seq], dq_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dk[seq], dk_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dv[seq], dv_ref, rtol=3e-3,
                                   atol=3e-4)


def test_backward_plan_validates():
    block_set = build()
    validate_plan(plan_ring_backward(block_set, CLUSTER))
    validate_plan(plan_ring_backward(block_set, CLUSTER, zigzag=True))


def test_backward_needs_one_head_row():
    """dKV circulates with its KV chunk: the backward ring has no head
    rows to return partials across."""
    block_set = build()
    layout = ring_layout(block_set, CLUSTER.num_devices, 2, zigzag=True)
    with pytest.raises(ValueError, match="one head row"):
        lower_ring(block_set, layout, Backward)
    lower_ring(block_set, layout, Forward)


def test_backward_doubles_ring_traffic():
    """dKV rides along with KV: ~2x forward volume plus the final hop."""
    block_set = build()
    forward_plan = RingAttentionPlanner().plan(block_set, CLUSTER)
    backward_plan = plan_ring_backward(block_set, CLUSTER)
    fw = forward_plan.total_comm_bytes()
    bw = backward_plan.total_comm_bytes()
    assert 2.0 <= bw / fw <= 2.7

    timing = simulate_plan(backward_plan)
    assert timing.iteration_time > simulate_plan(forward_plan).iteration_time


def test_single_device_no_comm():
    block_set = build(seqlens=(64,))
    cluster = ClusterSpec(num_machines=1, devices_per_machine=1)
    inputs = BatchInputs.random(block_set, seed=0)
    grad_outputs = [np.ones_like(q) for q in inputs.q]
    _, grads, forward, backward = run_ring_forward_backward(
        block_set, cluster, inputs, grad_outputs
    )
    assert forward.fabric.total_bytes == 0
    assert backward.fabric.total_bytes == 0
    _, dense = attention_forward_backward(
        inputs.q[0], inputs.k[0], inputs.v[0], make_mask("causal")
    )
    dq_ref, _, _ = dense(grad_outputs[0])
    np.testing.assert_allclose(grads.dq[0], dq_ref, rtol=3e-3, atol=3e-4)
