"""The static placements run on their own: pure DP (``dp_pack``, the
memory ablation's data-parallel row) and static CP (``zigzag``), each
taken through ``static_placement`` -> ``build_schedule`` -> the
serializers.  Both must execute exactly, forward and backward, and keep
the properties that make them the paper's reference points: DP packing
moves no bytes and LPT-balances whole sequences, zigzag balances causal
work, and neither looks at the mask."""

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask
from repro.model.attention import attention_forward_backward
from repro.placement import (
    STATIC_HEURISTICS,
    build_block_hypergraph,
    static_placement,
)
from repro.runtime import (
    BatchInputs,
    SimExecutor,
    reference_batch_outputs,
    run_forward_backward,
)
from repro.scheduling import (
    build_schedule,
    serialize_backward_schedule,
    serialize_schedule,
    validate_plan,
)
from repro.sim import ClusterSpec, simulate_plan

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
SINGLE = ClusterSpec(num_machines=1, devices_per_machine=1)
SOURCES = sorted(STATIC_HEURISTICS)
MASKS = [
    CausalMask(),
    LambdaMask(sink=4, window=12),
    SharedQuestionMask(num_answers=2, answer_fraction=0.3),
]


def build(seqlens=(96, 48, 32), mask=None, block_size=16):
    batch = BatchSpec.build(list(seqlens), mask or CausalMask())
    return generate_blocks(batch, ATTENTION, block_size=block_size)


def place(block_set, source, cluster=CLUSTER):
    return static_placement(build_block_hypergraph(block_set), cluster, source)


def schedule_for(block_set, source, cluster=CLUSTER):
    return build_schedule(block_set, place(block_set, source, cluster))


def seq_devices(block_set, placement, seq_index):
    return {
        int(device)
        for ts, device in zip(block_set.token_slices, placement.slice_device)
        if ts.seq_index == seq_index
    }


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: m.name)
@pytest.mark.parametrize("source", SOURCES)
def test_forward_matches_reference(source, mask):
    block_set = build(mask=mask)
    executor = SimExecutor(serialize_schedule(schedule_for(block_set, source)))
    inputs = BatchInputs.random(block_set, seed=11)
    executor.load_inputs(inputs)
    executor.run()
    outputs = executor.gather_outputs()
    for out, ref in zip(outputs, reference_batch_outputs(block_set, inputs)):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: m.name)
@pytest.mark.parametrize("source", SOURCES)
def test_backward_matches_dense(source, mask):
    block_set = build(seqlens=(96, 48), mask=mask)
    inputs = BatchInputs.random(block_set, seed=13)
    rng = np.random.default_rng(14)
    grad_outputs = [
        rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q
    ]
    outputs, grads, _, _ = run_forward_backward(
        schedule_for(block_set, source), inputs, grad_outputs
    )
    for seq in range(len(inputs.q)):
        out_ref, dense = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], mask
        )
        np.testing.assert_allclose(outputs[seq], out_ref, rtol=2e-4,
                                   atol=2e-5)
        dq_ref, dk_ref, dv_ref = dense(grad_outputs[seq])
        np.testing.assert_allclose(grads.dq[seq], dq_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dk[seq], dk_ref, rtol=3e-3,
                                   atol=3e-4)
        np.testing.assert_allclose(grads.dv[seq], dv_ref, rtol=3e-3,
                                   atol=3e-4)


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: m.name)
@pytest.mark.parametrize("source", SOURCES)
def test_plans_validate(source, mask):
    schedule = schedule_for(build(mask=mask), source)
    validate_plan(serialize_schedule(schedule))
    validate_plan(serialize_backward_schedule(schedule))


@pytest.mark.parametrize("source", SOURCES)
def test_timing_simulates(source):
    schedule = schedule_for(build(seqlens=(256, 64, 32)), source)
    forward = simulate_plan(serialize_schedule(schedule))
    backward = simulate_plan(serialize_backward_schedule(schedule),
                             backward=True)
    assert forward.iteration_time > 0
    assert backward.iteration_time > 0


@pytest.mark.parametrize("source", SOURCES)
def test_single_device_moves_nothing(source):
    block_set = build()
    schedule = schedule_for(block_set, source, SINGLE)
    assert serialize_schedule(schedule).total_comm_bytes() == 0
    assert serialize_backward_schedule(schedule).total_comm_bytes() == 0


@pytest.mark.parametrize("source", SOURCES)
def test_slice_placement_ignores_the_mask(source):
    """Identical lengths give identical slice placements, causal or
    sparse: neither heuristic reads the mask."""
    causal = place(build(mask=CausalMask()), source)
    sparse = place(build(mask=LambdaMask(sink=4, window=12)), source)
    np.testing.assert_array_equal(causal.slice_device, sparse.slice_device)


@pytest.mark.parametrize("source", SOURCES)
def test_compute_follows_its_query(source):
    """Every computation block sits with its Q slice, so outputs are
    never reduced across devices."""
    block_set = build(mask=SharedQuestionMask(num_answers=2,
                                              answer_fraction=0.3))
    placement = place(block_set, source)
    comp = block_set.comp_array
    q_vertex = block_set.slice_indices(comp.seq_index, comp.q_block)
    np.testing.assert_array_equal(
        placement.comp_device, placement.slice_device[q_vertex]
    )


# -- dp_pack -----------------------------------------------------------------


@pytest.mark.parametrize("mask", MASKS, ids=lambda m: m.name)
def test_dp_pack_keeps_whole_sequences_and_moves_no_bytes(mask):
    block_set = build(seqlens=(512, 96, 48, 32), mask=mask)
    schedule = schedule_for(block_set, "dp_pack")
    for seq_index in range(len(block_set.batch.sequences)):
        assert len(seq_devices(block_set, schedule.placement, seq_index)) == 1
    assert serialize_schedule(schedule).total_comm_bytes() == 0
    assert serialize_backward_schedule(schedule).total_comm_bytes() == 0


def test_dp_pack_equal_sequences_one_per_device():
    block_set = build(seqlens=(128, 128, 128, 128))
    placement = place(block_set, "dp_pack")
    tokens = placement.tokens_per_device()
    assert tokens.tolist() == [128] * CLUSTER.num_devices


def test_dp_pack_longest_sequence_gets_a_device_of_its_own():
    """LPT places the longest sequence first and stacks the rest on the
    other devices."""
    block_set = build(seqlens=(512, 64, 64, 64, 64))
    placement = place(block_set, "dp_pack")
    (long_device,) = seq_devices(block_set, placement, 0)
    others = set().union(
        *(seq_devices(block_set, placement, s) for s in range(1, 5))
    )
    assert long_device not in others
    assert placement.tokens_per_device().max() == 512


# -- zigzag ------------------------------------------------------------------


def test_zigzag_balances_causal_work():
    """One causal sequence in 2k chunks: device i takes chunks i and
    2k - 1 - i, so tokens and computation blocks come out equal."""
    block_set = build(seqlens=(256,))
    placement = place(block_set, "zigzag")
    tokens = placement.tokens_per_device()
    assert tokens.min() == tokens.max() == 64
    blocks = np.bincount(placement.comp_device,
                         minlength=CLUSTER.num_devices)
    assert blocks.min() == blocks.max()


def test_zigzag_splits_every_long_sequence_across_all_devices():
    block_set = build(seqlens=(256, 128))
    placement = place(block_set, "zigzag")
    everyone = set(range(CLUSTER.num_devices))
    assert seq_devices(block_set, placement, 0) == everyone
    assert seq_devices(block_set, placement, 1) == everyone


def test_zigzag_backward_traffic_exceeds_forward():
    """The backward moves Q, KV and dO out and dQ, dKV back: more than
    the forward's Q, KV out and O back, but not a multiple of it."""
    schedule = schedule_for(build(seqlens=(256, 128)), "zigzag")
    forward = serialize_schedule(schedule).total_comm_bytes()
    backward = serialize_backward_schedule(schedule).total_comm_bytes()
    assert 0 < forward < backward < 2.5 * forward
