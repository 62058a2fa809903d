"""Columnar plan wire format: roundtrip identity and compaction."""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.core.planwire import (
    DEVICE_MAGIC,
    PlanWire,
    PlanWireError,
    decode_device_payload,
    decode_plan,
    encode_device_payload,
    encode_plan,
)
from repro.masks import CausalMask, LambdaMask, SharedQuestionMask, make_mask
from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.pipeline import plan_fingerprint
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.scheduling import build_schedule, serialize_backward_schedule
from repro.sim import ClusterSpec
from ring_oracles import plan_ring_backward

settings.register_profile(
    "repro", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro")

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)


def build_blocks(seqlens, mask, block_size=16):
    batch = BatchSpec.build(list(seqlens), mask)
    return generate_blocks(batch, ATTENTION, block_size=block_size)


def roundtrip(plan):
    return decode_plan(encode_plan(plan).to_bytes())


def assert_wire_identical(plan):
    again = roundtrip(plan)
    assert plan_fingerprint(again) == plan_fingerprint(plan)
    for device, dp in plan.device_plans.items():
        decoded = again.device_plans[device]
        assert decoded.instructions == dp.instructions
        assert decoded.buffer_sizes == dp.buffer_sizes
        assert decoded.local_slices == dp.local_slices
    return again


# -- randomized mask families / cluster shapes (property test) ---------------


def mask_strategy():
    return st.one_of(
        st.just(CausalMask()),
        st.builds(
            LambdaMask, sink=st.integers(0, 12), window=st.integers(1, 32)
        ),
        st.builds(
            SharedQuestionMask,
            num_answers=st.integers(1, 3),
            answer_fraction=st.floats(0.1, 0.3),
        ),
    )


@given(
    mask=mask_strategy(),
    seqlens=st.lists(st.integers(16, 96), min_size=1, max_size=3),
    machines=st.integers(1, 2),
    devices=st.integers(1, 2),
)
@settings(max_examples=25)
def test_decode_encode_fingerprint_identity(mask, seqlens, machines, devices):
    """decode(encode(p)) is plan_fingerprint-identical to p."""
    cluster = ClusterSpec(num_machines=machines, devices_per_machine=devices)
    planner = DCPPlanner(cluster, attention=ATTENTION,
                         config=DCPConfig(block_size=16))
    plan = planner.plan_batch(BatchSpec.build(seqlens, mask))
    assert_wire_identical(plan)


# -- every plan family goes columnar -----------------------------------------


CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def all_plans():
    block_set = build_blocks((96, 48, 32), CausalMask())
    placement = place_blocks(block_set, CLUSTER,
                             PlacementConfig(seed=0, restarts=1))
    schedule = build_schedule(block_set, placement, 4)
    return {
        "dcp_backward": serialize_backward_schedule(schedule),
        "ring": RingAttentionPlanner().plan(block_set, CLUSTER),
        "ring_zigzag": RingAttentionPlanner(zigzag=True).plan(
            block_set, CLUSTER
        ),
        "ring_backward": plan_ring_backward(block_set, CLUSTER),
        "te": TransformerEnginePlanner().plan(block_set, CLUSTER),
    }


@pytest.mark.parametrize("name", sorted(all_plans()))
def test_plan_families_roundtrip_columnar(name):
    plan = all_plans()[name]
    assert_wire_identical(plan)
    for device, dp in plan.device_plans.items():
        assert encode_device_payload(device, dp)[:4] == DEVICE_MAGIC


@pytest.mark.parametrize(
    "mask",
    [LambdaMask(sink=4, window=12),
     SharedQuestionMask(num_answers=2, answer_fraction=0.3)],
    ids=lambda m: m.name,
)
def test_decoded_plan_executes_without_shipped_ranges(mask):
    """No plan holds per-token attend ranges, in process or on the
    wire: the executor derives them from the batch's masks, so the
    decoded plan's masks match the original's and it executes exactly."""
    planner = DCPPlanner(CLUSTER, attention=ATTENTION,
                         config=DCPConfig(block_size=16))
    plan = planner.plan_batch(BatchSpec.build([96, 48, 32], mask))
    assert "_seq_ranges" not in vars(plan.block_set)
    context_block_set, _, _ = pickle.loads(encode_plan(plan).context)
    assert "_seq_ranges" not in vars(context_block_set)
    again = assert_wire_identical(plan)
    for seq, expected in zip(again.block_set.batch.sequences,
                             plan.block_set.batch.sequences):
        n = expected.seqlen
        np.testing.assert_array_equal(
            seq.mask.ranges(seq.seqlen).tile_mask(0, n, 0, n),
            expected.mask.ranges(n).tile_mask(0, n, 0, n),
        )
    executor = SimExecutor(again)
    inputs = BatchInputs.random(plan.block_set, seed=5)
    executor.load_inputs(inputs)
    executor.run()
    reference = reference_batch_outputs(plan.block_set, inputs)
    for out, ref in zip(executor.gather_outputs(), reference):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


def test_meta_and_context_survive():
    plan = all_plans()["ring"]
    plan.meta["marker"] = {"answer": 42}
    again = roundtrip(plan)
    assert again.meta["marker"] == {"answer": 42}
    assert again.cluster == plan.cluster


# -- canonical bytes ---------------------------------------------------------


def test_payload_is_canonical_across_decode():
    """A decoded plan re-encodes to the identical per-device bytes."""
    plan = all_plans()["dcp_backward"]
    again = roundtrip(plan)
    for device, dp in plan.device_plans.items():
        assert (
            encode_device_payload(device, again.device_plans[device])
            == encode_device_payload(device, dp)
        )


def test_payload_independent_of_dict_insertion_order():
    plan = all_plans()["ring"]
    device, dp = next(iter(plan.device_plans.items()))
    reordered = type(dp)(
        device=dp.device,
        instructions=dp.instructions,
        buffer_sizes=dict(reversed(list(dp.buffer_sizes.items()))),
        local_slices=dp.local_slices,
        o_slots=dict(reversed(list(dp.o_slots.items()))),
        q_slots=dp.q_slots,
        kv_slots=dp.kv_slots,
        acc_slots=dp.acc_slots,
        do_slots=dp.do_slots,
        dq_slots=dp.dq_slots,
        dkv_slots=dp.dkv_slots,
    )
    assert (
        encode_device_payload(device, reordered)
        == encode_device_payload(device, dp)
    )


def test_wire_beats_pickle_on_dcp_plans():
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    planner = DCPPlanner(cluster, config=DCPConfig(block_size=256))
    plan = planner.plan_batch(
        BatchSpec.build([4096, 2048], [make_mask("causal")] * 2)
    )
    for device, dp in plan.device_plans.items():
        assert len(encode_device_payload(device, dp)) < len(pickle.dumps(dp))


# -- per-device slicing ------------------------------------------------------


def test_device_bytes_view_decodes_single_device():
    plan = all_plans()["te"]
    wire = PlanWire.from_bytes(encode_plan(plan).to_bytes())
    assert isinstance(wire.payload, memoryview)
    for device in plan.device_plans:
        view = wire.device_bytes(device)
        assert isinstance(view, memoryview)
        decoded_device, dp = decode_device_payload(view)
        assert decoded_device == device
        assert dp.instructions == plan.device_plans[device].instructions


def test_device_bytes_match_device_payload():
    plan = all_plans()["ring"]
    wire = encode_plan(plan)
    for device, dp in plan.device_plans.items():
        assert bytes(wire.device_bytes(device)) == encode_device_payload(
            device, dp
        )


# -- error paths --------------------------------------------------------------


class _AlienInstruction:
    kind = "alien"


def test_unknown_instruction_is_rejected():
    plan = all_plans()["ring"]
    device, dp = next(iter(plan.device_plans.items()))
    dp.instructions.append(_AlienInstruction())
    with pytest.raises(PlanWireError, match="unknown instruction type"):
        encode_device_payload(device, dp)


def test_bad_magic_rejected():
    with pytest.raises(PlanWireError):
        decode_device_payload(b"XXXX....")
    with pytest.raises(PlanWireError):  # the retired pickle frame
        decode_device_payload(b"PWDP" + pickle.dumps((0, [])))
    with pytest.raises(PlanWireError):
        decode_plan(b"YYYYbad")


def test_truncated_payload_rejected():
    plan = all_plans()["ring"]
    device, dp = next(iter(plan.device_plans.items()))
    blob = encode_device_payload(device, dp)
    with pytest.raises(PlanWireError):
        decode_device_payload(blob[: len(blob) // 2])


def test_int64_lane_when_values_overflow_int32():
    plan = all_plans()["ring"]
    device, dp = next(iter(plan.device_plans.items()))
    dp.buffer_sizes["huge"] = 2 ** 40
    blob = encode_device_payload(device, dp)
    assert blob[:4] == DEVICE_MAGIC
    _, decoded = decode_device_payload(blob)
    assert decoded.buffer_sizes["huge"] == 2 ** 40
