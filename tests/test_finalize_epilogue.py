"""The finalize epilogue: a device that merges no partial outputs
normalizes its own rows in its last attention kernel instead of a
separate reduction kernel.  Fused plans of every kind must execute
exactly (forward, and forward + backward), cross the wire columnar and
unchanged, and the validator must reject finalizes that are missing,
repeated or followed by more accumulation.  The backward plan of every
schedule receives what its forward plan receives, in the same
divisions, plus one dO package per fetched Q block."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import RingAttentionPlanner, run_ring_forward_backward
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core.planwire import (
    DEVICE_MAGIC,
    decode_device_payload,
    encode_device_payload,
)
from repro.masks import CausalMask, LambdaMask
from repro.model.attention import attention_forward_backward
from repro.placement import STATIC_HEURISTICS, PlacementConfig, place_blocks
from repro.runtime import (
    BatchInputs,
    SimExecutor,
    reference_batch_outputs,
    run_forward_backward,
)
from repro.scheduling import (
    BlockwiseAttention,
    BlockwiseReduction,
    MergeArg,
    PlanValidationError,
    build_schedule,
    fill_divisions,
    serialize_backward_schedule,
    serialize_schedule,
    validate_plan,
)
from repro.sim import ClusterSpec
from test_division_choice import (
    assert_one_rule,
    hand_placed,
    only_fully_masked_rows,
    sends_partials_receives_none,
    with_source,
)

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
SOURCES = ["partitioned", "owner", *STATIC_HEURISTICS]
MASKS = [CausalMask(), LambdaMask(sink=4, window=12)]


def build(mask, seqlens=(96, 48, 32)):
    batch = BatchSpec.build(list(seqlens), mask)
    return generate_blocks(batch, ATTENTION, block_size=16)


def schedules():
    """(label, block set, schedule): every placement source on two
    masks, T = 1, 2 and 4, and the two hand-built edge cases."""
    for mask in MASKS:
        block_set = build(mask)
        placement = place_blocks(
            block_set, CLUSTER, PlacementConfig(seed=0, restarts=1)
        )
        for source in SOURCES:
            alone = with_source(block_set, placement, source)
            for count in (1, 2, 4):
                schedule = build_schedule(block_set, alone, count)
                yield f"{source}-{mask.name}-T{count}", block_set, schedule
    for name, make in (
        ("sends_partials", sends_partials_receives_none),
        ("fully_masked", only_fully_masked_rows),
    ):
        block_set, placement = make()
        yield name, block_set, build_schedule(block_set, placement, 4)


SCHEDULES = {label: (block_set, s) for label, block_set, s in schedules()}


def ring_plans():
    block_set = build(CausalMask())
    return {
        name: RingAttentionPlanner(zigzag=zigzag).plan(block_set, CLUSTER)
        for name, zigzag in (("rfa_ring", False), ("rfa_zigzag", True))
    }


def epilogues(plan) -> int:
    return sum(
        bool(instruction.finalizes)
        for device_plan in plan.device_plans.values()
        for instruction in device_plan.instructions
        if instruction.kind == "attention"
    )


def assert_forward_exact(plan) -> None:
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(plan.block_set, seed=21)
    executor.load_inputs(inputs)
    executor.run()
    outputs = executor.gather_outputs()
    for out, ref in zip(outputs, reference_batch_outputs(plan.block_set, inputs)):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


def assert_grads_exact(block_set, inputs, grad_outputs, outputs, grads):
    for seq, sequence in enumerate(block_set.batch.sequences):
        out_ref, dense = attention_forward_backward(
            inputs.q[seq], inputs.k[seq], inputs.v[seq], sequence.mask
        )
        np.testing.assert_allclose(outputs[seq], out_ref, rtol=2e-4, atol=2e-5)
        for got, want in zip(
            (grads.dq[seq], grads.dk[seq], grads.dv[seq]),
            dense(grad_outputs[seq]),
        ):
            np.testing.assert_allclose(got, want, rtol=3e-3, atol=3e-4)


def random_grads(inputs):
    rng = np.random.default_rng(22)
    return [rng.standard_normal(q.shape).astype(np.float32) for q in inputs.q]


# -- numerics ----------------------------------------------------------------


@pytest.mark.parametrize("label", sorted(SCHEDULES))
def test_fused_forward_matches_reference(label):
    _, schedule = SCHEDULES[label]
    plan = serialize_schedule(schedule)
    validate_plan(plan)
    assert_one_rule(plan)
    if not label.startswith("partitioned"):
        assert epilogues(plan) > 0
    assert_forward_exact(plan)


@pytest.mark.parametrize("label", sorted(SCHEDULES))
def test_fused_forward_backward_matches_dense(label):
    block_set, schedule = SCHEDULES[label]
    inputs = BatchInputs.random(block_set, seed=23)
    grad_outputs = random_grads(inputs)
    outputs, grads, _, _ = run_forward_backward(schedule, inputs, grad_outputs)
    assert_grads_exact(block_set, inputs, grad_outputs, outputs, grads)


@pytest.mark.parametrize("name", sorted(ring_plans()))
def test_ring_flash_attention_fuses_every_device(name):
    plan = ring_plans()[name]
    validate_plan(plan)
    assert_one_rule(plan)
    assert not any(
        device_plan.count("reduction") for device_plan in plan.device_plans.values()
    )
    assert epilogues(plan) == sum(
        bool(device_plan.o_slots) for device_plan in plan.device_plans.values()
    )
    assert_forward_exact(plan)
    block_set = plan.block_set
    inputs = BatchInputs.random(block_set, seed=24)
    grad_outputs = random_grads(inputs)
    outputs, grads, _, _ = run_ring_forward_backward(
        block_set, CLUSTER, inputs, grad_outputs, zigzag=name == "rfa_zigzag"
    )
    assert_grads_exact(block_set, inputs, grad_outputs, outputs, grads)


# -- one lowering, two passes -------------------------------------------------


def outline(device_plan):
    """A device's division loop as the passes share it: per kernel the
    block pairs of its tiles (sorted: forward tiles are Q rows, backward
    tiles KV columns), per launch that fetches inputs the (buffer,
    block, home) of every receive.  Partials shipped home are left out."""
    steps = []
    for instruction in device_plan.instructions:
        if instruction.kind in ("attention", "attention_backward"):
            steps.append(("kernel", tuple(sorted(
                (t.seq_index, t.head_group, *pair)
                for t in instruction.tiles
                for pair in t.pairs
            ))))
        elif instruction.kind == "comm_launch":
            recvs = tuple(
                (recv.buffer, recv.tag[-1], recv.peer)
                for recv in instruction.recvs
                if recv.tag[0] in ("in", "bw")
            )
            if recvs:
                steps.append(("recv", recvs))
    return steps


def without_do(step):
    kind, body = step
    if kind == "recv":
        body = tuple(recv for recv in body if recv[0] != "do")
    return kind, body


def of_buffer(recvs, buffer):
    return [(block, home) for name, block, home in recvs if name == buffer]


@pytest.mark.parametrize("label", sorted(SCHEDULES))
def test_backward_fetches_the_forward_blocks_plus_one_do_per_q(label):
    _, schedule = SCHEDULES[label]
    forward = serialize_schedule(schedule)
    backward = serialize_backward_schedule(schedule)
    for device, device_plan in forward.device_plans.items():
        forward_steps = outline(device_plan)
        backward_steps = outline(backward.device_plans[device])
        assert list(map(without_do, backward_steps)) == forward_steps
        for kind, body in backward_steps:
            if kind == "recv":
                assert of_buffer(body, "do") == of_buffer(body, "q")


# -- wire ----------------------------------------------------------------------


def wire_plans():
    for label, (_, schedule) in sorted(SCHEDULES.items()):
        yield label, serialize_schedule(schedule)
        yield f"{label}-backward", serialize_backward_schedule(schedule)
    yield from sorted(ring_plans().items())


@pytest.mark.parametrize("label, plan", list(wire_plans()))
def test_device_plans_roundtrip_columnar_and_equal(label, plan):
    for device, device_plan in plan.device_plans.items():
        payload = encode_device_payload(device, device_plan)
        assert payload[:4] == DEVICE_MAGIC
        assert decode_device_payload(payload) == (device, device_plan)


def test_wire_carries_the_epilogue():
    """Dropping the finalizes changes the bytes and the decoded plan."""
    plan = ring_plans()["rfa_ring"]
    device_plan = plan.device_plans[0]
    stripped = replace(
        device_plan,
        instructions=[
            replace(i, finalizes=()) if i.kind == "attention" else i
            for i in device_plan.instructions
        ],
    )
    assert epilogues(plan) and stripped != device_plan
    assert encode_device_payload(0, stripped) != encode_device_payload(
        0, device_plan
    )


# -- validator -----------------------------------------------------------------


def fused_plan():
    """A forward plan whose device 0 finalizes in its last attention
    kernel and device 1 merges a partial in a reduction."""
    _, schedule = SCHEDULES["sends_partials"]
    plan = serialize_schedule(schedule)
    validate_plan(plan)
    return plan


def last_of(device_plan, kind: str) -> int:
    return max(
        index
        for index, instruction in enumerate(device_plan.instructions)
        if instruction.kind == kind
    )


def finalizer(device: int):
    """(device plan, index, instruction) of ``device``'s finalize: the
    epilogue on device 0, the reduction on device 1."""
    plan = fused_plan()
    device_plan = plan.device_plans[device]
    index = last_of(device_plan, "attention" if device == 0 else "reduction")
    return plan, device_plan, index, device_plan.instructions[index]


@pytest.mark.parametrize("device", [0, 1], ids=["epilogue", "reduction"])
def test_validator_rejects_an_output_finalized_twice(device):
    plan, device_plan, _, instruction = finalizer(device)
    device_plan.instructions.append(
        BlockwiseReduction(finalizes=instruction.finalizes[:1])
    )
    with pytest.raises(PlanValidationError, match="finalized twice"):
        validate_plan(plan)


@pytest.mark.parametrize("device", [0, 1], ids=["epilogue", "reduction"])
def test_validator_rejects_a_homed_row_never_finalized(device):
    plan, device_plan, index, instruction = finalizer(device)
    device_plan.instructions[index] = replace(
        instruction, finalizes=instruction.finalizes[1:]
    )
    with pytest.raises(PlanValidationError, match="never finalizes"):
        validate_plan(plan)


@pytest.mark.parametrize("device", [0, 1], ids=["epilogue", "reduction"])
def test_validator_rejects_a_tile_after_its_finalize(device):
    plan, device_plan, _, instruction = finalizer(device)
    acc_slot = instruction.finalizes[0].acc_slot
    kernel = device_plan.instructions[last_of(device_plan, "attention")]
    tile = replace(kernel.tiles[0], acc_slot=acc_slot)
    device_plan.instructions.append(BlockwiseAttention(tiles=(tile,)))
    with pytest.raises(PlanValidationError, match="tile into acc"):
        validate_plan(plan)


@pytest.mark.parametrize("device", [0, 1], ids=["epilogue", "reduction"])
def test_validator_rejects_a_merge_after_its_finalize(device):
    plan, device_plan, _, instruction = finalizer(device)
    acc_slot = instruction.finalizes[0].acc_slot
    device_plan.instructions.append(
        BlockwiseReduction(merges=(MergeArg(acc_slot, acc_slot),))
    )
    with pytest.raises(PlanValidationError, match="merge into acc"):
        validate_plan(plan)


def test_validator_rejects_an_epilogue_before_the_last_tile():
    """Finalizing in an earlier kernel than the last one that touches
    the row is accumulation after the finalize."""
    # Owner-computes, T = 2: device 1 runs two kernels and finalizes in
    # the second, which accumulates into the rows it finalizes.
    plan = serialize_schedule(fill_divisions(*hand_placed(CausalMask()), 2))
    validate_plan(plan)
    device_plan = plan.device_plans[1]
    kernels = [
        index
        for index, instruction in enumerate(device_plan.instructions)
        if instruction.kind == "attention"
    ]
    first = device_plan.instructions[kernels[0]]
    last = device_plan.instructions[kernels[-1]]
    assert len(kernels) == 2 and last.finalizes
    assert {tile.acc_slot for tile in last.tiles} & {
        fin.acc_slot for fin in last.finalizes
    }
    device_plan.instructions[kernels[0]] = replace(
        first, finalizes=last.finalizes
    )
    device_plan.instructions[kernels[-1]] = replace(last, finalizes=())
    with pytest.raises(PlanValidationError, match="after it was finalized"):
        validate_plan(plan)
