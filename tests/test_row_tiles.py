"""One tile per row: a forward kernel takes one tile per Q row, which
walks the row's KV blocks, and a backward kernel one tile per KV column,
which walks the column's Q blocks.  The oracle here expands every row
tile back into one tile per block pair, in the order of the computation
blocks the kernel was lowered from — the per-pair lowering — and runs
both: forward outputs must be bit-identical, gradients within the
dense-reference tolerance.  The validator must reject a row split over
two tiles of one kernel, a block walked twice and a block outside the
sequence; the wire must refuse the retired per-pair opcodes."""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import RingAttentionPlanner, TransformerEnginePlanner
from repro.baselines.ring import ring_layout
from repro.core.planwire import (
    DEVICE_MAGIC,
    PlanWireError,
    decode_device_payload,
    encode_device_payload,
)
from repro.masks import CausalMask
from repro.placement import PlacementConfig, place_blocks
from repro.runtime import BatchInputs, SimExecutor
from repro.runtime.backward import run_plans_forward_backward
from repro.scheduling import (
    PlanValidationError,
    fill_divisions,
    serialize_backward_schedule,
    serialize_schedule,
    validate_plan,
)
from repro.scheduling.instructions import (
    BackwardTile,
    CommWait,
    DevicePlan,
    Tile,
)
from ring_oracles import plan_ring_backward
from test_division_choice import (
    only_fully_masked_rows,
    sends_partials_receives_none,
    with_source,
)
from test_finalize_epilogue import (
    CLUSTER,
    MASKS,
    SOURCES,
    assert_grads_exact,
    build,
    random_grads,
)

STRATEGIES = ("paper", "balanced")


def schedules():
    """Every placement source on two masks x T = 1, 2, 4 x both fill
    strategies, and the two hand-built edge cases."""
    for mask in MASKS:
        block_set = build(mask)
        placement = place_blocks(
            block_set, CLUSTER, PlacementConfig(seed=0, restarts=1)
        )
        for source in SOURCES:
            alone = with_source(block_set, placement, source)
            for count in (1, 2, 4):
                for strategy in STRATEGIES:
                    yield (
                        f"{source}-{mask.name}-T{count}-{strategy}",
                        fill_divisions(block_set, alone, count, strategy),
                    )
    for name, make in (
        ("sends_partials", sends_partials_receives_none),
        ("fully_masked", only_fully_masked_rows),
    ):
        yield name, fill_divisions(*make(), 4)


SCHEDULES = dict(schedules())


# -- the oracle: one tile per block pair ---------------------------------------


def pair_tiles(tile):
    """``tile`` expanded: one single-block tile per pair, by pair."""
    if isinstance(tile, Tile):
        return {
            (tile.seq_index, tile.head_group, tile.q_block, kv_block): Tile(
                tile.q_slot, tile.acc_slot, tile.seq_index, tile.head_group,
                tile.q_block, (kv_slot,), (kv_block,),
            )
            for kv_slot, kv_block in zip(tile.kv_slots, tile.kv_blocks)
        }
    return {
        (tile.seq_index, tile.head_group, q_block, tile.kv_block): BackwardTile(
            tile.kv_slot, tile.dkv_slot, tile.seq_index, tile.head_group,
            tile.kv_block, (q_slot,), (do_slot,), (dq_slot,), (q_block,),
        )
        for q_slot, do_slot, dq_slot, q_block in zip(
            tile.q_slots, tile.do_slots, tile.dq_slots, tile.q_blocks
        )
    }


def per_pair(plan, kernels_of):
    """``plan`` with every kernel's row tiles expanded into one tile per
    computation block, in the order of ``kernels_of(device)`` — one list
    of computation blocks per attention kernel.  The expansion covers
    every block of the kernel exactly once."""
    device_plans = {}
    for device, device_plan in plan.device_plans.items():
        lowered = iter(kernels_of(device))
        instructions = []
        for instruction in device_plan.instructions:
            if instruction.kind in ("attention", "attention_backward"):
                pairs = {}
                for tile in instruction.tiles:
                    pairs.update(pair_tiles(tile))
                comps = next(lowered)
                keys = [
                    (c.seq_index, c.head_group, c.q_block, c.kv_block)
                    for c in comps
                ]
                assert sorted(keys) == sorted(pairs)
                instruction = replace(
                    instruction, tiles=tuple(pairs[key] for key in keys)
                )
            instructions.append(instruction)
        assert next(lowered, None) is None
        device_plans[device] = replace(device_plan, instructions=instructions)
    return replace(plan, device_plans=device_plans)


def divisions_of(schedule):
    def kernels_of(device):
        device_schedule = schedule.device_schedules.get(device)
        if device_schedule is None:
            return []
        return [comps for comps in device_schedule.divisions if comps]

    return kernels_of


def ring_steps_of(plan, zigzag):
    layout = ring_layout(
        plan.block_set, CLUSTER.num_devices, plan.meta["head_parallel"], zigzag
    )

    def kernels_of(device):
        return [
            layout.tiles[(device, step)]
            for step in range(layout.sr)
            if layout.tiles.get((device, step))
        ]

    return kernels_of


def forward_outputs(plan, seed=21):
    executor = SimExecutor(plan)
    executor.load_inputs(BatchInputs.random(plan.block_set, seed=seed))
    executor.run()
    return executor.gather_outputs()


def assert_bit_identical(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


# -- forward: bit-identical ----------------------------------------------------


@pytest.mark.parametrize("label", sorted(SCHEDULES))
def test_forward_rows_match_pairs_bit_for_bit(label):
    schedule = SCHEDULES[label]
    plan = serialize_schedule(schedule)
    validate_plan(plan)
    expanded = per_pair(plan, divisions_of(schedule))
    assert plan.tile_counts()[1] == expanded.tile_counts()[0]
    assert_bit_identical(forward_outputs(plan), forward_outputs(expanded))


@pytest.mark.parametrize(
    "planner, zigzag",
    [
        (RingAttentionPlanner(zigzag=False), False),
        (RingAttentionPlanner(zigzag=True), True),
        (TransformerEnginePlanner(), True),
    ],
    ids=["rfa_ring", "rfa_zigzag", "te"],
)
def test_ring_forward_rows_match_pairs_bit_for_bit(planner, zigzag):
    plan = planner.plan(build(CausalMask()), CLUSTER)
    validate_plan(plan)
    expanded = per_pair(plan, ring_steps_of(plan, zigzag))
    tiles, pairs = plan.tile_counts()
    assert tiles < pairs == expanded.tile_counts()[0]
    assert_bit_identical(forward_outputs(plan), forward_outputs(expanded))


# -- backward: within tolerance, dK and dV bit-identical ------------------------


def gradients(forward_plan, backward_plan):
    block_set = forward_plan.block_set
    inputs = BatchInputs.random(block_set, seed=23)
    grad_outputs = random_grads(inputs)
    outputs, grads, _, _ = run_plans_forward_backward(
        forward_plan, backward_plan, inputs, grad_outputs
    )
    assert_grads_exact(block_set, inputs, grad_outputs, outputs, grads)
    return outputs, grads


def assert_columns_keep_dkv_order(rows, pairs) -> None:
    """A column walks its Q blocks in lowering order, so every dKV
    partial sums in the per-pair order: dK and dV are bit-identical.
    dQ partials are summed column by column and may round apart."""
    (rows_out, rows_grads), (pairs_out, pairs_grads) = rows, pairs
    assert_bit_identical(rows_out, pairs_out)
    assert_bit_identical(rows_grads.dk, pairs_grads.dk)
    assert_bit_identical(rows_grads.dv, pairs_grads.dv)


@pytest.mark.parametrize("label", sorted(SCHEDULES))
def test_backward_columns_match_pairs(label):
    schedule = SCHEDULES[label]
    forward = serialize_schedule(schedule)
    backward = serialize_backward_schedule(schedule)
    validate_plan(backward)
    kernels_of = divisions_of(schedule)
    assert_columns_keep_dkv_order(
        gradients(forward, backward),
        gradients(per_pair(forward, kernels_of), per_pair(backward, kernels_of)),
    )


def test_ring_backward_columns_match_pairs():
    block_set = build(CausalMask())
    forward = RingAttentionPlanner(zigzag=False).plan(block_set, CLUSTER)
    backward = plan_ring_backward(block_set, CLUSTER)
    validate_plan(backward)
    kernels_of = ring_steps_of(forward, False)
    assert_columns_keep_dkv_order(
        gradients(forward, backward),
        gradients(per_pair(forward, kernels_of), per_pair(backward, kernels_of)),
    )


# -- validator -------------------------------------------------------------------


def first_long_tile(plan, kind):
    """(instructions, index, tile index) of the first tile that walks
    more than one block in a ``kind`` kernel."""
    for device_plan in plan.device_plans.values():
        for index, instruction in enumerate(device_plan.instructions):
            if instruction.kind != kind:
                continue
            for at, tile in enumerate(instruction.tiles):
                if len(tile.pairs) > 1:
                    return device_plan.instructions, index, at
    raise AssertionError("no tile walks two blocks")


def edited(kind, edit):
    """A validated plan of ``kind`` whose first long tile ``edit``
    replaces with a tuple of tiles."""
    schedule = SCHEDULES["partitioned-causal-T1-paper"]
    serialize = serialize_schedule if kind == "attention" else (
        serialize_backward_schedule
    )
    plan = serialize(schedule)
    validate_plan(plan)
    instructions, index, at = first_long_tile(plan, kind)
    kernel = instructions[index]
    tiles = kernel.tiles
    instructions[index] = replace(
        kernel, tiles=(*tiles[:at], *edit(tiles[at]), *tiles[at + 1:])
    )
    return plan


WALKED = {
    "attention": ("kv_slots", "kv_blocks"),
    "attention_backward": ("q_slots", "do_slots", "dq_slots", "q_blocks"),
}


def split_row(tile, kind):
    """The tile's row as two tiles: its first block, then the rest."""
    fields = WALKED[kind]
    return (
        replace(tile, **{f: getattr(tile, f)[:1] for f in fields}),
        replace(tile, **{f: getattr(tile, f)[1:] for f in fields}),
    )


def walk_twice(tile, kind):
    """The tile walking its first block again at the end."""
    fields = WALKED[kind]
    return (replace(tile, **{
        f: getattr(tile, f) + getattr(tile, f)[:1] for f in fields
    }),)


def walk_outside(tile, kind):
    """The tile's last walked block moved past the sequence."""
    blocks = WALKED[kind][-1]
    return (replace(tile, **{blocks: getattr(tile, blocks)[:-1] + (99,)}),)


@pytest.mark.parametrize("kind", sorted(WALKED))
@pytest.mark.parametrize(
    "edit, message",
    [
        (split_row, "two tiles of one kernel accumulate"),
        (walk_twice, "walks a block twice"),
        (walk_outside, "block outside sequence"),
    ],
    ids=["split_row", "repeated_block", "out_of_range_block"],
)
def test_validator_rejects(kind, edit, message):
    plan = edited(kind, lambda tile: edit(tile, kind))
    with pytest.raises(PlanValidationError, match=message):
        validate_plan(plan)


def test_validator_rejects_walked_slots_of_the_wrong_length():
    plan = edited(
        "attention", lambda tile: (replace(tile, kv_slots=tile.kv_slots[1:]),)
    )
    with pytest.raises(PlanValidationError, match="invalid slot"):
        validate_plan(plan)


# -- wire --------------------------------------------------------------------------


@pytest.mark.parametrize("retired", [0, 1])
def test_wire_refuses_the_per_pair_opcodes(retired):
    """A payload of the per-pair layout (attention opcodes 0 and 1) is a
    decode error, never a misread plan."""
    one_wait = DevicePlan(0, [CommWait(op_id=1)], {}, [])
    payload = bytearray(encode_device_payload(0, one_wait))
    # Magic, itemsize, two empty tables and the lane length; then the
    # lane: device id, instruction count, the wait's opcode.
    opcode = len(DEVICE_MAGIC) + 1 + 4 + 4 + 8 + 2 * 4
    assert payload[opcode:opcode + 4] == (6).to_bytes(4, "little")
    payload[opcode:opcode + 4] = retired.to_bytes(4, "little")
    with pytest.raises(PlanWireError, match=f"bad opcode {retired}"):
        decode_device_payload(bytes(payload))
