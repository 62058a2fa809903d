"""Structural validation of execution plans.

Catches planner/serializer bugs before execution: slot references
outside buffer bounds, waits without launches, unmatched sends/receives
across devices, attention tiles whose blocks do not exist in the
batch, a row split over two tiles of one kernel (one tile per
accumulator: a Q row forward, a KV column backward) or walking a block
twice, and finalize order — every homed output slot finalized exactly
once (by a reduction or an attention epilogue), and no tile or merge
into an accumulator after it was finalized.  Used by the test suite
and available to planner authors.
"""

from __future__ import annotations

from typing import Set, Tuple

from .instructions import (
    BlockwiseAttention,
    BlockwiseAttentionBackward,
    BlockwiseGradReduce,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    ExecutionPlan,
)

__all__ = ["PlanValidationError", "validate_plan"]


class PlanValidationError(AssertionError):
    """An execution plan violates a structural invariant."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise PlanValidationError(message)


def validate_plan(plan: ExecutionPlan) -> None:
    """Raise :class:`PlanValidationError` on any structural violation."""
    block_set = plan.block_set
    sends: Set[Tuple[int, int, Tuple]] = set()
    recvs: Set[Tuple[int, int, Tuple]] = set()

    for device, device_plan in plan.device_plans.items():
        _check(device_plan.device == device, f"device id mismatch on {device}")
        sizes = device_plan.buffer_sizes
        launched: Set[int] = set()
        needs_wait: Set[int] = set()
        waited: Set[int] = set()

        finalized_acc: Set[int] = set()
        finalized_o: Set[int] = set()

        def slot_ok(buffer: str, slot: int) -> bool:
            return 0 <= slot < sizes.get(buffer, 0)

        def check_tiles(kernel, accumulator: str, walked: str, slots) -> None:
            """At most one tile per ``accumulator`` slot in ``kernel``,
            each walking in-batch ``walked`` blocks once.  ``slots`` maps
            every slot field to its buffer; a tuple field holds one slot
            per walked block."""
            rows: Set[int] = set()
            for tile in kernel.tiles:
                _check(
                    0 <= tile.seq_index < len(block_set.batch.sequences),
                    "tile references unknown sequence",
                )
                blocks = len(block_set.seq_bounds[tile.seq_index]) - 1
                _check(
                    all(
                        0 <= block < blocks
                        for pair in tile.pairs
                        for block in pair
                    ),
                    "tile references block outside sequence",
                )
                path = getattr(tile, walked)
                _check(
                    len(set(path)) == len(path),
                    f"tile walks a block twice on device {device}",
                )
                for field, buffer in slots.items():
                    value = getattr(tile, field)
                    walks = isinstance(value, tuple)
                    _check(
                        all(slot_ok(buffer, slot)
                            for slot in (value if walks else (value,)))
                        and (not walks or len(value) == len(path)),
                        f"tile references invalid slot on device {device}",
                    )
                row = getattr(tile, accumulator)
                _check(
                    row not in rows,
                    f"two tiles of one kernel accumulate into "
                    f"{slots[accumulator]}[{row}] on device {device}",
                )
                rows.add(row)

        def accumulate(acc_slot: int, what: str) -> None:
            _check(
                acc_slot not in finalized_acc,
                f"{what} into acc[{acc_slot}] after it was finalized "
                f"on device {device}",
            )

        def finalize(finalizes) -> None:
            for fin in finalizes:
                _check(
                    slot_ok("acc", fin.acc_slot) and slot_ok("o", fin.o_slot),
                    f"finalize slot out of range on device {device}",
                )
                _check(
                    fin.o_slot not in finalized_o,
                    f"o[{fin.o_slot}] finalized twice on device {device}",
                )
                finalized_o.add(fin.o_slot)
                finalized_acc.add(fin.acc_slot)

        for instruction in device_plan.instructions:
            if isinstance(instruction, CommLaunch):
                _check(
                    instruction.op_id not in launched,
                    f"op {instruction.op_id} launched twice on {device}",
                )
                launched.add(instruction.op_id)
                for send in instruction.sends:
                    _check(
                        send.peer != device,
                        f"device {device} sends to itself",
                    )
                    _check(
                        slot_ok(send.buffer, send.slot),
                        f"send slot {send.buffer}[{send.slot}] out of range "
                        f"on device {device}",
                    )
                    key = (device, send.peer, send.tag)
                    _check(key not in sends, f"duplicate send {key}")
                    sends.add(key)
                if instruction.recvs:
                    needs_wait.add(instruction.op_id)
                for recv in instruction.recvs:
                    _check(
                        slot_ok(recv.buffer, recv.slot),
                        f"recv slot {recv.buffer}[{recv.slot}] out of range "
                        f"on device {device}",
                    )
                    key = (recv.peer, device, recv.tag)
                    _check(key not in recvs, f"duplicate recv {key}")
                    recvs.add(key)
            elif isinstance(instruction, CommWait):
                _check(
                    instruction.op_id in launched,
                    f"wait for unlaunched op {instruction.op_id} "
                    f"on device {device}",
                )
                waited.add(instruction.op_id)
            elif isinstance(instruction, BlockwiseAttention):
                check_tiles(instruction, "acc_slot", "kv_blocks", {
                    "q_slot": "q", "acc_slot": "acc", "kv_slots": "kv",
                })
                for tile in instruction.tiles:
                    accumulate(tile.acc_slot, "tile")
                finalize(instruction.finalizes)
            elif isinstance(instruction, BlockwiseAttentionBackward):
                check_tiles(instruction, "dkv_slot", "q_blocks", {
                    "kv_slot": "kv", "dkv_slot": "dkv", "q_slots": "q",
                    "do_slots": "do", "dq_slots": "dq",
                })
            elif isinstance(instruction, BlockwiseGradReduce):
                for add in instruction.adds:
                    _check(
                        slot_ok(add.buffer, add.src_slot)
                        and slot_ok(add.buffer, add.dst_slot),
                        f"grad-reduce slot out of range on device {device}",
                    )
            elif isinstance(instruction, BlockwiseReduction):
                for merge in instruction.merges:
                    _check(
                        slot_ok("acc", merge.src_acc_slot)
                        and slot_ok("acc", merge.dst_acc_slot),
                        f"reduction slot out of range on device {device}",
                    )
                    accumulate(merge.dst_acc_slot, "merge")
                finalize(instruction.finalizes)
            else:
                raise PlanValidationError(
                    f"unknown instruction {instruction!r} on device {device}"
                )

        missing = needs_wait - waited
        _check(
            not missing,
            f"device {device} never waits for receives of ops "
            f"{sorted(missing)} (buffers would be read before arrival)",
        )
        unfinalized = set(device_plan.o_slots.values()) - finalized_o
        _check(
            not unfinalized,
            f"device {device} never finalizes o slots {sorted(unfinalized)}",
        )

    _check(
        sends == recvs,
        f"unmatched messages: {len(sends - recvs)} sends without recv, "
        f"{len(recvs - sends)} recvs without send",
    )
