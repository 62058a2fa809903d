"""The static-ring lowering shared by every baseline, and RingFlashAttention.

The ``R`` devices form a grid of ``sr = R / hp`` ring positions x ``hp``
head rows; device ``(p, h)`` is ``p * hp + h`` and computes head groups
``g`` with ``g % hp == h``.  Token slices go to ring positions by a
contiguous or zigzag (paper Fig. 4) assignment; inside a position, slice
homes alternate between the ``hp`` sibling devices.

Execution per device ``(p, h)``:

1. *prologue* (the all-to-all of head parallelism): fetch the
   head-row-``h`` Q/KV blocks of position ``p`` homed on sibling devices;
2. ``sr`` ring steps circulating the head row's KV chunks — statically,
   every step, regardless of mask sparsity (the baseline inefficiency
   DCP removes, paper Fig. 7); each step is one kernel with one tile per
   Q row, as DCP's (:func:`~repro.scheduling.serialize.forward_tiles`);
3. *epilogue*: ship partial outputs back to their home devices, merge,
   finalize (:func:`~repro.scheduling.serialize.finish_outputs`).

With ``hp = 1`` there is no prologue or epilogue traffic: that is
RingFlashAttention (paper baseline (i), [49]), which parallelizes only
along the sequence — ``Ring`` with contiguous chunks, ``ZigZag`` with the
causal-balancing zigzag.  Nothing is merged, so each device finalizes in
its last attention kernel.  TransformerEngine is the same ring with one
head row per KV group (:mod:`.transformer_engine`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from ..blocks import BlockKind, BlockSet, DataBlockId
from ..placement.heuristics import zigzag_chunk_device
from ..scheduling.buffers import BufferManager
from ..scheduling.instructions import (
    BlockwiseAttention,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
    FinalizeArg,
    MergeArg,
    RecvArg,
    SendArg,
)
from ..scheduling.serialize import finish_outputs, forward_tiles
from ..sim.cluster import ClusterSpec

__all__ = ["RingAttentionPlanner", "ring_layout", "slice_positions", "static_ring_plan"]


def slice_positions(block_set: BlockSet, k: int, zigzag: bool) -> np.ndarray:
    """Ring position (``0 .. k-1``) of every token slice.

    A sequence of ``n`` slices is cut into ``k`` contiguous chunks (slice
    ``i`` goes to ``i * k // n``; short sequences leave positions empty),
    or with ``zigzag`` into ``2k`` chunks paired mirror-wise so every
    position gets an early and a late chunk, balancing causal work.
    """
    slices_of_seq = Counter(ts.seq_index for ts in block_set.token_slices)
    return np.array(
        [
            zigzag_chunk_device(ts.block_index, slices_of_seq[ts.seq_index], k)
            if zigzag
            else ts.block_index * k // slices_of_seq[ts.seq_index]
            for ts in block_set.token_slices
        ],
        dtype=np.int64,
    )


@dataclass
class RingLayout:
    """Who holds and computes what in a static ring of ``sr`` x ``hp``."""

    hp: int
    sr: int
    position_slices: List[List[int]]  # token slice indices, (seq, block) order
    home: np.ndarray  # device each token slice is homed on
    slice_of: Dict[Tuple[int, int], int]  # (seq, block) -> token slice index
    chunks: Dict[Tuple[int, int], List[DataBlockId]]  # (position, head row)
    tiles: Dict[Tuple[int, int], List]  # (device, ring step) -> comp blocks
    produced: Set[Tuple[int, Tuple[int, int, int]]]  # (device, output row)

    def device(self, position: int, head_row: int) -> int:
        return position * self.hp + head_row


def ring_layout(
    block_set: BlockSet, num_devices: int, hp: int, zigzag: bool
) -> RingLayout:
    """Place slices, KV chunks and computation on the ring."""
    if num_devices % hp != 0:
        raise ValueError(f"{num_devices} devices do not split into {hp} head rows")
    sr = num_devices // hp
    head_groups = block_set.attention.head_groups
    token_slices = block_set.token_slices
    position_of_slice = slice_positions(block_set, sr, zigzag)
    position_slices: List[List[int]] = [[] for _ in range(sr)]
    for index in sorted(
        range(len(token_slices)),
        key=lambda i: (token_slices[i].seq_index, token_slices[i].block_index),
    ):
        position_slices[int(position_of_slice[index])].append(index)

    home = np.zeros(len(token_slices), dtype=np.int64)
    chunks: Dict[Tuple[int, int], List[DataBlockId]] = {
        (p, h): [] for p in range(sr) for h in range(hp)
    }
    for position, slice_ids in enumerate(position_slices):
        for order, slice_index in enumerate(slice_ids):
            home[slice_index] = position * hp + order % hp
            token_slice = token_slices[slice_index]
            for head_group in range(head_groups):
                chunks[(position, head_group % hp)].append(
                    DataBlockId(
                        BlockKind.KV,
                        token_slice.seq_index,
                        token_slice.block_index,
                        head_group,
                    )
                )

    slice_of = {(ts.seq_index, ts.block_index): i for i, ts in enumerate(token_slices)}
    tiles: Dict[Tuple[int, int], List] = {}
    produced: Set[Tuple[int, Tuple[int, int, int]]] = set()
    for comp in block_set.comp_blocks:
        q_position = int(position_of_slice[slice_of[(comp.seq_index, comp.q_block)]])
        kv_position = int(position_of_slice[slice_of[(comp.seq_index, comp.kv_block)]])
        owner = q_position * hp + comp.head_group % hp
        tiles.setdefault((owner, (q_position - kv_position) % sr), []).append(comp)
        produced.add((owner, (comp.seq_index, comp.q_block, comp.head_group)))
    return RingLayout(hp, sr, position_slices, home, slice_of, chunks, tiles, produced)


def static_ring_plan(
    block_set: BlockSet, cluster: ClusterSpec, planner: str, hp: int, zigzag: bool
) -> ExecutionPlan:
    """Lower ``block_set`` onto the static ring with ``hp`` head rows."""
    layout = ring_layout(block_set, cluster.num_devices, hp, zigzag)
    device_plans = {
        device: _device_plan(device, block_set, layout)
        for device in range(cluster.num_devices)
    }
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=device_plans,
        meta={"planner": planner, "head_parallel": hp, "ring": layout.sr},
    )


def _device_plan(device: int, block_set: BlockSet, layout: RingLayout) -> DevicePlan:
    hp, sr = layout.hp, layout.sr
    position, head_row = divmod(device, hp)
    head_groups = block_set.attention.head_groups
    my_head_groups = [g for g in range(head_groups) if g % hp == head_row]
    buffers = BufferManager()
    instructions: List = []
    q_slots: Dict[Tuple[int, int, int], int] = {}
    kv_slots: Dict[Tuple[int, int, int], int] = {}
    o_slots: Dict[Tuple[int, int, int], int] = {}
    acc_slots: Dict[Tuple[int, int, int], int] = {}
    remote_q: Dict[DataBlockId, int] = {}

    local_slices = [
        block_set.token_slices[i]
        for i in layout.position_slices[position]
        if int(layout.home[i]) == device
    ]
    for token_slice in local_slices:
        for head_group in range(head_groups):
            key = (token_slice.seq_index, token_slice.block_index, head_group)
            q_slots[key] = buffers.alloc("q")
            kv_slots[key] = buffers.alloc("kv")
            o_slots[key] = buffers.alloc("o")

    def acc_for(key: Tuple[int, int, int]) -> int:
        if key not in acc_slots:
            acc_slots[key] = buffers.alloc("acc")
        return acc_slots[key]

    def home_of(seq_index: int, block_index: int) -> int:
        return int(layout.home[layout.slice_of[(seq_index, block_index)]])

    # -- prologue: gather my head groups' Q and KV of my position --------
    current: Dict[DataBlockId, int] = {}
    prologue_recvs: List[RecvArg] = []
    for slice_index in layout.position_slices[position]:
        token_slice = block_set.token_slices[slice_index]
        home = int(layout.home[slice_index])
        for head_group in my_head_groups:
            key = (token_slice.seq_index, token_slice.block_index, head_group)
            kv_block = DataBlockId(BlockKind.KV, *key)
            if home == device:
                current[kv_block] = kv_slots[key]
                continue
            q_block = DataBlockId(BlockKind.Q, *key)
            for block, buffer, slots in (
                (q_block, "q", remote_q),
                (kv_block, "kv", current),
            ):
                slot = slots[block] = buffers.alloc(buffer)
                prologue_recvs.append(
                    RecvArg(
                        peer=home,
                        buffer=buffer,
                        slot=slot,
                        tag=("a2a", block),
                        nbytes=block_set.block_bytes(block),
                    )
                )
    # Matching prologue sends: blocks homed here that siblings need.
    prologue_sends: List[SendArg] = []
    for token_slice in local_slices:
        for head_group in range(head_groups):
            if head_group % hp == head_row:
                continue
            key = (token_slice.seq_index, token_slice.block_index, head_group)
            for kind, buffer, slot in (
                (BlockKind.Q, "q", q_slots[key]),
                (BlockKind.KV, "kv", kv_slots[key]),
            ):
                block = DataBlockId(kind, *key)
                prologue_sends.append(
                    SendArg(
                        peer=layout.device(position, head_group % hp),
                        buffer=buffer,
                        slot=slot,
                        tag=("a2a", block),
                        nbytes=block_set.block_bytes(block),
                    )
                )
    op_base = device * 1_000_000
    if prologue_sends or prologue_recvs:
        instructions.append(
            CommLaunch(
                op_id=op_base,
                sends=tuple(prologue_sends),
                recvs=tuple(prologue_recvs),
            )
        )
        instructions.append(CommWait(op_id=op_base))

    def read(buffer: str, key: Tuple[int, int, int]) -> int:
        if buffer == "kv":
            return current[DataBlockId(BlockKind.KV, *key)]
        if key in q_slots:
            return q_slots[key]
        return remote_q[DataBlockId(BlockKind.Q, *key)]

    def accumulate(buffer: str, key: Tuple[int, int, int]) -> int:
        return acc_for(key)

    # -- ring steps over positions (head row fixed) ----------------------
    next_peer = layout.device((position + 1) % sr, head_row)
    prev_peer = layout.device((position - 1) % sr, head_row)
    for step in range(sr):
        held = layout.chunks[((position - step) % sr, head_row)]
        incoming = layout.chunks[((position - step - 1) % sr, head_row)]
        op_id = op_base + 1 + step
        recv_slots: Dict[DataBlockId, int] = {}
        launched = False
        if step < sr - 1:
            sends = tuple(
                SendArg(
                    peer=next_peer,
                    buffer="kv",
                    slot=current[block],
                    tag=("ring", head_row, step, block),
                    nbytes=block_set.block_bytes(block),
                )
                for block in held
            )
            recvs = []
            for block in incoming:
                slot = buffers.alloc("kv")
                recv_slots[block] = slot
                recvs.append(
                    RecvArg(
                        peer=prev_peer,
                        buffer="kv",
                        slot=slot,
                        tag=("ring", head_row, step, block),
                        nbytes=block_set.block_bytes(block),
                    )
                )
            if sends or recvs:
                instructions.append(
                    CommLaunch(op_id=op_id, sends=sends, recvs=tuple(recvs))
                )
                launched = True

        tiles = forward_tiles(
            layout.tiles.get((device, step), []), read, accumulate
        )
        if tiles:
            instructions.append(BlockwiseAttention(tiles))

        if step < sr - 1:
            if launched:
                instructions.append(CommWait(op_id=op_id))
            # Retire the chunk just used, unless it is data homed here.
            for block in held:
                slot = current.pop(block)
                if step > 0 or home_of(block.seq_index, block.block_index) != device:
                    buffers.free("kv", slot)
            current.update(recv_slots)

    # -- epilogue: return partial outputs to their home devices ----------
    out_sends: List[SendArg] = []
    for key in sorted(acc_slots):
        home = home_of(key[0], key[1])
        if home == device:
            continue
        block = DataBlockId(BlockKind.O, *key)
        out_sends.append(
            SendArg(
                peer=home,
                buffer="acc",
                slot=acc_slots[key],
                tag=("out", block, device),
                nbytes=block_set.block_bytes(block),
            )
        )
    out_recvs: List[RecvArg] = []
    staging: List[Tuple[Tuple[int, int, int], int]] = []
    for token_slice in local_slices:
        for head_group in range(head_groups):
            if head_group % hp == head_row:
                continue  # computed locally
            producer = layout.device(position, head_group % hp)
            key = (token_slice.seq_index, token_slice.block_index, head_group)
            if (producer, key) not in layout.produced:
                continue  # fully masked output row: nothing to merge
            block = DataBlockId(BlockKind.O, *key)
            slot = buffers.alloc("acc")
            staging.append((key, slot))
            out_recvs.append(
                RecvArg(
                    peer=producer,
                    buffer="acc",
                    slot=slot,
                    tag=("out", block, producer),
                    nbytes=block_set.block_bytes(block),
                )
            )
    if out_sends or out_recvs:
        op_id = op_base + sr + 1
        instructions.append(
            CommLaunch(op_id=op_id, sends=tuple(out_sends), recvs=tuple(out_recvs))
        )
        instructions.append(CommWait(op_id=op_id))

    merges = tuple(
        MergeArg(src_acc_slot=slot, dst_acc_slot=acc_for(key)) for key, slot in staging
    )
    finalizes = tuple(
        FinalizeArg(acc_slot=acc_for(key), o_slot=o_slot)
        for key, o_slot in o_slots.items()
    )
    finish_outputs(instructions, merges, finalizes)

    return DevicePlan(
        device=device,
        instructions=instructions,
        buffer_sizes=buffers.sizes(),
        local_slices=local_slices,
        o_slots=o_slots,
        q_slots=q_slots,
        kv_slots=kv_slots,
        acc_slots=dict(acc_slots),
    )


class RingAttentionPlanner:
    """RFA with ``Ring`` or ``ZigZag`` input placement: one head row."""

    def __init__(self, zigzag: bool = False) -> None:
        self.zigzag = zigzag

    @property
    def name(self) -> str:
        return "rfa_zigzag" if self.zigzag else "rfa_ring"

    def plan(self, block_set: BlockSet, cluster: ClusterSpec) -> ExecutionPlan:
        return static_ring_plan(block_set, cluster, self.name, 1, self.zigzag)
