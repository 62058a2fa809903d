"""The one static-ring lowering every baseline shares, for either pass.

The ``R`` devices form a grid of ``sr = R / hp`` ring positions x ``hp``
head rows; device ``(p, h)`` is ``p * hp + h`` and computes head groups
``g`` with ``g % hp == h``.  Token slices go to ring positions by a
contiguous or zigzag (paper Fig. 4) assignment; inside a position, slice
homes alternate between the ``hp`` sibling devices.

:func:`lower_ring` lowers a pass on the serializer's own pass objects
(:class:`~repro.scheduling.serialize.Forward` /
:class:`~repro.scheduling.serialize.Backward`).  A pass's KV-side
buffers circulate: ``kv`` forward, ``kv`` with its ``dkv`` accumulator
backward (Ring Attention's backward: each device adds its gradient as
the pair passes through; dQ and the dO packages stay home).  Per device
``(p, h)``:

1. *prologue* (the all-to-all of head parallelism): fetch the
   head-row-``h`` blocks of position ``p`` homed on sibling devices;
2. ``sr`` ring steps circulating the head row's KV-side buffers —
   statically, every step, regardless of mask sparsity (the baseline
   inefficiency DCP removes, paper Fig. 7); each step is one kernel
   with one tile per row, as DCP's
   (:func:`~repro.scheduling.serialize.row_tiles`).  A pass whose
   partial circulates (backward) launches each hop after its kernel,
   the forward before it;
3. *epilogue*: a circulating partial takes one last hop, to its KV
   chunk's home; otherwise partials go home and the pass reduces them
   (the forward merges and finalizes).

With ``hp = 1`` there is no prologue traffic and nothing is merged:
that is RingFlashAttention (paper baseline (i), [49]), which
parallelizes only along the sequence — ``Ring`` with contiguous chunks,
``ZigZag`` with the causal-balancing zigzag — and each device finalizes
in its last attention kernel.  TransformerEngine is the same forward
ring with head rows (:mod:`.transformer_engine`); the backward ring has
one head row only.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from ..blocks import BlockSet
from ..placement.heuristics import zigzag_chunk_device
from ..scheduling.instructions import DevicePlan, ExecutionPlan, RecvArg, SendArg
from ..scheduling.serialize import KV_SIDE, Backward, DeviceStream, Forward, row_tiles
from ..sim.cluster import ClusterSpec

__all__ = [
    "RingAttentionPlanner",
    "lower_ring",
    "plan_ring_backward",
    "ring_layout",
    "run_ring_forward_backward",
    "slice_positions",
    "static_ring_plan",
]


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
    chunks: Dict[Tuple[int, int], List[Tuple[int, int, int]]]  # KV keys of
    # (position, head row)
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
    chunks: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {
        (p, h): [] for p in range(sr) for h in range(hp)
    }
    for position, slice_ids in enumerate(position_slices):
        for order, slice_index in enumerate(slice_ids):
            home[slice_index] = position * hp + order % hp
            token_slice = token_slices[slice_index]
            for head_group in range(head_groups):
                chunks[(position, head_group % hp)].append(
                    (token_slice.seq_index, token_slice.block_index, head_group)
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
    """The forward plan of ``block_set`` on the static ring with ``hp``
    head rows."""
    layout = ring_layout(block_set, cluster.num_devices, hp, zigzag)
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=lower_ring(block_set, layout, Forward),
        meta={"planner": planner, "head_parallel": hp, "ring": layout.sr},
    )


def plan_ring_backward(
    block_set: BlockSet, cluster: ClusterSpec, zigzag: bool = False
) -> ExecutionPlan:
    """The RFA backward plan: the forward's ring, KV and dKV circulating."""
    layout = ring_layout(block_set, cluster.num_devices, 1, zigzag)
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=lower_ring(block_set, layout, Backward),
        meta={
            "planner": "rfa_zigzag" if zigzag else "rfa_ring",
            "phase": "backward",
        },
    )


def run_ring_forward_backward(
    block_set: BlockSet,
    cluster: ClusterSpec,
    inputs,
    grad_outputs,
    zigzag: bool = False,
):
    """Forward + backward through the RFA ring on the simulated cluster.

    Returns ``(outputs, grads, forward_executor, backward_executor)``
    like :func:`repro.runtime.backward.run_plans_forward_backward`.
    """
    from ..runtime.backward import run_plans_forward_backward

    return run_plans_forward_backward(
        RingAttentionPlanner(zigzag=zigzag).plan(block_set, cluster),
        plan_ring_backward(block_set, cluster, zigzag=zigzag),
        inputs,
        grad_outputs,
    )


def lower_ring(
    block_set: BlockSet, layout: RingLayout, lowering
) -> Dict[int, DevicePlan]:
    """Every device's plan for one pass (``Forward`` / ``Backward``) on
    the ring ``layout``."""
    if layout.hp > 1 and any(side == KV_SIDE for _, side in lowering.accumulates):
        raise ValueError(
            f"a circulating partial needs one head row, not {layout.hp}"
        )
    return {
        device: _lower_device(device, block_set, layout, lowering)
        for device in range(layout.sr * layout.hp)
    }


def _lower_device(
    device_id: int, block_set: BlockSet, layout: RingLayout, lowering
) -> DevicePlan:
    hp, sr = layout.hp, layout.sr
    position, head_row = divmod(device_id, hp)
    device = DeviceStream(device_id, lowering)
    attention = block_set.attention
    block_bytes = (attention.q_block_bytes, attention.kv_block_bytes)
    # The KV-side buffers circulate; of them, the partials are carried.
    carried = [buffer for buffer, side in lowering.accumulates if side == KV_SIDE]
    circulating = [
        buffer for buffer, side in lowering.reads if side == KV_SIDE
    ] + carried

    def home_of(key: Tuple[int, int, int]) -> int:
        return int(layout.home[layout.slice_of[key[:2]]])

    def nbytes(side: int, key: Tuple[int, int, int]) -> int:
        token_slice = block_set.token_slices[layout.slice_of[key[:2]]]
        return block_bytes[side](token_slice.tokens)

    def hop(sends: List, recvs: List) -> None:
        op = device.launch(sends, recvs)
        if op is not None:
            device.pending.append(op)

    device.local_slices = [
        block_set.token_slices[i]
        for i in layout.position_slices[position]
        if int(layout.home[i]) == device_id
    ]
    homed = [
        (token_slice.seq_index, token_slice.block_index, head_group)
        for token_slice in device.local_slices
        for head_group in range(attention.head_groups)
    ]
    for key in homed:
        for buffer in (*lowering.homed, *carried):
            device.slots[buffer][key] = device.buffers.alloc(buffer)

    # -- prologue: gather my head row's blocks of my position ------------
    # ``device.remote`` holds the fetched blocks and, per circulating
    # buffer, the slot of the chunk held now.
    recvs = []
    for key in layout.chunks[(position, head_row)]:
        home = home_of(key)
        if home == device_id:
            for buffer in circulating:
                device.remote[buffer, key] = device.slots[buffer][key]
            continue
        for buffer, side in lowering.reads:
            slot = device.remote[buffer, key] = device.buffers.alloc(buffer)
            recvs.append(RecvArg(
                peer=home, buffer=buffer, slot=slot,
                tag=("a2a", buffer, key), nbytes=nbytes(side, key),
            ))
    # Matching sends: blocks homed here that siblings compute on.
    hop(
        [
            SendArg(
                peer=layout.device(position, key[2] % hp), buffer=buffer,
                slot=device.slots[buffer][key],
                tag=("a2a", buffer, key), nbytes=nbytes(side, key),
            )
            for key in homed
            if key[2] % hp != head_row
            for buffer, side in lowering.reads
        ],
        recvs,
    )
    device.wait()

    def accumulate(buffer: str, key: Tuple[int, int, int]) -> int:
        if buffer in carried:
            return device.remote[buffer, key]
        return device.accumulator(buffer, key)

    # -- ring steps over positions (head row fixed) ----------------------
    next_peer = layout.device((position + 1) % sr, head_row)
    prev_peer = layout.device((position - 1) % sr, head_row)

    def chunk(step: int) -> List[Tuple[int, int, int]]:
        """The chunk this device holds at ring step ``step``."""
        return layout.chunks[((position - step) % sr, head_row)]

    for step in range(sr):
        held, arriving = chunk(step), {}
        if step < sr - 1:
            sends = [
                SendArg(
                    peer=next_peer, buffer=buffer,
                    slot=device.remote[buffer, key],
                    tag=("ring", step, buffer, key),
                    nbytes=nbytes(KV_SIDE, key),
                )
                for key in held
                for buffer in circulating
            ]
            recvs = []
            for key in chunk(step + 1):
                for buffer in circulating:
                    slot = arriving[buffer, key] = device.buffers.alloc(buffer)
                    recvs.append(RecvArg(
                        peer=prev_peer, buffer=buffer, slot=slot,
                        tag=("ring", step, buffer, key),
                        nbytes=nbytes(KV_SIDE, key),
                    ))
            if not carried:
                hop(sends, recvs)
        tiles = row_tiles(
            lowering, layout.tiles.get((device_id, step), []),
            device.read, accumulate,
        )
        if tiles:
            device.instructions.append(lowering.kernel(tiles))
        if step < sr - 1:
            if carried:
                hop(sends, recvs)
            device.wait()
            # Retire the chunk just used, unless it is data homed here.
            for key in held:
                for buffer in circulating:
                    slot = device.remote.pop((buffer, key))
                    if step > 0 or home_of(key) != device_id:
                        device.buffers.free(buffer, slot)
            device.remote.update(arriving)

    # -- epilogue ----------------------------------------------------------
    if carried:
        # The chunk held after the last step is the next device's: its
        # partials are complete, and take one last hop home.
        if sr > 1:
            hop(
                [
                    SendArg(
                        peer=next_peer, buffer=buffer,
                        slot=device.remote[buffer, key],
                        tag=("home", buffer, key), nbytes=nbytes(KV_SIDE, key),
                    )
                    for key in chunk(sr - 1)
                    for buffer in carried
                ],
                [
                    RecvArg(
                        peer=prev_peer, buffer=buffer,
                        slot=device.slots[buffer][key],
                        tag=("home", buffer, key), nbytes=nbytes(KV_SIDE, key),
                    )
                    for key in chunk(0)
                    for buffer in carried
                ],
            )
            device.wait()
        return device.plan()

    # Partials computed for sibling-homed rows go home, then reduce.
    sends = [
        SendArg(
            peer=home_of(key), buffer=buffer, slot=device.slots[buffer][key],
            tag=lowering.out_tag(buffer, key, device_id),
            nbytes=nbytes(side, key),
        )
        for buffer, side in lowering.accumulates
        for key in sorted(device.slots[buffer])
        if home_of(key) != device_id
    ]
    recvs, staged = [], []
    for key in homed:
        producer = layout.device(position, key[2] % hp)
        if producer == device_id or (producer, key) not in layout.produced:
            continue  # computed here, or a fully masked row: no partial
        for buffer, side in lowering.accumulates:
            slot = device.buffers.alloc(buffer)
            staged.append((buffer, key, slot))
            recvs.append(RecvArg(
                peer=producer, buffer=buffer, slot=slot,
                tag=lowering.out_tag(buffer, key, producer),
                nbytes=nbytes(side, key),
            ))
    hop(sends, recvs)
    device.wait()
    lowering.reduce(device, staged)
    return device.plan()


class RingAttentionPlanner:
    """RFA with ``Ring`` or ``ZigZag`` input placement: one head row."""

    def __init__(self, zigzag: bool = False) -> None:
        self.zigzag = zigzag

    @property
    def name(self) -> str:
        return "rfa_zigzag" if self.zigzag else "rfa_ring"

    def plan(self, block_set: BlockSet, cluster: ClusterSpec) -> ExecutionPlan:
        return static_ring_plan(block_set, cluster, self.name, 1, self.zigzag)
