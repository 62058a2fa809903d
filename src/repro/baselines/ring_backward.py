"""Ring attention backward pass (RingFlashAttention semantics).

Backward in ring attention circulates *two* payloads per hop: the KV
chunk (needed to recompute tile probabilities) and its running dKV
accumulator.  Each device adds its gradient contribution as the pair
passes through; after the last step, every accumulator takes one final
hop to the KV chunk's home device.  dQ accumulates locally (Q never
moves), and the dO/lse/delta packages are local too — exactly the
communication doubling the paper's analytic backward model assumes.
Each step is one kernel with one tile per KV column, as DCP's
(:func:`~repro.scheduling.serialize.backward_tiles`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..blocks import BlockKind, BlockSet, DataBlockId
from ..scheduling.buffers import BufferManager
from ..scheduling.instructions import (
    BlockwiseAttentionBackward,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
    RecvArg,
    SendArg,
)
from ..scheduling.serialize import backward_tiles
from ..sim.cluster import ClusterSpec
from .ring import RingAttentionPlanner, ring_layout

__all__ = ["plan_ring_backward", "run_ring_forward_backward"]


def run_ring_forward_backward(
    block_set: BlockSet,
    cluster: ClusterSpec,
    inputs,
    grad_outputs,
    zigzag: bool = False,
):
    """Forward + backward through the RFA ring on the simulated cluster.

    Returns ``(outputs, grads, forward_executor, backward_executor)``
    like :func:`repro.runtime.run_plans_forward_backward`.
    """
    from ..runtime.backward import run_plans_forward_backward

    forward_plan = RingAttentionPlanner(zigzag=zigzag).plan(block_set, cluster)
    backward_plan = plan_ring_backward(block_set, cluster, zigzag=zigzag)
    return run_plans_forward_backward(
        forward_plan, backward_plan, inputs, grad_outputs, init_dkv=True
    )


def plan_ring_backward(
    block_set: BlockSet, cluster: ClusterSpec, zigzag: bool = False
) -> ExecutionPlan:
    """Build the ring backward plan (matches the RFA forward placement)."""
    num_devices = cluster.num_devices
    layout = ring_layout(block_set, num_devices, hp=1, zigzag=zigzag)
    device_plans: Dict[int, DevicePlan] = {}
    for device in range(num_devices):
        buffers = BufferManager()
        instructions: List = []
        slots: Dict[str, Dict[Tuple[int, int, int], int]] = {
            buffer: {} for buffer in ("q", "kv", "do", "dq", "dkv")
        }
        local_slices = [
            block_set.token_slices[i] for i in layout.position_slices[device]
        ]
        for token_slice in local_slices:
            for head_group in range(block_set.attention.head_groups):
                key = (token_slice.seq_index, token_slice.block_index, head_group)
                for buffer, slot_map in slots.items():
                    slot_map[key] = buffers.alloc(buffer)

        # Current circulating slots of the kv and dkv payload per block.
        current: Dict[str, Dict[DataBlockId, int]] = {
            buffer: {
                DataBlockId(BlockKind.KV, *key): slot
                for key, slot in slots[buffer].items()
            }
            for buffer in ("kv", "dkv")
        }
        next_peer = (device + 1) % num_devices
        prev_peer = (device - 1) % num_devices
        op_base = device * 1_000_000

        def slot_of(buffer: str, key: Tuple[int, int, int]) -> int:
            """kv and dkv circulate; q, do and dq stay at home."""
            if buffer in current:
                return current[buffer][DataBlockId(BlockKind.KV, *key)]
            return slots[buffer][key]

        for step in range(num_devices):
            held = layout.chunks[((device - step) % num_devices, 0)]
            incoming = layout.chunks[((device - step - 1) % num_devices, 0)]

            tiles = backward_tiles(
                layout.tiles.get((device, step), []), slot_of, slot_of
            )
            if tiles:
                instructions.append(BlockwiseAttentionBackward(tiles))

            if step < num_devices - 1:
                # Forward the held chunk (kv + dkv) after computing on it;
                # dK+dV mirror K+V in size.
                op_id = op_base + step
                sends = []
                recvs = []
                arriving: Dict[str, Dict[DataBlockId, int]] = {"kv": {}, "dkv": {}}
                for block in held:
                    for buffer, now in current.items():
                        sends.append(
                            SendArg(
                                peer=next_peer, buffer=buffer, slot=now[block],
                                tag=("bwring", buffer, step, block),
                                nbytes=block_set.block_bytes(block),
                            )
                        )
                for block in incoming:
                    for buffer, slot_map in arriving.items():
                        slot_map[block] = buffers.alloc(buffer)
                        recvs.append(
                            RecvArg(
                                peer=prev_peer, buffer=buffer,
                                slot=slot_map[block],
                                tag=("bwring", buffer, step, block),
                                nbytes=block_set.block_bytes(block),
                            )
                        )
                if sends or recvs:
                    instructions.append(
                        CommLaunch(op_id=op_id, sends=tuple(sends),
                                   recvs=tuple(recvs))
                    )
                    instructions.append(CommWait(op_id=op_id))
                # Retire the forwarded slots (payloads were snapshotted at
                # launch) and adopt the incoming chunk.
                for buffer, now in current.items():
                    for block in held:
                        slot = now.pop(block)
                        if step > 0:
                            buffers.free(buffer, slot)
                    now.update(arriving[buffer])

        # Final hop: the chunk held after the last step belongs to the
        # next device; its accumulator is complete — send it home.
        sends, recvs = [], []
        if num_devices > 1:
            sends = [
                SendArg(
                    peer=next_peer, buffer="dkv",
                    slot=current["dkv"][block],
                    tag=("bwring", "final", block),
                    nbytes=block_set.block_bytes(block),
                )
                for block in layout.chunks[((device + 1) % num_devices, 0)]
            ]
            recvs = [
                RecvArg(
                    peer=prev_peer, buffer="dkv",
                    slot=slots["dkv"][(block.seq_index, block.block_index,
                                       block.head_group)],
                    tag=("bwring", "final", block),
                    nbytes=block_set.block_bytes(block),
                )
                for block in layout.chunks[(device, 0)]
            ]
        if sends or recvs:
            op_id = op_base + num_devices
            instructions.append(
                CommLaunch(op_id=op_id, sends=tuple(sends), recvs=tuple(recvs))
            )
            instructions.append(CommWait(op_id=op_id))

        device_plans[device] = DevicePlan(
            device=device,
            instructions=instructions,
            buffer_sizes=buffers.sizes(),
            local_slices=local_slices,
            q_slots=slots["q"],
            kv_slots=slots["kv"],
            do_slots=slots["do"],
            dq_slots=slots["dq"],
            dkv_slots=slots["dkv"],
        )

    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=device_plans,
        meta={
            "planner": "rfa_zigzag" if zigzag else "rfa_ring",
            "phase": "backward",
        },
    )
