"""Serialize a division schedule into DCP instruction streams (§4.3/§5).

Per-device stream layout, for divisions ``0 .. T-1``:

* before computing division ``t``: launch receives for division ``t+1``'s
  fetches and the matching sends of blocks this device owns (so the
  transfer overlaps with division ``t``'s computation), then wait for the
  communication launched for division ``t`` itself;
* compute division ``t`` (one fused BlockwiseAttention);
* after the last division: ship partial outputs to their home devices,
  merge all partials (local and remote) and finalize output blocks —
  in the last attention kernel's epilogue when nothing is merged
  (:func:`finish_outputs`).

Buffer slots: local Q/KV/O blocks get stable slots; remote fetches get
transient slots that are freed once the last division using them has
executed (the paper's buffer-reuse design).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from ..blocks import BlockKind, BlockSet, DataBlockId
from .buffers import BufferManager
from .divisions import Schedule
from .instructions import (
    BlockwiseAttention,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
    FinalizeArg,
    MergeArg,
    RecvArg,
    SendArg,
    Tile,
    fuses_finalize,
)

__all__ = [
    "serialize_schedule",
    "finish_outputs",
    "empty_device_plan",
    "plan_compatible",
    "rebind_plan",
]

_INPUT_BUFFER = {BlockKind.Q: "q", BlockKind.KV: "kv"}


def _block_key(block: DataBlockId) -> Tuple[int, int, int]:
    return (block.seq_index, block.block_index, block.head_group)


def finish_outputs(
    instructions: List,
    merges: Sequence[MergeArg],
    finalizes: Sequence[FinalizeArg],
) -> None:
    """End a device's forward stream with its output reduction.

    Under :func:`~.instructions.fuses_finalize` (nothing merged, some
    attention run) the rows are finalized in the epilogue of the last
    :class:`BlockwiseAttention` — no extra kernel launch; otherwise a
    :class:`BlockwiseReduction` is appended.  The pricer applies the
    same rule (:mod:`.pricing`).
    """
    last = next(
        (
            index
            for index in range(len(instructions) - 1, -1, -1)
            if isinstance(instructions[index], BlockwiseAttention)
        ),
        None,
    )
    if finalizes and fuses_finalize(len(merges), last is not None):
        instructions[last] = replace(
            instructions[last], finalizes=tuple(finalizes)
        )
    elif merges or finalizes:
        instructions.append(
            BlockwiseReduction(merges=tuple(merges), finalizes=tuple(finalizes))
        )


class _DeviceSerializer:
    """Builds one device's instruction stream."""

    def __init__(self, device: int, schedule: Schedule) -> None:
        self.device = device
        self.schedule = schedule
        self.block_set: BlockSet = schedule.block_set
        self.buffers = BufferManager()
        self.instructions: List = []
        self.q_slots: Dict[Tuple[int, int, int], int] = {}
        self.kv_slots: Dict[Tuple[int, int, int], int] = {}
        self.o_slots: Dict[Tuple[int, int, int], int] = {}
        self.acc_slots: Dict[Tuple[int, int, int], int] = {}
        self.remote_slots: Dict[DataBlockId, int] = {}
        self.local_slices: List = []
        self._next_op = device * 1_000_000  # device-unique op ids

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    # -- local layout -----------------------------------------------------

    def allocate_locals(self, slice_device) -> None:
        attention = self.block_set.attention
        for index, token_slice in enumerate(self.block_set.token_slices):
            if int(slice_device[index]) != self.device:
                continue
            self.local_slices.append(token_slice)
            for head_group in range(attention.head_groups):
                key = (token_slice.seq_index, token_slice.block_index, head_group)
                self.q_slots[key] = self.buffers.alloc("q")
                self.kv_slots[key] = self.buffers.alloc("kv")
                self.o_slots[key] = self.buffers.alloc("o")

    def input_slot(self, block: DataBlockId) -> int:
        key = _block_key(block)
        if block.kind == BlockKind.Q and key in self.q_slots:
            return self.q_slots[key]
        if block.kind == BlockKind.KV and key in self.kv_slots:
            return self.kv_slots[key]
        return self.remote_slots[block]

    def acc_slot_for(self, output: DataBlockId) -> int:
        key = _block_key(output)
        if key not in self.acc_slots:
            self.acc_slots[key] = self.buffers.alloc("acc")
        return self.acc_slots[key]

    # -- fetch lifetime ----------------------------------------------------

    def fetch_lifetimes(self, device_schedule) -> Dict[DataBlockId, int]:
        """Last division index in which each remote fetched block is used."""
        last_use: Dict[DataBlockId, int] = {}
        for division_index, division in enumerate(device_schedule.divisions):
            for comp in division:
                for block in comp.inputs:
                    if block in self.remote_needs:
                        last_use[block] = division_index
        return last_use


def serialize_schedule(schedule: Schedule) -> ExecutionPlan:
    """Produce the executable plan for every device."""
    block_set = schedule.block_set
    placement = schedule.placement
    cluster = placement.cluster
    num_divisions = schedule.num_divisions

    slice_index = {
        (ts.seq_index, ts.block_index): i
        for i, ts in enumerate(block_set.token_slices)
    }

    def home_of(block: DataBlockId) -> int:
        return int(
            placement.slice_device[
                slice_index[(block.seq_index, block.block_index)]
            ]
        )

    serializers = {
        device: _DeviceSerializer(device, schedule)
        for device in range(cluster.num_devices)
    }
    for serializer in serializers.values():
        serializer.allocate_locals(placement.slice_device)
        serializer.remote_needs = set()

    # Record which remote blocks each device fetches (for lifetimes).
    for device, device_schedule in schedule.device_schedules.items():
        serializer = serializers[device]
        for fetch_list in device_schedule.fetches:
            serializer.remote_needs.update(fetch_list)

    # Pre-compute per-division incoming fetches and matching outgoing
    # sends for every device, so streams can be emitted in one pass.
    recv_of: Dict[int, List[List[DataBlockId]]] = {
        device: [list(fl) for fl in schedule.device_schedules[device].fetches]
        if device in schedule.device_schedules
        else [[] for _ in range(num_divisions)]
        for device in range(cluster.num_devices)
    }
    send_of: Dict[int, List[List[Tuple[DataBlockId, int]]]] = {
        device: [[] for _ in range(num_divisions)]
        for device in range(cluster.num_devices)
    }
    for device, fetch_lists in recv_of.items():
        for division_index, fetch_list in enumerate(fetch_lists):
            for block in fetch_list:
                send_of[home_of(block)][division_index].append((block, device))

    last_use: Dict[int, Dict[DataBlockId, int]] = {}
    for device, device_schedule in schedule.device_schedules.items():
        last_use[device] = serializers[device].fetch_lifetimes(device_schedule)

    pending_wait: Dict[int, List[int]] = {
        device: [] for device in range(cluster.num_devices)
    }
    frees: Dict[int, List[List[DataBlockId]]] = {
        device: [[] for _ in range(num_divisions)]
        for device in range(cluster.num_devices)
    }
    for device, uses in last_use.items():
        for block, division_index in uses.items():
            frees[device][division_index].append(block)

    def emit_comm(device: int, division_index: int) -> None:
        """Launch comm whose data is consumed in ``division_index``."""
        serializer = serializers[device]
        recvs = []
        for block in recv_of[device][division_index]:
            slot = serializer.buffers.alloc(_INPUT_BUFFER[block.kind])
            serializer.remote_slots[block] = slot
            recvs.append(
                RecvArg(
                    peer=home_of(block),
                    buffer=_INPUT_BUFFER[block.kind],
                    slot=slot,
                    tag=("in", block),
                    nbytes=block_set.block_bytes(block),
                )
            )
        sends = []
        for block, receiver in send_of[device][division_index]:
            sends.append(
                SendArg(
                    peer=receiver,
                    buffer=_INPUT_BUFFER[block.kind],
                    slot=serializer.input_slot(block),
                    tag=("in", block),
                    nbytes=block_set.block_bytes(block),
                )
            )
        if recvs or sends:
            op = serializer.new_op()
            serializer.instructions.append(
                CommLaunch(op_id=op, sends=tuple(sends), recvs=tuple(recvs))
            )
            if recvs:
                pending_wait[device].append(op)

    # -- main division loop: launch(d+1) / compute(d) / wait(d+1) ------------
    for device in range(cluster.num_devices):
        serializer = serializers[device]
        device_schedule = schedule.device_schedules.get(device)
        divisions = (
            device_schedule.divisions
            if device_schedule
            else [[] for _ in range(num_divisions)]
        )

        # Prologue: communication needed by division 0 (empty for DCP's
        # own scheduler, used by baseline planners).
        emit_comm(device, 0)
        if pending_wait[device]:
            for op in pending_wait[device]:
                serializer.instructions.append(CommWait(op_id=op))
            pending_wait[device].clear()

        for division_index in range(num_divisions):
            # Launch next division's communication first so it overlaps
            # with this division's computation.
            if division_index + 1 < num_divisions:
                emit_comm(device, division_index + 1)

            tiles = []
            for comp in divisions[division_index]:
                tiles.append(
                    Tile(
                        q_slot=serializer.input_slot(comp.q_input),
                        kv_slot=serializer.input_slot(comp.kv_input),
                        acc_slot=serializer.acc_slot_for(comp.output),
                        seq_index=comp.seq_index,
                        head_group=comp.head_group,
                        q_block=comp.q_block,
                        kv_block=comp.kv_block,
                    )
                )
            if tiles:
                serializer.instructions.append(BlockwiseAttention(tuple(tiles)))

            # Release remote input slots whose last use has passed.
            for block in frees[device][division_index]:
                slot = serializer.remote_slots[block]
                serializer.buffers.free(_INPUT_BUFFER[block.kind], slot)

            # Wait for the next division's data before computing it.
            if pending_wait[device]:
                for op in pending_wait[device]:
                    serializer.instructions.append(CommWait(op_id=op))
                pending_wait[device].clear()

    # -- output reduction and transfers --------------------------------------
    # Partial outputs computed away from home travel as (acc, lse) blocks.
    partial_receivers: Dict[int, List[Tuple[DataBlockId, int]]] = {
        device: [] for device in range(cluster.num_devices)
    }
    for device, device_schedule in schedule.device_schedules.items():
        for block in device_schedule.output_sends:
            partial_receivers[home_of(block)].append((block, device))

    for device in range(cluster.num_devices):
        serializer = serializers[device]
        device_schedule = schedule.device_schedules.get(device)

        sends = []
        if device_schedule:
            for block in device_schedule.output_sends:
                sends.append(
                    SendArg(
                        peer=home_of(block),
                        buffer="acc",
                        slot=serializer.acc_slots[_block_key(block)],
                        tag=("out", block, device),
                        nbytes=block_set.block_bytes(block),
                    )
                )
        recvs = []
        staging: List[Tuple[DataBlockId, int]] = []
        for block, producer in partial_receivers[device]:
            slot = serializer.buffers.alloc("acc")
            staging.append((block, slot))
            recvs.append(
                RecvArg(
                    peer=producer,
                    buffer="acc",
                    slot=slot,
                    tag=("out", block, producer),
                    nbytes=block_set.block_bytes(block),
                )
            )
        if sends or recvs:
            op = serializer.new_op()
            serializer.instructions.append(
                CommLaunch(op_id=op, sends=tuple(sends), recvs=tuple(recvs))
            )
            serializer.instructions.append(CommWait(op_id=op))

        merges = []
        for block, slot in staging:
            dst = serializer.acc_slot_for(block)
            merges.append(MergeArg(src_acc_slot=slot, dst_acc_slot=dst))

        finalizes = []
        for key, o_slot in serializer.o_slots.items():
            acc_slot = serializer.acc_slots.get(key)
            if acc_slot is None:
                # Output rows may be fully masked out (no computation at
                # all); allocate an empty accumulator so finalize writes
                # zeros.
                acc_slot = serializer.acc_slot_for(
                    DataBlockId(BlockKind.O, key[0], key[1], key[2])
                )
            finalizes.append(FinalizeArg(acc_slot=acc_slot, o_slot=o_slot))
        finish_outputs(serializer.instructions, merges, finalizes)

    device_plans = {
        device: DevicePlan(
            device=device,
            instructions=serializer.instructions,
            buffer_sizes=serializer.buffers.sizes(),
            local_slices=serializer.local_slices,
            o_slots=dict(serializer.o_slots),
            q_slots=dict(serializer.q_slots),
            kv_slots=dict(serializer.kv_slots),
            acc_slots=dict(serializer.acc_slots),
        )
        for device, serializer in serializers.items()
    }
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=device_plans,
        meta={
            "num_divisions": num_divisions,
            "division_prices": dict(schedule.division_prices),
            "planner": "dcp",
        },
    )


def empty_device_plan(device: int) -> DevicePlan:
    """The plan an idle device gets: exactly what serialization emits
    for a device that holds no slices and computes no blocks.

    ``rebind_plan`` uses this to extend a plan onto devices added after
    it was planned; constructing it here (next to the serializer) keeps
    the two byte-identical — the delta-re-planning property tests
    compare a rebind against a genuine re-serialization by fingerprint.
    """
    return DevicePlan(
        device=device,
        instructions=[],
        buffer_sizes=BufferManager().sizes(),
        local_slices=[],
    )


def _device_plan_idle(device_plan: DevicePlan) -> bool:
    return not device_plan.instructions and not device_plan.local_slices


def plan_compatible(plan: ExecutionPlan, cluster) -> bool:
    """True if ``plan`` executes unchanged on ``cluster``.

    A plan survives a cluster-shape change when

    * the new shape differs from the plan's target only in trailing
      machines (same ``devices_per_machine``, same link/compute
      parameters — anything else shifts the device -> machine map or
      the cost model the schedule was optimized under), and
    * the plan is idle — no instructions, no local token slices — on
      every device the change affects
      (``ClusterSpec.affected_devices``: the removed or added trailing
      devices).  Serialization pairs every send with a receive, so an
      idle device is also never named as a peer by a surviving one;
      added devices are not in the plan at all, so growth is always
      compatible.
    """
    old = plan.cluster
    if replace(old, num_machines=cluster.num_machines) != cluster:
        return False
    return all(
        _device_plan_idle(plan.device_plans[device])
        for device in old.affected_devices(cluster)
        if device in plan.device_plans
    )


def rebind_plan(plan: ExecutionPlan, cluster) -> ExecutionPlan:
    """Retarget a compatible plan at ``cluster`` without re-planning.

    O(devices) dictionary work: surviving devices keep their streams
    (shared, not copied — plans are immutable once yielded), devices
    beyond the new shape are dropped (they must be idle — checked), and
    devices the new shape adds get :func:`empty_device_plan`.  The
    result is fingerprint-identical to re-planning the batch with the
    old placement adopted warm — the delta re-planner's reuse path.
    """
    if not plan_compatible(plan, cluster):
        raise ValueError("plan is not compatible with the target cluster")
    device_plans = {
        device: plan.device_plans.get(device) or empty_device_plan(device)
        for device in range(cluster.num_devices)
    }
    return ExecutionPlan(
        block_set=plan.block_set,
        cluster=cluster,
        device_plans=device_plans,
        meta=dict(plan.meta),
    )
