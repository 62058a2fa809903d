"""Lower a division schedule into DCP instruction streams (§4.3/§5).

One lowering serves both passes: the backward pass reuses the forward
placement and divisions, and every forward tile has a backward twin
that recomputes the tile's probabilities (FlashAttention style) and
accumulates gradient partials.  Per-device stream layout, for divisions
``0 .. T-1``:

* before computing division ``t``: launch receives for division ``t+1``'s
  fetches and the matching sends of blocks this device homes (so the
  transfer overlaps with division ``t``'s computation), then wait for the
  communication launched for division ``t`` itself;
* compute division ``t`` (one fused attention kernel);
* after the last division: ship every partial computed away from home
  to its home device, in block-key order, and reduce it there.

A kernel takes one tile per row of its division's computation blocks
(:func:`forward_tiles` / :func:`backward_tiles`, which the static-ring
baselines share): the rows appear in the order of their first block,
and a tile walks its row's blocks in their division order.

The passes differ only in data and a few hooks (:class:`_Forward`,
:class:`_Backward`):

* each (slice, head group) a device homes gets ``q``, ``kv`` and ``o``
  slots forward; ``q``, ``kv`` and ``do`` (the output-gradient package:
  dO, lse, delta) backward;
* a fetched block brings its buffer; backward, a fetched Q block also
  brings its ``do`` package (dO routes with Q);
* a forward tile is a Q row: it accumulates the row's (acc, lse)
  partial over the KV blocks it walks; a backward tile is a KV column:
  it accumulates the column's ``dkv`` partial and, per Q block it
  walks, that block's ``dq`` partial;
* the final reduction: forward merges (acc, lse) partials and finalizes
  output blocks — in the last attention kernel's epilogue when nothing
  is merged (:func:`finish_outputs`); backward sums gradient partials
  (:class:`BlockwiseGradReduce`).

Buffer slots: homed blocks get stable slots; remote fetches get
transient slots that are freed once the last division using them has
executed (the paper's buffer-reuse design).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..blocks import BlockKind, DataBlockId
from .buffers import BufferManager
from .divisions import Schedule
from .instructions import (
    BackwardTile,
    BlockwiseAttention,
    BlockwiseAttentionBackward,
    BlockwiseGradReduce,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
    FinalizeArg,
    GradAdd,
    MergeArg,
    RecvArg,
    SendArg,
    Tile,
    fuses_finalize,
)

__all__ = [
    "serialize_schedule",
    "serialize_backward_schedule",
    "forward_tiles",
    "backward_tiles",
    "finish_outputs",
    "empty_device_plan",
    "plan_compatible",
    "rebind_plan",
]

#: A block's key: (sequence, slice, head group).
_Key = Tuple[int, int, int]

#: Which of a tile's two blocks a buffer belongs to: its Q rows (O, dO
#: and dQ share their shape) or its KV rows (dKV shares theirs).
_Q, _KV = 0, 1
_SIDE = {BlockKind.Q: _Q, BlockKind.KV: _KV}


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


class _Forward:
    """The forward pass: (acc, lse) partials, merged and finalized home."""

    homed = ("q", "kv", "o")
    #: (buffer, side) of every slot a tile reads, in tile-field order; a
    #: fetched block brings every buffer of its side.
    reads = (("q", _Q), ("kv", _KV))
    #: (buffer, side) of every partial a tile accumulates into.
    accumulates = (("acc", _Q),)
    #: The side a tile stands on; it walks the other side's blocks.
    row = _Q
    tile, kernel = Tile, BlockwiseAttention

    @staticmethod
    def in_tag(buffer: str, block: DataBlockId) -> Tuple:
        return ("in", block)

    @staticmethod
    def out_tag(buffer: str, key: _Key, producer: int) -> Tuple:
        return ("out", DataBlockId(BlockKind.O, *key), producer)

    @staticmethod
    def reduce(device: "_Device", staged) -> None:
        merges = [
            MergeArg(src, device.accumulator(buffer, key))
            for buffer, key, src in staged
        ]
        # A homed row may be fully masked (no tile at all): its empty
        # accumulator finalizes to zeros.
        finalizes = [
            FinalizeArg(device.accumulator("acc", key), o_slot)
            for key, o_slot in device.slots["o"].items()
        ]
        finish_outputs(device.instructions, merges, finalizes)


class _Backward:
    """The backward pass: dQ and dKV partials, summed home."""

    homed = ("q", "kv", "do")
    reads = (("q", _Q), ("kv", _KV), ("do", _Q))
    accumulates = (("dq", _Q), ("dkv", _KV))
    row = _KV
    tile, kernel = BackwardTile, BlockwiseAttentionBackward

    @staticmethod
    def in_tag(buffer: str, block: DataBlockId) -> Tuple:
        return ("bw", buffer, block)

    @staticmethod
    def out_tag(buffer: str, key: _Key, producer: int) -> Tuple:
        return ("bwout", buffer, key, producer)

    @staticmethod
    def reduce(device: "_Device", staged) -> None:
        adds = tuple(
            GradAdd(buffer, src, device.accumulator(buffer, key))
            for buffer, key, src in staged
        )
        if adds:
            device.instructions.append(BlockwiseGradReduce(adds=adds))


class _Device:
    """One device's stream, slot maps and buffers while it is lowered."""

    def __init__(self, device: int, lowering) -> None:
        self.device = device
        self.buffers = BufferManager()
        self.instructions: List = []
        self.local_slices: List = []
        #: Buffer -> key -> slot: homed blocks and every partial.
        self.slots: Dict[str, Dict[_Key, int]] = {
            buffer: {}
            for buffer in (
                *lowering.homed,
                *(buffer for buffer, _ in lowering.accumulates),
            )
        }
        #: (buffer, key) -> transient slot of a fetched block.
        self.remote: Dict[Tuple[str, _Key], int] = {}
        self.pending: List[int] = []  # launches the next wait covers
        self._op = device * 1_000_000  # device-unique op ids

    def read(self, buffer: str, key: _Key) -> int:
        slot = self.slots[buffer].get(key)
        return self.remote[buffer, key] if slot is None else slot

    def accumulator(self, buffer: str, key: _Key) -> int:
        slots = self.slots[buffer]
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = self.buffers.alloc(buffer)
        return slot

    def launch(self, sends: List, recvs: List) -> Optional[int]:
        if not (sends or recvs):
            return None
        self._op += 1
        self.instructions.append(
            CommLaunch(op_id=self._op, sends=tuple(sends), recvs=tuple(recvs))
        )
        return self._op

    def wait(self) -> None:
        self.instructions.extend(CommWait(op_id=op) for op in self.pending)
        self.pending.clear()


def _keys(comp) -> Tuple[_Key, _Key]:
    """The (Q, KV) block keys of a computation block, by side."""
    return (
        (comp.seq_index, comp.q_block, comp.head_group),
        (comp.seq_index, comp.kv_block, comp.head_group),
    )


def _tiles(lowering, comps, read, accumulate) -> Tuple:
    """One ``lowering.tile`` per row of ``comps``.

    ``read(buffer, key)`` / ``accumulate(buffer, key)`` give the slot of
    a block the tile reads / a partial it adds to; both are called per
    computation block in ``comps`` order, so slots are allocated in that
    order.  A tile's fields: its row's slots, (sequence, head group, row
    block), then one tuple per walked buffer and the walked blocks.
    """
    fields = [
        (slot_of, buffer, side)
        for slot_of, pairs in ((read, lowering.reads),
                               (accumulate, lowering.accumulates))
        for buffer, side in pairs
    ]
    row = lowering.row
    on_row = [side == row for _, _, side in fields]
    rows: Dict[_Key, List] = {}
    for comp in comps:
        keys = _keys(comp)
        rows.setdefault(keys[row], []).append((
            keys[1 - row][1],
            [slot_of(buffer, keys[side]) for slot_of, buffer, side in fields],
        ))
    tiles = []
    for (seq_index, block, head_group), walked in rows.items():
        blocks, slots = zip(*walked)
        columns = list(zip(*slots))
        tiles.append(lowering.tile(
            *[column[0] for column, mine in zip(columns, on_row) if mine],
            seq_index, head_group, block,
            *[column for column, mine in zip(columns, on_row) if not mine],
            blocks,
        ))
    return tuple(tiles)


def forward_tiles(comps, read, accumulate) -> Tuple[Tile, ...]:
    """A forward kernel's tiles for ``comps``: one per Q row (see
    :func:`_tiles` for ``read`` and ``accumulate``)."""
    return _tiles(_Forward, comps, read, accumulate)


def backward_tiles(comps, read, accumulate) -> Tuple[BackwardTile, ...]:
    """A backward kernel's tiles for ``comps``: one per KV column."""
    return _tiles(_Backward, comps, read, accumulate)


def _lower(schedule: Schedule, lowering) -> Dict[int, DevicePlan]:
    """Every device's plan for one pass (``_Forward`` / ``_Backward``)."""
    block_set = schedule.block_set
    placement = schedule.placement
    attention = block_set.attention
    num_devices = placement.cluster.num_devices
    num_divisions = schedule.num_divisions
    schedules = [schedule.device_schedules.get(d) for d in range(num_devices)]
    devices = [_Device(d, lowering) for d in range(num_devices)]

    # Home device and tokens of every slice, by ``key[:2]``.
    home: Dict[Tuple[int, int], int] = {}
    tokens: Dict[Tuple[int, int], int] = {}
    for token_slice, device in zip(
        block_set.token_slices, map(int, placement.slice_device)
    ):
        where = (token_slice.seq_index, token_slice.block_index)
        home[where] = device
        tokens[where] = token_slice.tokens
        owner = devices[device]
        owner.local_slices.append(token_slice)
        for head_group in range(attention.head_groups):
            key = (*where, head_group)
            for buffer in lowering.homed:
                owner.slots[buffer][key] = owner.buffers.alloc(buffer)

    block_bytes = (attention.q_block_bytes, attention.kv_block_bytes)

    def nbytes(side: int, key: _Key) -> int:
        return block_bytes[side](tokens[key[:2]])

    brings = {
        side: [buffer for buffer, of in lowering.reads if of == side]
        for side in (_Q, _KV)
    }

    # -- fetch routing and slot lifetimes ------------------------------------
    # recv_of[d][t]: (block, side, key) device d fetches for division t;
    # send_of[h][t]: ((block, side, key), receiver) home h sends for it.
    recv_of = [[[] for _ in range(num_divisions)] for _ in devices]
    send_of = [[[] for _ in range(num_divisions)] for _ in devices]
    frees = [[[] for _ in range(num_divisions)] for _ in devices]
    for device, device_schedule in enumerate(schedules):
        if device_schedule is None:
            continue
        fetched = set()
        for division, fetch in enumerate(device_schedule.fetches):
            for block in fetch:
                key = (block.seq_index, block.block_index, block.head_group)
                item = (block, _SIDE[block.kind], key)
                recv_of[device][division].append(item)
                send_of[home[key[:2]]][division].append((item, device))
                fetched.update((buffer, key) for buffer in brings[item[1]])
        if not fetched:
            continue
        last_use: Dict[Tuple[str, _Key], int] = {}
        for division, comps in enumerate(device_schedule.divisions):
            for comp in comps:
                keys = _keys(comp)
                for buffer, side in lowering.reads:
                    if (buffer, keys[side]) in fetched:
                        last_use[buffer, keys[side]] = division
        for used, division in last_use.items():
            frees[device][division].append(used)

    def launch(device: _Device, division: int) -> None:
        """Launch the transfers whose data division ``division`` reads."""
        recvs = []
        for block, side, key in recv_of[device.device][division]:
            for buffer in brings[side]:
                slot = device.buffers.alloc(buffer)
                device.remote[buffer, key] = slot
                recvs.append(RecvArg(
                    peer=home[key[:2]], buffer=buffer, slot=slot,
                    tag=lowering.in_tag(buffer, block),
                    nbytes=nbytes(side, key),
                ))
        outbound = send_of[device.device][division]
        sends = [
            SendArg(
                peer=receiver, buffer=buffer, slot=device.slots[buffer][key],
                tag=lowering.in_tag(buffer, block), nbytes=nbytes(side, key),
            )
            for (block, side, key), receiver in outbound
            for buffer in brings[side]
        ]
        op = device.launch(sends, recvs)
        if recvs:
            device.pending.append(op)

    # -- main division loop: launch(t+1) / compute(t) / wait(t+1) ------------
    for device, device_schedule in zip(devices, schedules):
        divisions = (
            device_schedule.divisions
            if device_schedule
            else [[] for _ in range(num_divisions)]
        )
        # Prologue: communication division 0 reads (empty for DCP's own
        # scheduler, which keeps division 0 communication-free).
        launch(device, 0)
        device.wait()
        for division in range(num_divisions):
            if division + 1 < num_divisions:
                launch(device, division + 1)
            tiles = _tiles(
                lowering, divisions[division], device.read, device.accumulator
            )
            if tiles:
                device.instructions.append(lowering.kernel(tiles))
            for buffer, key in frees[device.device][division]:
                device.buffers.free(buffer, device.remote[buffer, key])
            device.wait()

    # -- partials home, then the pass's reduction -----------------------------
    incoming: List[List[Tuple[str, int, _Key, int]]] = [[] for _ in devices]
    outgoing = []
    for device in devices:
        partials = [
            (buffer, side, key)
            for buffer, side in lowering.accumulates
            for key in sorted(device.slots[buffer])
            if home[key[:2]] != device.device
        ]
        outgoing.append(partials)
        for buffer, side, key in partials:
            incoming[home[key[:2]]].append((buffer, side, key, device.device))

    for device, partials in zip(devices, outgoing):
        sends = [
            SendArg(
                peer=home[key[:2]], buffer=buffer,
                slot=device.slots[buffer][key],
                tag=lowering.out_tag(buffer, key, device.device),
                nbytes=nbytes(side, key),
            )
            for buffer, side, key in partials
        ]
        recvs, staged = [], []
        for buffer, side, key, producer in incoming[device.device]:
            slot = device.buffers.alloc(buffer)
            staged.append((buffer, key, slot))
            recvs.append(RecvArg(
                peer=producer, buffer=buffer, slot=slot,
                tag=lowering.out_tag(buffer, key, producer),
                nbytes=nbytes(side, key),
            ))
        op = device.launch(sends, recvs)
        if op is not None:
            device.instructions.append(CommWait(op_id=op))
        lowering.reduce(device, staged)

    return {
        device.device: DevicePlan(
            device=device.device,
            instructions=device.instructions,
            buffer_sizes=device.buffers.sizes(),
            local_slices=device.local_slices,
            # q_slots, kv_slots, then o_slots / acc_slots forward and
            # do_slots / dq_slots / dkv_slots backward.
            **{f"{name}_slots": slots for name, slots in device.slots.items()},
        )
        for device in devices
    }


def serialize_schedule(schedule: Schedule) -> ExecutionPlan:
    """The forward execution plan for every device."""
    return ExecutionPlan(
        block_set=schedule.block_set,
        cluster=schedule.placement.cluster,
        device_plans=_lower(schedule, _Forward),
        meta={
            "num_divisions": schedule.num_divisions,
            "division_prices": dict(schedule.division_prices),
            "planner": "dcp",
        },
    )


def serialize_backward_schedule(schedule: Schedule) -> ExecutionPlan:
    """The backward execution plan for every device: the forward's
    placement and divisions, gradient partials shipped home."""
    return ExecutionPlan(
        block_set=schedule.block_set,
        cluster=schedule.placement.cluster,
        device_plans=_lower(schedule, _Backward),
        meta={
            "num_divisions": schedule.num_divisions,
            "planner": "dcp",
            "phase": "backward",
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
