"""The DCP instructions and the execution plan (paper §5).

An execution plan is a per-device list of instructions:

* :class:`BlockwiseAttention` — fused masked attention over a list of
  tiles, one per query row: each keeps its Q block's (acc, lse) partial
  on chip while it walks the row's KV blocks (FlashAttention-style
  online softmax), optionally followed by a finalize epilogue that
  normalizes and writes output blocks once the tiles are done.
* :class:`BlockwiseReduction` — fused merge of partial outputs, with
  optional finalization (normalize and write the output block).
* :class:`CommLaunch` — asynchronously post sends/receives of blocks.
* :class:`CommWait` — block until a previously launched operation is
  complete.

The backward pass replaces the two compute instructions with
:class:`BlockwiseAttentionBackward` (tiles, one per KV column, that
accumulate dQ and dKV partials) and :class:`BlockwiseGradReduce` (sums
of gradient partials).  A kernel holds at most one tile per accumulator
(:func:`repro.scheduling.validate_plan` enforces it), so a tile's setup
is paid once per row, not once per block pair.

A device that merges no partial outputs finalizes its own rows in the
epilogue of its last attention kernel (FlashAttention-2's
normalize-on-exit); only a device that merges partials, or runs no
attention at all, ends with a :class:`BlockwiseReduction`
(:func:`fuses_finalize` is that one rule; the serializer's forward
reduction, which the static ring shares, applies it).

Instructions reference buffer *slots* (integers per buffer kind); the
executor owns the actual storage.  Byte counts carried by communication
entries reflect the logical bf16 wire size (used for traffic accounting
and timing), independent of the simulator's float32 storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "Tile",
    "BlockwiseAttention",
    "BackwardTile",
    "BlockwiseAttentionBackward",
    "GradAdd",
    "BlockwiseGradReduce",
    "MergeArg",
    "FinalizeArg",
    "BlockwiseReduction",
    "SendArg",
    "RecvArg",
    "CommLaunch",
    "CommWait",
    "DevicePlan",
    "ExecutionPlan",
    "fuses_finalize",
]


@dataclass(frozen=True)
class Tile:
    """One query row of a forward kernel: the Q block's (acc, lse)
    partial stays on chip while the tile walks its KV blocks in order
    (FlashAttention-2's forward loop).

    The masks are not materialized here: the executor reconstructs each
    block pair's from the sequence's :class:`~repro.masks.AttendRanges`
    using the global token coordinates carried by the tile.
    """

    q_slot: int
    acc_slot: int
    seq_index: int
    head_group: int
    q_block: int
    #: The KV blocks walked, in order: their slots and block indices.
    kv_slots: Tuple[int, ...]
    kv_blocks: Tuple[int, ...]

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The (Q block, KV block) pairs computed, in walk order."""
        return tuple((self.q_block, kv_block) for kv_block in self.kv_blocks)


@dataclass(frozen=True)
class BlockwiseAttention:
    tiles: Tuple[Tile, ...]
    #: Epilogue: finalized after every tile of this kernel has run.
    finalizes: Tuple[FinalizeArg, ...] = ()

    @property
    def kind(self) -> str:
        return "attention"


def fuses_finalize(merges: int, has_attention: bool) -> bool:
    """Whether a device that merges ``merges`` partial outputs finalizes
    its rows in its last attention kernel's epilogue rather than in a
    trailing :class:`BlockwiseReduction` — the one rule the serializers
    and the pricer share."""
    return not merges and has_attention


@dataclass(frozen=True)
class BackwardTile:
    """One KV column of a backward kernel: the KV block's dKV partial
    stays on chip while the tile walks its Q blocks in order
    (FlashAttention-2's backward loop).

    Each walked Q block brings its output-gradient package (``dO``,
    ``lse``, ``delta``) and the running dQ partial it adds to; the
    column accumulates the dKV partial (plain sums — gradients are
    linear).
    """

    kv_slot: int
    dkv_slot: int
    seq_index: int
    head_group: int
    kv_block: int
    #: The Q blocks walked, in order: their Q, dO and dQ slots and block
    #: indices.
    q_slots: Tuple[int, ...]
    do_slots: Tuple[int, ...]
    dq_slots: Tuple[int, ...]
    q_blocks: Tuple[int, ...]

    @property
    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        """The (Q block, KV block) pairs computed, in walk order."""
        return tuple((q_block, self.kv_block) for q_block in self.q_blocks)


@dataclass(frozen=True)
class BlockwiseAttentionBackward:
    tiles: Tuple[BackwardTile, ...]

    @property
    def kind(self) -> str:
        return "attention_backward"


@dataclass(frozen=True)
class GradAdd:
    """Accumulate gradient partial ``src`` into ``dst`` (same buffer)."""

    buffer: str
    src_slot: int
    dst_slot: int


@dataclass(frozen=True)
class BlockwiseGradReduce:
    adds: Tuple[GradAdd, ...]

    @property
    def kind(self) -> str:
        return "grad_reduce"


@dataclass(frozen=True)
class MergeArg:
    """Merge partial ``src`` into partial ``dst`` (both acc slots)."""

    src_acc_slot: int
    dst_acc_slot: int


@dataclass(frozen=True)
class FinalizeArg:
    """Normalize partial ``acc`` and write output slot ``o``."""

    acc_slot: int
    o_slot: int


@dataclass(frozen=True)
class BlockwiseReduction:
    merges: Tuple[MergeArg, ...] = ()
    finalizes: Tuple[FinalizeArg, ...] = ()

    @property
    def kind(self) -> str:
        return "reduction"


@dataclass(frozen=True)
class SendArg:
    """Post one block to ``peer``.  ``tag`` matches the remote recv."""

    peer: int
    buffer: str
    slot: int
    tag: Tuple
    nbytes: int


@dataclass(frozen=True)
class RecvArg:
    """Expect one block from ``peer`` into ``slot``."""

    peer: int
    buffer: str
    slot: int
    tag: Tuple
    nbytes: int


@dataclass(frozen=True)
class CommLaunch:
    op_id: int
    sends: Tuple[SendArg, ...] = ()
    recvs: Tuple[RecvArg, ...] = ()

    @property
    def kind(self) -> str:
        return "comm_launch"

    @property
    def send_bytes(self) -> int:
        return sum(s.nbytes for s in self.sends)


@dataclass(frozen=True)
class CommWait:
    op_id: int

    @property
    def kind(self) -> str:
        return "comm_wait"


@dataclass
class DevicePlan:
    """Everything one device needs for one iteration."""

    device: int
    instructions: List
    buffer_sizes: Dict[str, int]
    # Token slices whose model input lives on this device, in order.
    local_slices: List
    # (seq_index, block_index, head_group) -> o slot, for output collection.
    o_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    # (seq_index, block_index, head_group) -> local q / kv slots.
    q_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    kv_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    # Accumulator slots of output blocks homed here (forward plans).
    acc_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    # Gradient-package and gradient-accumulator slots (backward plans).
    do_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    dq_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)
    dkv_slots: Dict[Tuple[int, int, int], int] = field(default_factory=dict)


@dataclass
class ExecutionPlan:
    """Plans for all devices plus shared batch context."""

    block_set: object  # BlockSet; kept loose to avoid import cycles
    cluster: object  # ClusterSpec
    device_plans: Dict[int, DevicePlan]
    meta: Dict = field(default_factory=dict)

    @property
    def num_devices(self) -> int:
        return len(self.device_plans)

    def total_comm_bytes(self) -> int:
        return sum(
            ins.send_bytes
            for plan in self.device_plans.values()
            for ins in plan.instructions
            if ins.kind == "comm_launch"
        )

    def inter_machine_bytes(self) -> int:
        """Of :meth:`total_comm_bytes`, the bytes sent between machines."""
        return sum(
            send.nbytes
            for device, plan in self.device_plans.items()
            for ins in plan.instructions
            if ins.kind == "comm_launch"
            for send in ins.sends
            if not self.cluster.same_machine(device, send.peer)
        )

    def tile_counts(self) -> Tuple[int, int]:
        """(tiles, block pairs they compute) over every attention kernel."""
        tiles = [
            tile
            for plan in self.device_plans.values()
            for ins in plan.instructions
            if ins.kind in ("attention", "attention_backward")
            for tile in ins.tiles
        ]
        return len(tiles), sum(len(tile.pairs) for tile in tiles)
