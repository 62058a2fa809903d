"""Columnar wire format for execution plans (zero-copy plan transport).

The hot plan structures have been structure-of-arrays since PR 1 —
instruction streams are flat tuples of small frozen records whose
fields are all integers (or tuples of them), buffer-name strings, or
block identities.
This module encodes them as exactly that: a tiny self-describing
header, two string/tag tables, and one contiguous integer lane, so a
plan crosses a process or KV boundary as buffer bytes instead of a
pickled object graph.

Why not pickle?  Two reasons the transport layer cares about:

* **Canonical bytes.**  Pickle memoizes shared sub-objects, so the
  bytes of a device plan depend on object identity *across* the
  structures being pickled — two logically identical plans built along
  different code paths serialize differently.  The columnar encoding
  depends only on field values, which is what lets
  :func:`repro.pipeline.plan_fingerprint` compare plans across the
  synchronous path, the process boundary, and the KV store.
* **Cost.**  The integer lane is packed with :mod:`array` into int32
  (int64 only when a value overflows), roughly halving the wire size
  of a plan and making the decode a bulk ``frombytes`` rather than a
  pickle VM replay.

Per-device payload layout (magic ``PWD1``, little-endian)::

    "PWD1" | u8 itemsize (4|8)
    | u32 n_names  | n_names  x (u32 len, utf-8 bytes)   buffer names
    | u32 n_tags   | n_tags   x (u32 len, pickle bytes)  interned tags
    | u64 n_ints   | n_ints   x i32/i64                  integer lane

The integer lane carries, in order: device id, the instruction stream
(opcode + body per instruction), buffer sizes, local token slices, and
the seven slot maps.  An attention tile is its five scalar fields, the
number ``n`` of blocks it walks, then ``n`` ints per walked field.
Dict-shaped fields are stored sorted by key so the encoding is
canonical; instruction order is preserved exactly.
Communication tags use three encodings: the planner's hot ``("in",
block)`` / ``("out", block, producer)`` tags go columnar (4 and 5 ints)
while anything else — backward-pass and baseline tags — is pickled once
into the deduplicated tag table and referenced by index.  An
instruction type this module does not know is a :class:`PlanWireError`.

Whole plans travel as a :class:`PlanWire`: a pickled context
(``block_set``, ``cluster``, ``meta``) plus the concatenated per-device
payloads and a span table, so a consumer can slice one device's bytes
out of a single contiguous buffer (``device_bytes``) without touching
the rest — the zero-copy half of the shm ring in
:mod:`repro.pipeline.shm`.
"""

from __future__ import annotations

import pickle
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

from ..blocks.data_blocks import BlockKind, DataBlockId, TokenSlice
from ..scheduling.instructions import (
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
)

__all__ = [
    "PlanWireError",
    "PlanWire",
    "encode_device_payload",
    "decode_device_payload",
    "encode_plan",
    "decode_plan",
]

DEVICE_MAGIC = b"PWD1"
PLAN_MAGIC = b"PWIR"

# Opcodes are wire format: 0 and 1 (per-pair attention tiles) and 4 are
# retired and stay unused, so a payload of a retired layout fails to
# decode instead of decoding wrongly.
_OP_GRAD_REDUCE = 2
_OP_REDUCTION = 3
_OP_COMM_LAUNCH = 5
_OP_COMM_WAIT = 6
_OP_ATTENTION = 7
_OP_ATTENTION_BWD = 8

_TAG_INTERNED = 0
_TAG_IN = 1
_TAG_OUT = 2

_KIND_CODE = {kind: code for code, kind in enumerate(BlockKind.ALL)}

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_SPAN = struct.Struct("<qQQ")


class PlanWireError(ValueError):
    """A structure the columnar encoding cannot represent."""


# -- tag classification -------------------------------------------------------


def _columnar_tag(tag) -> Tuple[int, Tuple[int, ...]]:
    """``(tag_code, ints)`` — ints empty means "intern this tag"."""
    if isinstance(tag, tuple):
        if (
            len(tag) == 2
            and tag[0] == "in"
            and isinstance(tag[1], DataBlockId)
        ):
            block = tag[1]
            return _TAG_IN, (
                _KIND_CODE[block.kind],
                block.seq_index,
                block.block_index,
                block.head_group,
            )
        if (
            len(tag) == 3
            and tag[0] == "out"
            and isinstance(tag[1], DataBlockId)
            and type(tag[2]) is int
        ):
            block = tag[1]
            return _TAG_OUT, (
                _KIND_CODE[block.kind],
                block.seq_index,
                block.block_index,
                block.head_group,
                tag[2],
            )
    return _TAG_INTERNED, ()


def _iter_comm_args(device_plan) -> Iterator:
    for ins in device_plan.instructions:
        if isinstance(ins, CommLaunch):
            yield from ins.sends
            yield from ins.recvs


# -- encoding -----------------------------------------------------------------


def _collect_tables(device_plan) -> Tuple[List[str], List[bytes]]:
    """Deterministic name and tag tables for one device plan."""
    names = set(device_plan.buffer_sizes)
    tag_blobs = set()
    for ins in device_plan.instructions:
        if isinstance(ins, BlockwiseGradReduce):
            names.update(add.buffer for add in ins.adds)
        elif isinstance(ins, CommLaunch):
            for arg in (*ins.sends, *ins.recvs):
                names.add(arg.buffer)
                code, _ = _columnar_tag(arg.tag)
                if code == _TAG_INTERNED:
                    tag_blobs.add(pickle.dumps(arg.tag, protocol=4))
    if not all(isinstance(name, str) for name in names):
        raise PlanWireError("buffer names must be strings")
    return sorted(names), sorted(tag_blobs)


def encode_device_payload(device: int, device_plan) -> bytes:
    """Canonical wire bytes of one device's executable stream; raises
    :class:`PlanWireError` on an instruction type outside the DCP set."""
    names, tag_blobs = _collect_tables(device_plan)
    name_idx = {name: i for i, name in enumerate(names)}
    tag_idx = {blob: i for i, blob in enumerate(tag_blobs)}

    lane: List[int] = [device, len(device_plan.instructions)]
    push = lane.extend

    def push_comm_arg(arg) -> None:
        code, ints = _columnar_tag(arg.tag)
        push((arg.peer, name_idx[arg.buffer], arg.slot, arg.nbytes, code))
        if code == _TAG_INTERNED:
            lane.append(tag_idx[pickle.dumps(arg.tag, protocol=4)])
        else:
            push(ints)

    for ins in device_plan.instructions:
        if isinstance(ins, BlockwiseAttention):
            push((_OP_ATTENTION, len(ins.tiles), len(ins.finalizes)))
            for t in ins.tiles:
                push((t.q_slot, t.acc_slot, t.seq_index, t.head_group,
                      t.q_block, len(t.kv_blocks)))
                push(t.kv_slots)
                push(t.kv_blocks)
            for f in ins.finalizes:
                push((f.acc_slot, f.o_slot))
        elif isinstance(ins, BlockwiseAttentionBackward):
            push((_OP_ATTENTION_BWD, len(ins.tiles)))
            for t in ins.tiles:
                push((t.kv_slot, t.dkv_slot, t.seq_index, t.head_group,
                      t.kv_block, len(t.q_blocks)))
                push(t.q_slots)
                push(t.do_slots)
                push(t.dq_slots)
                push(t.q_blocks)
        elif isinstance(ins, BlockwiseGradReduce):
            push((_OP_GRAD_REDUCE, len(ins.adds)))
            for add in ins.adds:
                push((name_idx[add.buffer], add.src_slot, add.dst_slot))
        elif isinstance(ins, BlockwiseReduction):
            push((_OP_REDUCTION, len(ins.merges), len(ins.finalizes)))
            for m in ins.merges:
                push((m.src_acc_slot, m.dst_acc_slot))
            for f in ins.finalizes:
                push((f.acc_slot, f.o_slot))
        elif isinstance(ins, CommLaunch):
            push((_OP_COMM_LAUNCH, ins.op_id, len(ins.sends), len(ins.recvs)))
            for arg in ins.sends:
                push_comm_arg(arg)
            for arg in ins.recvs:
                push_comm_arg(arg)
        elif isinstance(ins, CommWait):
            push((_OP_COMM_WAIT, ins.op_id))
        else:
            raise PlanWireError(
                f"unknown instruction type {type(ins).__name__}"
            )

    sizes = sorted(
        (name_idx[name], size)
        for name, size in device_plan.buffer_sizes.items()
    )
    lane.append(len(sizes))
    for idx, size in sizes:
        push((idx, size))

    lane.append(len(device_plan.local_slices))
    for ts in device_plan.local_slices:
        if not isinstance(ts, TokenSlice):
            raise PlanWireError("local slices must be TokenSlice records")
        push((ts.seq_index, ts.block_index, ts.start, ts.stop))

    for slots in _slot_maps(device_plan):
        items = sorted(slots.items())
        lane.append(len(items))
        for (seq, blk, hg), slot in items:
            push((seq, blk, hg, slot))

    lo = min(lane)
    hi = max(lane)
    typecode = "i" if _INT32_MIN <= lo and hi <= _INT32_MAX else "q"
    packed = array(typecode, lane)
    if sys.byteorder != "little":
        packed.byteswap()

    out = bytearray(DEVICE_MAGIC)
    out += struct.pack("<B", packed.itemsize)
    out += _U32.pack(len(names))
    for name in names:
        raw = name.encode("utf-8")
        out += _U32.pack(len(raw))
        out += raw
    out += _U32.pack(len(tag_blobs))
    for blob in tag_blobs:
        out += _U32.pack(len(blob))
        out += blob
    out += _U64.pack(len(lane))
    out += packed.tobytes()
    return bytes(out)


def _slot_maps(device_plan) -> Tuple[Dict, ...]:
    return (
        device_plan.o_slots,
        device_plan.q_slots,
        device_plan.kv_slots,
        device_plan.acc_slots,
        device_plan.do_slots,
        device_plan.dq_slots,
        device_plan.dkv_slots,
    )


# -- decoding -----------------------------------------------------------------


class _Reader:
    """Sequential cursor over one payload buffer (no copies)."""

    def __init__(self, data) -> None:
        self.view = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        chunk = self.view[self.pos:self.pos + n]
        if len(chunk) != n:
            raise PlanWireError("truncated plan payload")
        self.pos += n
        return chunk

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]


def decode_device_payload(payload) -> Tuple[int, DevicePlan]:
    """Inverse of :func:`encode_device_payload`: ``(device, DevicePlan)``.

    Accepts ``bytes`` or any buffer (e.g. a ``memoryview`` into a shm
    segment); the integer lane is bulk-converted, nothing else in the
    source buffer is copied byte-by-byte.
    """
    reader = _Reader(payload)
    magic = bytes(reader.take(4))
    if magic != DEVICE_MAGIC:
        raise PlanWireError(f"bad device payload magic {magic!r}")

    itemsize = reader.take(1)[0]
    if itemsize not in (4, 8):
        raise PlanWireError(f"bad integer lane itemsize {itemsize}")
    names = [
        str(reader.take(reader.u32()), "utf-8")
        for _ in range(reader.u32())
    ]
    tags = [
        pickle.loads(reader.take(reader.u32()))
        for _ in range(reader.u32())
    ]
    n_ints = reader.u64()
    packed = array("i" if itemsize == 4 else "q")
    packed.frombytes(reader.take(n_ints * itemsize))
    if sys.byteorder != "little":
        packed.byteswap()

    pos = 0

    def take(n: int):
        nonlocal pos
        chunk = packed[pos:pos + n]
        pos += n
        return chunk

    def one() -> int:
        nonlocal pos
        value = packed[pos]
        pos += 1
        return value

    def read_tag():
        code = one()
        if code == _TAG_INTERNED:
            return tags[one()]
        kind = BlockKind.ALL[one()]
        block = DataBlockId(kind, one(), one(), one())
        if code == _TAG_IN:
            return ("in", block)
        if code == _TAG_OUT:
            return ("out", block, one())
        raise PlanWireError(f"bad tag code {code}")

    def read_tile(cls, walked: int):
        """Five scalar fields, the walk length ``n``, then ``walked``
        runs of ``n`` ints (one per walked field)."""
        fixed = take(5)
        n = one()
        return cls(*fixed, *(tuple(take(n)) for _ in range(walked)))

    def read_comm_arg(cls):
        peer = one()
        buffer = names[one()]
        slot = one()
        nbytes = one()
        tag = read_tag()
        return cls(peer=peer, buffer=buffer, slot=slot, tag=tag,
                   nbytes=nbytes)

    device = one()
    instructions: List = []
    for _ in range(one()):
        op = one()
        if op == _OP_ATTENTION:
            n_tiles, n_finalizes = one(), one()
            instructions.append(BlockwiseAttention(
                tiles=tuple(read_tile(Tile, 2) for _ in range(n_tiles)),
                finalizes=tuple(
                    FinalizeArg(*take(2)) for _ in range(n_finalizes)
                ),
            ))
        elif op == _OP_ATTENTION_BWD:
            instructions.append(BlockwiseAttentionBackward(tiles=tuple(
                read_tile(BackwardTile, 4) for _ in range(one())
            )))
        elif op == _OP_GRAD_REDUCE:
            instructions.append(BlockwiseGradReduce(adds=tuple(
                GradAdd(names[one()], one(), one()) for _ in range(one())
            )))
        elif op == _OP_REDUCTION:
            n_merges, n_finalizes = one(), one()
            instructions.append(BlockwiseReduction(
                merges=tuple(
                    MergeArg(*take(2)) for _ in range(n_merges)
                ),
                finalizes=tuple(
                    FinalizeArg(*take(2)) for _ in range(n_finalizes)
                ),
            ))
        elif op == _OP_COMM_LAUNCH:
            op_id, n_sends, n_recvs = one(), one(), one()
            sends = tuple(read_comm_arg(SendArg) for _ in range(n_sends))
            recvs = tuple(read_comm_arg(RecvArg) for _ in range(n_recvs))
            instructions.append(
                CommLaunch(op_id=op_id, sends=sends, recvs=recvs)
            )
        elif op == _OP_COMM_WAIT:
            instructions.append(CommWait(op_id=one()))
        else:
            raise PlanWireError(f"bad opcode {op}")

    buffer_sizes = {names[one()]: one() for _ in range(one())}
    local_slices = [TokenSlice(*take(4)) for _ in range(one())]
    maps = []
    for _ in range(7):
        maps.append({(one(), one(), one()): one() for _ in range(one())})
    o, q, kv, acc, do, dq, dkv = maps
    return device, DevicePlan(
        device=device,
        instructions=instructions,
        buffer_sizes=buffer_sizes,
        local_slices=local_slices,
        o_slots=o, q_slots=q, kv_slots=kv, acc_slots=acc,
        do_slots=do, dq_slots=dq, dkv_slots=dkv,
    )


# -- whole plans --------------------------------------------------------------


@dataclass
class PlanWire:
    """One encoded plan: pickled context + concatenated device payloads.

    ``spans`` maps each device to its ``(offset, length)`` inside
    ``payload``; :meth:`device_bytes` returns that slice as a
    ``memoryview``, so a consumer holding the wire bytes (in a shm
    segment, a KV entry, a pipe read) can hand one device its stream
    without copying the rest.
    """

    context: bytes
    spans: Dict[int, Tuple[int, int]]
    payload: Union[bytes, memoryview]

    @property
    def nbytes(self) -> int:
        return len(self.context) + len(self.payload)

    def device_bytes(self, device: int) -> memoryview:
        offset, length = self.spans[device]
        return memoryview(self.payload)[offset:offset + length]

    def to_bytes(self) -> bytes:
        out = bytearray(PLAN_MAGIC)
        out += _U32.pack(len(self.spans))
        for device in sorted(self.spans):
            offset, length = self.spans[device]
            out += _SPAN.pack(device, offset, length)
        out += _U64.pack(len(self.context))
        out += self.context
        out += self.payload
        return bytes(out)

    @classmethod
    def from_bytes(cls, data) -> "PlanWire":
        """Parse wire bytes; the payload stays a view into ``data``."""
        reader = _Reader(data)
        if bytes(reader.take(4)) != PLAN_MAGIC:
            raise PlanWireError("bad plan wire magic")
        spans = {}
        for _ in range(reader.u32()):
            device, offset, length = _SPAN.unpack(reader.take(24))
            spans[device] = (offset, length)
        context = bytes(reader.take(reader.u64()))
        return cls(
            context=context,
            spans=spans,
            payload=reader.view[reader.pos:],
        )


def encode_plan(plan: ExecutionPlan) -> PlanWire:
    """Encode a whole plan for transport."""
    context = pickle.dumps(
        (plan.block_set, plan.cluster, plan.meta), protocol=4
    )
    spans: Dict[int, Tuple[int, int]] = {}
    payload = bytearray()
    for device in sorted(plan.device_plans):
        blob = encode_device_payload(device, plan.device_plans[device])
        spans[device] = (len(payload), len(blob))
        payload += blob
    return PlanWire(context=context, spans=spans, payload=bytes(payload))


def decode_plan(wire) -> ExecutionPlan:
    """Inverse of :func:`encode_plan`.

    Accepts a :class:`PlanWire` or raw :meth:`PlanWire.to_bytes` output
    (``bytes``/``memoryview`` — e.g. a mapped shm segment).
    """
    if not isinstance(wire, PlanWire):
        wire = PlanWire.from_bytes(wire)
    block_set, cluster, meta = pickle.loads(wire.context)
    device_plans = {}
    for device in sorted(wire.spans):
        decoded_device, device_plan = decode_device_payload(
            wire.device_bytes(device)
        )
        if decoded_device != device:
            raise PlanWireError(
                f"span for device {device} decodes to {decoded_device}"
            )
        device_plans[device] = device_plan
    return ExecutionPlan(
        block_set=block_set,
        cluster=cluster,
        device_plans=device_plans,
        meta=meta,
    )
