"""Timing simulation of execution plans (alpha-beta model).

This is the performance substitute for the paper's A100 testbed: the
simulator replays each device's instruction stream against per-device
clocks (:func:`repro.scheduling.pricing.replay`, the model the
scheduler prices division counts with), modelling

* computation as ``flops / effective_flops`` plus per-kernel and
  per-tile overheads (a tile is one query row forward, one KV column
  backward, and its FLOPs are those of every block pair it walks), plus
  the HBM bytes of an attention kernel's finalize epilogue,
* communication with an alpha-beta link model, serialized over shared
  resources (NVSwitch point-to-point links intra-machine, a per-machine
  NIC in each direction inter-machine),
* overlap exactly as the instruction streams express it: transfers
  launched by ``CommLaunch`` proceed while subsequent computation runs;
  ``CommWait`` stalls only if the data has not arrived.

The result records per-device compute/communication interval unions, so
the paper's decomposition (Fig. 1 / Fig. 22: non-overlapped attention
computation, overlapped time, non-overlapped CP communication) falls
out of interval arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..scheduling.instructions import (
    BlockwiseAttention,
    BlockwiseAttentionBackward,
    BlockwiseGradReduce,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    ExecutionPlan,
)
from ..scheduling.pricing import (
    BACKWARD_COMM_FACTOR as _BW_COMM_FACTOR,
    BACKWARD_FLOPS_FACTOR as _BW_FLOPS_FACTOR,
    COMPUTE,
    LAUNCH,
    REDUCE,
    WAIT,
    replay,
)
from .cluster import ClusterSpec

__all__ = ["DeviceTiming", "TimingResult", "simulate_plan"]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    total = 0.0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


def _intersection_length(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Length of (union of a) ∩ (union of b)."""
    events = []
    for start, end in a:
        events.append((start, 0, 1))
        events.append((end, 0, -1))
    for start, end in b:
        events.append((start, 1, 1))
        events.append((end, 1, -1))
    events.sort()
    depth = [0, 0]
    last = None
    total = 0.0
    for time, which, delta in events:
        if last is not None and depth[0] > 0 and depth[1] > 0:
            total += time - last
        depth[which] += delta
        last = time
    return total


@dataclass
class DeviceTiming:
    """Per-device timeline summary.

    ``events`` is the labeled timeline: ``(name, lane, start, end)``
    tuples with ``lane`` one of ``"compute"``, ``"comm"`` or
    ``"stall"`` — the raw material of :mod:`repro.sim.trace`.
    """

    device: int
    total: float
    compute_intervals: List[Tuple[float, float]] = field(default_factory=list)
    comm_intervals: List[Tuple[float, float]] = field(default_factory=list)
    stall: float = 0.0
    events: List[Tuple[str, str, float, float]] = field(default_factory=list)

    @property
    def compute_time(self) -> float:
        return _union_length(self.compute_intervals)

    @property
    def comm_time(self) -> float:
        return _union_length(self.comm_intervals)

    @property
    def overlap_time(self) -> float:
        return _intersection_length(self.compute_intervals, self.comm_intervals)

    @property
    def exposed_comm(self) -> float:
        return self.comm_time - self.overlap_time


@dataclass
class TimingResult:
    """Cluster-level timing of one plan replay."""

    devices: Dict[int, DeviceTiming]

    @property
    def iteration_time(self) -> float:
        return max((d.total for d in self.devices.values()), default=0.0)

    @property
    def critical_device(self) -> DeviceTiming:
        return max(self.devices.values(), key=lambda d: d.total)

    def breakdown(self) -> Dict[str, float]:
        """The paper's stacked-bar decomposition on the critical device."""
        dev = self.critical_device
        overlap = dev.overlap_time
        non_ovlp_attn = dev.compute_time - overlap
        non_ovlp_comm = dev.comm_time - overlap
        others = max(dev.total - non_ovlp_attn - overlap - non_ovlp_comm, 0.0)
        return {
            "others": others,
            "non_ovlp_attn": non_ovlp_attn,
            "overlap": overlap,
            "non_ovlp_comm": non_ovlp_comm,
            "total": dev.total,
        }


def _streams(plan: ExecutionPlan):
    """``plan``'s instruction streams as :func:`replay` steps, one step
    per instruction, and the transfer count of every receive group (one
    group per ``CommLaunch`` that receives)."""
    block_set = plan.block_set
    attention = block_set.attention
    memory_bytes = attention.o_block_bytes(block_set.block_size) * 2
    expected: List[int] = []
    group_of_recv: Dict[Tuple[int, int, Tuple], int] = {}
    group_of_op: Dict[Tuple[int, int], int] = {}
    for device, device_plan in plan.device_plans.items():
        for instruction in device_plan.instructions:
            if isinstance(instruction, CommLaunch) and instruction.recvs:
                group_of_op[(device, instruction.op_id)] = len(expected)
                for recv in instruction.recvs:
                    group_of_recv[(recv.peer, device, recv.tag)] = len(expected)
                expected.append(len(instruction.recvs))
    # Sends nobody receives and waits on nothing land in one spare group.
    spare = len(expected)
    expected.append(0)

    streams: List[list] = [[] for _ in range(max(plan.device_plans, default=-1) + 1)]
    for device, device_plan in plan.device_plans.items():
        steps = streams[device]
        for instruction in device_plan.instructions:
            if isinstance(instruction, CommLaunch):
                payload = [
                    (
                        send.peer,
                        send.nbytes,
                        group_of_recv.get((device, send.peer, send.tag), spare),
                    )
                    for send in instruction.sends
                ]
                steps.append((LAUNCH, payload))
            elif isinstance(instruction, CommWait):
                group = group_of_op.get((device, instruction.op_id), spare)
                steps.append((WAIT, group))
            elif isinstance(
                instruction, (BlockwiseAttention, BlockwiseAttentionBackward)
            ):
                # A tile costs one setup; the blocks it walks, their FLOPs.
                flops = sum(
                    attention.tile_flops(
                        block_set.tile_pairs(tile.seq_index, q_block, kv_block)
                    )
                    for tile in instruction.tiles
                    for q_block, kv_block in tile.pairs
                )
                if instruction.kind == "attention_backward":
                    # Recompute + dQ/dK/dV: ~2.5x the forward tile FLOPs.
                    flops *= _BW_FLOPS_FACTOR
                    epilogue = 0
                else:
                    # The finalize epilogue's HBM traffic, no extra launch.
                    epilogue = len(instruction.finalizes) * memory_bytes
                steps.append(
                    (COMPUTE, (len(instruction.tiles), flops, epilogue))
                )
            elif isinstance(instruction, BlockwiseReduction):
                ops = len(instruction.merges) + len(instruction.finalizes)
                steps.append((REDUCE, ops * memory_bytes))
            elif isinstance(instruction, BlockwiseGradReduce):
                steps.append((REDUCE, len(instruction.adds) * memory_bytes))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown instruction {instruction!r}")
    return streams, expected


def simulate_plan(
    plan: ExecutionPlan,
    cluster: Optional[ClusterSpec] = None,
    backward: bool = False,
) -> TimingResult:
    """Replay ``plan`` and return the cluster timing.

    ``backward=True`` models the attention backward pass: identical
    schedule with ~2.5x the FLOPs (recompute + three gradients) and ~2x
    the bytes (KV in, dKV out) — the standard cost model for
    Flash-style distributed attention backward.
    """
    cluster = cluster or plan.cluster
    streams, expected = _streams(plan)
    trace: List[tuple] = []
    totals = replay(
        streams,
        expected,
        cluster,
        flops_factor=_BW_FLOPS_FACTOR if backward else 1.0,
        comm_factor=_BW_COMM_FACTOR if backward else 1.0,
        trace=trace,
    )
    devices = {
        device: DeviceTiming(device=device, total=totals[device])
        for device in sorted(plan.device_plans)
    }
    for device, at, start, end, index in trace:
        if index is not None:
            continue
        timing = devices[device]
        instruction = plan.device_plans[device].instructions[at]
        if isinstance(instruction, CommWait):
            timing.stall += end - start
            timing.events.append(
                (f"wait op{instruction.op_id}", "stall", start, end)
            )
        else:
            name = instruction.kind
            if isinstance(
                instruction, (BlockwiseAttention, BlockwiseAttentionBackward)
            ):
                name = f"{name}[{len(instruction.tiles)} tiles]"
            timing.compute_intervals.append((start, end))
            timing.events.append((name, "compute", start, end))
    # Transfers follow every device's own events, in launch order.
    for device, at, start, arrival, index in trace:
        if index is None:
            continue
        send = plan.device_plans[device].instructions[at].sends[index]
        kb = send.nbytes / 1024.0
        for owner, label in (
            (device, f"send {kb:.0f}KB -> dev{send.peer}"),
            (send.peer, f"recv {kb:.0f}KB <- dev{device}"),
        ):
            devices[owner].comm_intervals.append((start, arrival))
            devices[owner].events.append((label, "comm", start, arrival))
    for timing in devices.values():
        timing.events.sort(key=lambda e: (e[2], e[3]))
    return TimingResult(devices=devices)
