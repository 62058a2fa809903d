"""Cooperative multi-device executor for DCP execution plans.

This is the repository's substitute for the paper's GPU executor: it
interprets the same instructions over numpy buffers, with real
tag-matched message passing between simulated devices.  Devices run
round-robin, each progressing until it blocks on a :class:`CommWait`
whose messages have not arrived; a full cycle without progress is a
deadlock and raises.

Numerics are exact (FlashAttention online softmax in float32), so the
executor doubles as the correctness oracle for placement, scheduling
and serialization — and powers the paper's loss-curve experiment
(Fig. 21).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..blocks import BlockSet
from ..masks import AttendRanges
from ..scheduling.instructions import (
    BlockwiseAttention,
    BlockwiseAttentionBackward,
    BlockwiseGradReduce,
    BlockwiseReduction,
    CommLaunch,
    CommWait,
    DevicePlan,
    ExecutionPlan,
)
from .device import DeviceBuffers
from .fabric import Fabric
from .kernels import finalize, merge_partials, tile_attention, tile_backward

__all__ = ["SimExecutor", "BatchInputs"]


@dataclass
class BatchInputs:
    """Per-sequence attention inputs.

    ``q[seq]`` has shape ``[num_q_heads, L, head_dim]``; ``k[seq]`` and
    ``v[seq]`` have shape ``[num_kv_groups, L, head_dim]``.
    """

    q: List[np.ndarray]
    k: List[np.ndarray]
    v: List[np.ndarray]

    @staticmethod
    def random(block_set: BlockSet, seed: int = 0) -> "BatchInputs":
        rng = np.random.default_rng(seed)
        attention = block_set.attention
        q, k, v = [], [], []
        for seq in block_set.batch.sequences:
            shape_q = (attention.num_q_heads, seq.seqlen, attention.head_dim)
            shape_kv = (attention.num_kv_groups, seq.seqlen, attention.head_dim)
            q.append(rng.standard_normal(shape_q).astype(np.float32))
            k.append(rng.standard_normal(shape_kv).astype(np.float32))
            v.append(rng.standard_normal(shape_kv).astype(np.float32))
        return BatchInputs(q, k, v)


def _finalize(buffers: DeviceBuffers, finalizes) -> None:
    """Normalize each partial into its output slot (a reduction's
    finalizes, or an attention kernel's epilogue)."""
    for fin in finalizes:
        state = buffers.acc.get(fin.acc_slot)
        if state is None:
            continue  # output block never touched; stays zero
        buffers.store_o(fin.o_slot, finalize(state))


class _DeviceRunner:
    """Instruction interpreter state for one device."""

    def __init__(self, plan: DevicePlan, executor: "SimExecutor") -> None:
        self.plan = plan
        self.executor = executor
        self.pc = 0
        self.pending_recvs: Dict[int, List] = {}

    @property
    def done(self) -> bool:
        return self.pc >= len(self.plan.instructions)

    def step(self) -> bool:
        """Execute instructions until blocked; True if progressed."""
        progressed = False
        while not self.done:
            instruction = self.plan.instructions[self.pc]
            if isinstance(instruction, CommWait):
                if not self._try_complete_wait(instruction.op_id):
                    return progressed
            elif isinstance(instruction, CommLaunch):
                self._launch(instruction)
            elif isinstance(instruction, BlockwiseAttention):
                self._attention(instruction)
            elif isinstance(instruction, BlockwiseAttentionBackward):
                self._attention_backward(instruction)
            elif isinstance(instruction, BlockwiseReduction):
                self._reduction(instruction)
            elif isinstance(instruction, BlockwiseGradReduce):
                self._grad_reduce(instruction)
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown instruction {instruction!r}")
            self.pc += 1
            progressed = True
        return progressed

    # -- communication ----------------------------------------------------

    def _launch(self, instruction: CommLaunch) -> None:
        executor = self.executor
        device = self.plan.device
        buffers = executor.buffers[device]
        for send in instruction.sends:
            if send.buffer == "q":
                payload = (buffers.q_view(send.slot).copy(), None)
            elif send.buffer == "kv":
                k, v = buffers.kv_view(send.slot)
                payload = (k.copy(), v.copy())
            elif send.buffer == "acc":
                payload = buffers.acc[send.slot].copy()
            elif send.buffer == "do":
                grad_out, lse, delta = buffers.do[send.slot]
                payload = (grad_out.copy(), lse.copy(), delta.copy())
            elif send.buffer == "dq":
                payload = buffers.dq[send.slot].copy()
            elif send.buffer == "dkv":
                payload = buffers.dkv[send.slot].copy()
            else:  # pragma: no cover - defensive
                raise ValueError(f"cannot send buffer {send.buffer!r}")
            executor.fabric.post(device, send.peer, send.tag, payload, send.nbytes)
        if instruction.recvs:
            self.pending_recvs[instruction.op_id] = list(instruction.recvs)

    def _try_complete_wait(self, op_id: int) -> bool:
        recvs = self.pending_recvs.get(op_id, [])
        fabric = self.executor.fabric
        device = self.plan.device
        if not all(fabric.ready(r.peer, device, r.tag) for r in recvs):
            return False
        buffers = self.executor.buffers[device]
        for recv in recvs:
            message = fabric.collect(recv.peer, device, recv.tag)
            if recv.buffer == "q":
                buffers.load_q(recv.slot, message.payload[0])
            elif recv.buffer == "kv":
                buffers.load_kv(recv.slot, message.payload[0], message.payload[1])
            elif recv.buffer == "acc":
                buffers.set_acc(recv.slot, message.payload)
            elif recv.buffer == "do":
                buffers.do[recv.slot] = message.payload
            elif recv.buffer == "dq":
                buffers.dq[recv.slot] = message.payload
            elif recv.buffer == "dkv":
                buffers.dkv[recv.slot] = message.payload
            else:  # pragma: no cover - defensive
                raise ValueError(f"cannot receive buffer {recv.buffer!r}")
        self.pending_recvs.pop(op_id, None)
        return True

    # -- computation ------------------------------------------------------

    def _attention(self, instruction: BlockwiseAttention) -> None:
        executor = self.executor
        buffers = executor.buffers[self.plan.device]
        scale = 1.0 / np.sqrt(executor.block_set.attention.head_dim)
        for tile in instruction.tiles:
            # One query row: its partial stays put while the KV blocks pass.
            q = buffers.q_view(tile.q_slot)
            state = buffers.acc_state(tile.acc_slot, q.shape[1])
            for kv_slot, kv_block in zip(tile.kv_slots, tile.kv_blocks):
                k, v = buffers.kv_view(kv_slot)
                mask = executor.tile_mask(tile.seq_index, tile.q_block, kv_block)
                merge_partials(state, tile_attention(q, k, v, mask, scale))
        _finalize(buffers, instruction.finalizes)

    def _attention_backward(self, instruction: BlockwiseAttentionBackward) -> None:
        executor = self.executor
        buffers = executor.buffers[self.plan.device]
        scale = 1.0 / np.sqrt(executor.block_set.attention.head_dim)
        for tile in instruction.tiles:
            # One KV column: its dKV partial stays put while the Q blocks pass.
            k, v = buffers.kv_view(tile.kv_slot)
            dkv = buffers.dkv_state(tile.dkv_slot, k.shape[0])
            for q_slot, do_slot, dq_slot, q_block in zip(
                tile.q_slots, tile.do_slots, tile.dq_slots, tile.q_blocks
            ):
                q = buffers.q_view(q_slot)
                grad_out, lse, delta = buffers.do[do_slot]
                mask = executor.tile_mask(tile.seq_index, q_block, tile.kv_block)
                dq_tile, dk_tile, dv_tile = tile_backward(
                    q, k, v, grad_out, lse, delta, mask, scale
                )
                buffers.dq_state(dq_slot, q.shape[1])[...] += dq_tile
                dkv[0] += dk_tile
                dkv[1] += dv_tile

    def _grad_reduce(self, instruction: BlockwiseGradReduce) -> None:
        buffers = self.executor.buffers[self.plan.device]
        for add in instruction.adds:
            store = buffers.dq if add.buffer == "dq" else buffers.dkv
            src = store[add.src_slot]
            dst = store.get(add.dst_slot)
            if dst is None or dst.shape != src.shape:
                store[add.dst_slot] = src.copy()
            else:
                dst += src

    def _reduction(self, instruction: BlockwiseReduction) -> None:
        buffers = self.executor.buffers[self.plan.device]
        for merge in instruction.merges:
            src = buffers.acc[merge.src_acc_slot]
            dst = buffers.acc_state(merge.dst_acc_slot, src.acc.shape[1])
            merge_partials(dst, src)
        _finalize(buffers, instruction.finalizes)


class SimExecutor:
    """Execute an :class:`ExecutionPlan` over simulated devices."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.block_set: BlockSet = plan.block_set
        self.cluster = plan.cluster
        self.fabric = Fabric(self.cluster)
        attention = self.block_set.attention
        self.buffers: Dict[int, DeviceBuffers] = {
            device: DeviceBuffers(
                device_plan.buffer_sizes,
                attention.q_heads_per_group,
                self.block_set.block_size,
                attention.head_dim,
            )
            for device, device_plan in plan.device_plans.items()
        }
        self._ranges: Dict[int, AttendRanges] = {}
        self._mask_cache: Dict[Tuple[int, int, int], np.ndarray] = {}

    # -- masks -------------------------------------------------------------

    def tile_mask(self, seq_index: int, q_block: int, kv_block: int) -> np.ndarray:
        """The boolean mask of one tile.

        A plan holds no per-token state, so the executor derives a
        sequence's attend ranges from its mask the first time it masks
        one of its tiles; both the ranges and the tiles live as long as
        this executor, not the plan.
        """
        key = (seq_index, q_block, kv_block)
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        bounds = self.block_set.seq_bounds[seq_index]
        ranges = self._ranges.get(seq_index)
        if ranges is None:
            seq = self.block_set.batch.sequences[seq_index]
            ranges = self._ranges[seq_index] = seq.mask.ranges(seq.seqlen)
        q_start, q_stop = int(bounds[q_block]), int(bounds[q_block + 1])
        k_start, k_stop = int(bounds[kv_block]), int(bounds[kv_block + 1])
        mask = ranges.tile_mask(q_start, q_stop, k_start, k_stop)
        self._mask_cache[key] = mask
        return mask

    # -- data movement -------------------------------------------------------

    def load_inputs(self, inputs: BatchInputs) -> None:
        """Scatter per-sequence Q/K/V into each device's local slots."""
        attention = self.block_set.attention
        qpg = attention.q_heads_per_group
        for device_plan in self.plan.device_plans.values():
            buffers = self.buffers[device_plan.device]
            for key, slot in device_plan.q_slots.items():
                seq_index, block_index, head_group = key
                token_slice = self.block_set.slice_of(seq_index, block_index)
                heads = slice(head_group * qpg, (head_group + 1) * qpg)
                data = inputs.q[seq_index][heads, token_slice.start : token_slice.stop]
                buffers.load_q(slot, data)
            for key, slot in device_plan.kv_slots.items():
                seq_index, block_index, head_group = key
                token_slice = self.block_set.slice_of(seq_index, block_index)
                span = slice(token_slice.start, token_slice.stop)
                buffers.load_kv(
                    slot,
                    inputs.k[seq_index][head_group, span],
                    inputs.v[seq_index][head_group, span],
                )

    def run(self, max_cycles: int = 1_000_000) -> float:
        """Run all devices to completion; raise on deadlock.

        Returns the measured wall-clock seconds the execution took, so
        the overlap pipeline (:mod:`repro.pipeline`) can put measured
        execution time on the same axis as measured planning time.
        """
        start = time.perf_counter()
        runners = [
            _DeviceRunner(device_plan, self)
            for _, device_plan in sorted(self.plan.device_plans.items())
        ]
        for _ in range(max_cycles):
            if all(runner.done for runner in runners):
                return time.perf_counter() - start
            progressed = False
            for runner in runners:
                if not runner.done and runner.step():
                    progressed = True
            if not progressed:
                stuck = [r.plan.device for r in runners if not r.done]
                raise RuntimeError(
                    f"deadlock: devices {stuck} blocked, "
                    f"{self.fabric.pending_count()} messages pending"
                )
        raise RuntimeError("executor exceeded max cycles")

    def gather_outputs(self) -> List[np.ndarray]:
        """Assemble per-sequence outputs ``[num_q_heads, L, head_dim]``."""
        attention = self.block_set.attention
        qpg = attention.q_heads_per_group
        outputs = [
            np.zeros(
                (attention.num_q_heads, seq.seqlen, attention.head_dim),
                dtype=np.float32,
            )
            for seq in self.block_set.batch.sequences
        ]
        for device_plan in self.plan.device_plans.values():
            buffers = self.buffers[device_plan.device]
            for key, slot in device_plan.o_slots.items():
                seq_index, block_index, head_group = key
                token_slice = self.block_set.slice_of(seq_index, block_index)
                heads = slice(head_group * qpg, (head_group + 1) * qpg)
                outputs[seq_index][
                    heads, token_slice.start : token_slice.stop
                ] = buffers.o_view(slot, token_slice.tokens)
        return outputs
