"""Distributed attention forward + backward on the simulated cluster.

Orchestrates a complete attention autograd step from one division
schedule: run the forward plan (saving per-block log-sum-exp like
FlashAttention), build the output-gradient packages at each output
block's home, run the backward plan, and gather dQ/dK/dV — all through
the same executor and fabric.

DCP's backward plan shares the forward's placement and divisions (one
lowering emits both, :mod:`repro.scheduling.serialize`).  The static
ring's plan pair (``lower_ring`` with ``Forward`` / ``Backward``) runs
through :func:`run_plans_forward_backward` too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..scheduling.divisions import Schedule
from ..scheduling.serialize import (
    serialize_backward_schedule,
    serialize_schedule,
)
from .executor import BatchInputs, SimExecutor
from .kernels import finalize_with_lse

__all__ = [
    "AttentionGrads",
    "run_forward_backward",
    "run_plans_forward_backward",
]


@dataclass
class AttentionGrads:
    """Per-sequence attention gradients."""

    dq: List[np.ndarray]  # [num_q_heads, L, head_dim]
    dk: List[np.ndarray]  # [num_kv_groups, L, head_dim]
    dv: List[np.ndarray]


def run_plans_forward_backward(
    forward_plan,
    backward_plan,
    inputs: BatchInputs,
    grad_outputs: List[np.ndarray],
) -> Tuple[List[np.ndarray], AttentionGrads, SimExecutor, SimExecutor]:
    """Execute a (forward, backward) plan pair and gather gradients.

    Works for any planner whose plans expose ``acc_slots`` (forward)
    and ``do/dq/dkv`` slot maps (backward).  Every dKV slot the
    backward plan maps starts at zero: a ring's accumulators circulate
    even through devices that add nothing to them, and for a plan whose
    partials only add into it, zero plus a partial is that partial.
    """
    block_set = forward_plan.block_set
    attention = block_set.attention
    qpg = attention.q_heads_per_group

    # -- forward ----------------------------------------------------------
    forward = SimExecutor(forward_plan)
    forward.load_inputs(inputs)
    forward.run()
    outputs = forward.gather_outputs()

    # -- stage backward inputs ---------------------------------------------
    backward = SimExecutor(backward_plan)
    backward.load_inputs(inputs)

    for device, device_plan in backward_plan.device_plans.items():
        forward_buffers = forward.buffers[device]
        forward_acc = forward_plan.device_plans[device].acc_slots
        buffers = backward.buffers[device]
        for key, do_slot in device_plan.do_slots.items():
            seq_index, block_index, head_group = key
            token_slice = block_set.slice_of(seq_index, block_index)
            heads = slice(head_group * qpg, (head_group + 1) * qpg)
            span = slice(token_slice.start, token_slice.stop)
            grad_block = grad_outputs[seq_index][heads, span].astype(
                np.float32
            )
            state = forward_buffers.acc.get(forward_acc.get(key, -1))
            if state is None:
                # No attention computed for these rows: zero package.
                lse = np.full(
                    (qpg, token_slice.tokens), -np.inf, dtype=np.float32
                )
                out_block = np.zeros_like(grad_block)
            else:
                out_block, lse = finalize_with_lse(state)
            delta = (grad_block * out_block).sum(axis=2).astype(np.float32)
            buffers.load_do(do_slot, grad_block, lse, delta)
        for key, dkv_slot in device_plan.dkv_slots.items():
            tokens = block_set.slice_of(key[0], key[1]).tokens
            buffers.dkv_state(dkv_slot, tokens)

    # -- backward ------------------------------------------------------------
    backward.run()

    # -- gather gradients at their home devices -------------------------------
    home_of_slice: Dict[Tuple[int, int], int] = {}
    for device, device_plan in backward_plan.device_plans.items():
        for token_slice in device_plan.local_slices:
            home_of_slice[
                (token_slice.seq_index, token_slice.block_index)
            ] = device

    dq = [
        np.zeros(
            (attention.num_q_heads, seq.seqlen, attention.head_dim),
            dtype=np.float32,
        )
        for seq in block_set.batch.sequences
    ]
    dk = [
        np.zeros(
            (attention.num_kv_groups, seq.seqlen, attention.head_dim),
            dtype=np.float32,
        )
        for seq in block_set.batch.sequences
    ]
    dv = [np.zeros_like(arr) for arr in dk]

    for token_slice in block_set.token_slices:
        device = home_of_slice[(token_slice.seq_index, token_slice.block_index)]
        buffers = backward.buffers[device]
        device_plan = backward_plan.device_plans[device]
        span = slice(token_slice.start, token_slice.stop)
        for head_group in range(attention.head_groups):
            key = (token_slice.seq_index, token_slice.block_index, head_group)
            heads = slice(head_group * qpg, (head_group + 1) * qpg)
            dq_slot = device_plan.dq_slots.get(key)
            if dq_slot is not None and buffers.dq.get(dq_slot) is not None:
                dq[token_slice.seq_index][heads, span] = buffers.dq[dq_slot]
            dkv_slot = device_plan.dkv_slots.get(key)
            if dkv_slot is not None and buffers.dkv.get(dkv_slot) is not None:
                dkv = buffers.dkv[dkv_slot]
                dk[token_slice.seq_index][head_group, span] = dkv[0]
                dv[token_slice.seq_index][head_group, span] = dkv[1]

    return outputs, AttentionGrads(dq=dq, dk=dk, dv=dv), forward, backward


def run_forward_backward(
    schedule: Schedule,
    inputs: BatchInputs,
    grad_outputs: List[np.ndarray],
) -> Tuple[List[np.ndarray], AttentionGrads, SimExecutor, SimExecutor]:
    """Execute DCP attention forward and backward for one batch.

    Serializes both plans from ``schedule`` and delegates to
    :func:`run_plans_forward_backward`.
    """
    forward_plan = serialize_schedule(schedule)
    backward_plan = serialize_backward_schedule(schedule)
    return run_plans_forward_backward(
        forward_plan, backward_plan, inputs, grad_outputs
    )
