"""Attention forward/backward for the numpy GPT, with pluggable forward.

The forward pass can be swapped between the dense single-device
implementation ("MLM baseline") and a distributed execution through any
planner's plan on the simulated cluster ("DCP" or a baseline).  The
backward pass is always computed densely from cached probabilities —
legitimate because the distributed forward is verified to be
numerically equal to the dense forward (the paper's §7.4 makes the same
argument: DCP does not alter the attention algorithm).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..blocks import AttentionSpec, BatchSpec, generate_blocks
from ..masks import MaskSpec
from ..runtime import BatchInputs, SimExecutor

__all__ = [
    "make_distributed_forward",
    "attention_forward_backward",
]

#: Signature of a pluggable attention forward:
#: (q [H, L, D], k [G, L, D], v [G, L, D], mask_spec) -> O [H, L, D]
AttentionForward = Callable[[np.ndarray, np.ndarray, np.ndarray, MaskSpec], np.ndarray]


def make_distributed_forward(
    planner,
    attention_spec: AttentionSpec,
    block_size: int = 32,
) -> AttentionForward:
    """Wrap a planner into an attention forward on the simulated cluster.

    Plans are cached per (seqlen, mask) — repeated iterations over the
    same shape re-plan nothing, mirroring the dataloader's behaviour.
    """
    plan_cache: Dict[Tuple[int, MaskSpec], tuple] = {}

    def forward(
        q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: MaskSpec
    ) -> np.ndarray:
        seqlen = q.shape[1]
        key = (seqlen, mask)
        if key not in plan_cache:
            batch = BatchSpec.build([seqlen], mask)
            block_set = generate_blocks(batch, attention_spec, block_size)
            plan = planner.plan(block_set, getattr(planner, "cluster", None)) \
                if hasattr(planner, "cluster") else planner.plan(block_set)
            plan_cache[key] = (block_set, plan)
        block_set, plan = plan_cache[key]
        executor = SimExecutor(plan)
        executor.load_inputs(BatchInputs(q=[q], k=[k], v=[v]))
        executor.run()
        return executor.gather_outputs()[0]

    return forward


def attention_forward_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: MaskSpec,
    forward_fn: Optional[AttentionForward] = None,
):
    """Forward via ``forward_fn`` (or dense), backward via dense math.

    Returns ``(output, backward)`` where ``backward(dO) -> (dq, dk, dv)``.
    """
    num_heads, seqlen, head_dim = q.shape
    num_groups = k.shape[0]
    per_group = num_heads // num_groups
    scale = np.float32(1.0 / np.sqrt(head_dim))
    dense_mask = mask.dense(seqlen)

    # Cache the probability matrices for the backward pass.
    probs = np.zeros((num_heads, seqlen, seqlen), dtype=np.float32)
    for head in range(num_heads):
        group = head // per_group
        scores = (q[head] @ k[group].T) * scale
        scores = np.where(dense_mask, scores, np.float32(-np.inf))
        row_max = scores.max(axis=1, keepdims=True)
        safe = np.where(np.isfinite(row_max), row_max, np.float32(0.0))
        weights = np.where(dense_mask, np.exp(scores - safe), np.float32(0.0))
        denom = weights.sum(axis=1, keepdims=True)
        probs[head] = weights / np.where(denom > 0, denom, np.float32(1.0))

    if forward_fn is None:
        output = np.einsum("hqk,hkd->hqd", probs.reshape(num_heads, seqlen, seqlen),
                           v[np.arange(num_heads) // per_group]).astype(np.float32)
    else:
        output = forward_fn(q, k, v, mask)

    def backward(grad_out: np.ndarray):
        dq = np.zeros_like(q, dtype=np.float32)
        dk = np.zeros_like(k, dtype=np.float32)
        dv = np.zeros_like(v, dtype=np.float32)
        for head in range(num_heads):
            group = head // per_group
            p = probs[head]
            dv[group] += p.T @ grad_out[head]
            dp = grad_out[head] @ v[group].T
            ds = p * (dp - (dp * p).sum(axis=1, keepdims=True))
            ds *= scale
            dq[head] = ds @ k[group]
            dk[group] += ds.T @ q[head]
        return dq, dk, dv

    return output, backward
