"""End-to-end iteration cost model for transformer training (§7.2).

The paper's end-to-end numbers combine (a) distributed attention —
where DCP and the baselines differ — with (b) *context-independent*
work (QKVO projections, MLP, norms, embedding/loss) and gradient
synchronization, which §7.2 notes is "similar for both DCP and the MLM
baseline".  This module prices (b) analytically from per-device token
counts, and composes it with the attention timing simulator to produce
full-iteration times and the Fig. 22 decomposition.

The model is the paper's 8B GPT (Llama3-8B shape), held in this
module's constants: 32 layers, hidden 4096, 32 heads, 8 KV groups, head
dim 128, FFN 14336, with 4-way tensor parallelism inside a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..blocks.data_blocks import DTYPE_BYTES
from .cluster import ClusterSpec
from .timing import TimingResult, simulate_plan

__all__ = ["e2e_iteration_time", "E2EResult"]

#: The paper's end-to-end model (§7.2 "Model Spec"), the shape every
#: iteration estimate prices.
NUM_LAYERS = 32
HIDDEN = 4096
NUM_Q_HEADS = 32
NUM_KV_GROUPS = 8
HEAD_DIM = 128
FFN_HIDDEN = 14336
VOCAB = 128256
TENSOR_PARALLEL = 4


def linear_flops_per_token() -> float:
    """Forward FLOPs/token of context-independent ops, one layer."""
    kv_dim = NUM_KV_GROUPS * HEAD_DIM
    qkv = 2 * HIDDEN * (HIDDEN + 2 * kv_dim)
    out_proj = 2 * HIDDEN * HIDDEN
    mlp = 3 * 2 * HIDDEN * FFN_HIDDEN  # SwiGLU: three mats
    return float(qkv + out_proj + mlp)


def head_flops_per_token() -> float:
    """Forward FLOPs/token of embedding + LM head."""
    return float(2 * HIDDEN * VOCAB)


def parameter_count() -> float:
    per_layer = linear_flops_per_token() / 2.0  # FLOPs = 2 * params
    return per_layer * NUM_LAYERS + HIDDEN * VOCAB


@dataclass
class E2EResult:
    """Full-iteration timing with the paper's decomposition."""

    iteration_time: float
    attention_forward: TimingResult
    attention_backward: TimingResult
    others_time: float
    grad_sync_time: float
    num_layers: int


def _others_time(tokens_per_device: np.ndarray, cluster: ClusterSpec) -> float:
    """Forward+backward context-independent compute on the critical device."""
    max_tokens = float(tokens_per_device.max()) if len(tokens_per_device) else 0.0
    per_token = (
        NUM_LAYERS * linear_flops_per_token() + head_flops_per_token()
    ) / TENSOR_PARALLEL
    forward = max_tokens * per_token / cluster.effective_flops()
    return 3.0 * forward  # backward of linear layers costs ~2x forward


def _grad_sync_time(cluster: ClusterSpec) -> float:
    """Exposed (non-overlapped) gradient-synchronization time.

    Gradients are ring-allreduced across all CP ranks.  Megatron
    overlaps almost all of this with the backward pass; the exposure
    factor models the non-hidden tail.
    """
    exposure = 0.08
    ranks = cluster.num_devices
    if ranks <= 1:
        return 0.0
    grad_bytes = parameter_count() * DTYPE_BYTES / TENSOR_PARALLEL
    ring = 2.0 * grad_bytes * (ranks - 1) / ranks / cluster.inter_bandwidth
    return exposure * ring


def e2e_iteration_time(
    plan, cluster: Optional[ClusterSpec] = None
) -> E2EResult:
    """Price one full training iteration of the paper's 8B model around
    a plan.

    The attention plan covers one layer; the iteration runs
    :data:`NUM_LAYERS` of them forward and backward, plus
    context-independent work over each device's planned tokens and
    gradient sync.
    """
    cluster = cluster or plan.cluster
    tokens_per_device = np.zeros(cluster.num_devices, dtype=np.int64)
    for device, device_plan in plan.device_plans.items():
        tokens_per_device[device] = sum(
            ts.tokens for ts in device_plan.local_slices
        )

    forward = simulate_plan(plan, cluster, backward=False)
    backward = simulate_plan(plan, cluster, backward=True)
    attention_total = NUM_LAYERS * (
        forward.iteration_time + backward.iteration_time
    )
    others = _others_time(tokens_per_device, cluster)
    sync = _grad_sync_time(cluster)
    return E2EResult(
        iteration_time=attention_total + others + sync,
        attention_forward=forward,
        attention_backward=backward,
        others_time=others,
        grad_sync_time=sync,
        num_layers=NUM_LAYERS,
    )
