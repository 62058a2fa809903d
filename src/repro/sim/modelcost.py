"""End-to-end iteration cost model for transformer training (§7.2).

The paper's end-to-end numbers combine (a) distributed attention —
where DCP and the baselines differ — with (b) *context-independent*
work (QKVO projections, MLP, norms, embedding/loss) and gradient
synchronization, which §7.2 notes is "similar for both DCP and the MLM
baseline".  This module prices (b) analytically from per-device token
counts, and composes it with the attention timing simulator to produce
full-iteration times and the Fig. 22 decomposition.

Model defaults follow the paper's 8B GPT (Llama3-8B shape): 32 layers,
hidden 4096, 32 heads, 8 KV groups, head dim 128, FFN 14336, with 4-way
tensor parallelism inside a node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cluster import ClusterSpec
from .timing import TimingResult, simulate_plan

__all__ = ["ModelSpec", "GPT_8B", "e2e_iteration_time", "E2EResult"]


@dataclass(frozen=True)
class ModelSpec:
    """Transformer shape for the analytic cost model."""

    num_layers: int = 32
    hidden: int = 4096
    num_q_heads: int = 32
    num_kv_groups: int = 8
    head_dim: int = 128
    ffn_hidden: int = 14336
    vocab: int = 128256
    tensor_parallel: int = 4
    dtype_bytes: int = 2

    def linear_flops_per_token(self) -> float:
        """Forward FLOPs/token of context-independent ops, one layer."""
        kv_dim = self.num_kv_groups * self.head_dim
        qkv = 2 * self.hidden * (self.hidden + 2 * kv_dim)
        out_proj = 2 * self.hidden * self.hidden
        mlp = 3 * 2 * self.hidden * self.ffn_hidden  # SwiGLU: three mats
        return float(qkv + out_proj + mlp)

    def head_flops_per_token(self) -> float:
        """Forward FLOPs/token of embedding + LM head."""
        return float(2 * self.hidden * self.vocab)

    def parameter_count(self) -> float:
        per_layer = (
            self.linear_flops_per_token() / 2.0
        )  # FLOPs = 2 * params for matmuls
        return per_layer * self.num_layers + self.hidden * self.vocab


#: The paper's end-to-end model (§7.2 "Model Spec").
GPT_8B = ModelSpec()


@dataclass
class E2EResult:
    """Full-iteration timing with the paper's decomposition."""

    iteration_time: float
    attention_forward: TimingResult
    attention_backward: TimingResult
    others_time: float
    grad_sync_time: float
    num_layers: int


def _others_time(
    model: ModelSpec,
    tokens_per_device: np.ndarray,
    cluster: ClusterSpec,
) -> float:
    """Forward+backward context-independent compute on the critical device."""
    max_tokens = float(tokens_per_device.max()) if len(tokens_per_device) else 0.0
    per_token = (
        model.num_layers * model.linear_flops_per_token()
        + model.head_flops_per_token()
    ) / model.tensor_parallel
    forward = max_tokens * per_token / cluster.effective_flops()
    return 3.0 * forward  # backward of linear layers costs ~2x forward


def _grad_sync_time(model: ModelSpec, cluster: ClusterSpec) -> float:
    """Exposed (non-overlapped) gradient-synchronization time.

    Gradients are ring-allreduced across all CP ranks.  Megatron
    overlaps almost all of this with the backward pass; the exposure
    factor models the non-hidden tail.
    """
    exposure = 0.08
    ranks = cluster.num_devices
    if ranks <= 1:
        return 0.0
    grad_bytes = model.parameter_count() * model.dtype_bytes / model.tensor_parallel
    ring = 2.0 * grad_bytes * (ranks - 1) / ranks / cluster.inter_bandwidth
    return exposure * ring


def e2e_iteration_time(
    plan,
    model: Optional[ModelSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    tokens_per_device: Optional[np.ndarray] = None,
) -> E2EResult:
    """Price one full training iteration around an attention plan.

    The attention plan covers one layer; the iteration runs
    ``model.num_layers`` of them forward and backward, plus
    context-independent work and gradient sync.
    """
    model = model or GPT_8B
    cluster = cluster or plan.cluster

    if tokens_per_device is None:
        counts = np.zeros(cluster.num_devices, dtype=np.int64)
        for device, device_plan in plan.device_plans.items():
            counts[device] = sum(ts.tokens for ts in device_plan.local_slices)
        tokens_per_device = counts

    forward = simulate_plan(plan, cluster, backward=False)
    backward = simulate_plan(plan, cluster, backward=True)
    attention_total = model.num_layers * (
        forward.iteration_time + backward.iteration_time
    )
    others = _others_time(model, tokens_per_device, cluster)
    sync = _grad_sync_time(model, cluster)
    return E2EResult(
        iteration_time=attention_total + others + sync,
        attention_forward=forward,
        attention_backward=backward,
        others_time=others,
        grad_sync_time=sync,
        num_layers=model.num_layers,
    )
