"""Tensor-parallel composition with DCP (paper §6.2).

Tensor parallelism is orthogonal to DCP, but it shards the same head
dimension of the attention tensors.  Composing the two means:

* **head sharding** — DCP's attention spec sees ``1/tp`` of the query
  heads and KV groups; the *same execution plan* is shared by all
  members of a TP group (they hold different head shards of identical
  token slices);
* **rank aggregation** — a TP group acts as one DCP rank.  With TP on
  consecutive ranks inside a machine, the DCP-visible cluster has
  ``devices_per_machine / tp`` devices per machine, each aggregating the
  group's compute;
* **added communication** — each transformer layer pays TP all-reduces
  (attention output projection and MLP, forward and backward) priced by
  a ring all-reduce over NVSwitch.
"""

from __future__ import annotations

from dataclasses import replace

from ..blocks import AttentionSpec
from ..blocks.data_blocks import DTYPE_BYTES
from ..sim import cluster as hardware
from ..sim import modelcost
from ..sim.cluster import ClusterSpec

__all__ = [
    "shard_attention",
    "dcp_view_cluster",
    "allreduce_time",
    "tp_layer_comm_time",
]


def shard_attention(attention: AttentionSpec, tp: int) -> AttentionSpec:
    """Attention spec seen by one TP shard.

    The paper: "DCP's head dimension size should be divided by the
    tensor parallel degree".  Query heads and KV groups must both divide
    evenly — real deployments with ``tp > num_kv_groups`` replicate KV
    heads, which changes the operator; we reject that instead of
    silently modelling a different computation.
    """
    if tp < 1:
        raise ValueError("tp degree must be at least 1")
    if tp == 1:
        return attention
    if attention.num_q_heads % tp != 0:
        raise ValueError(
            f"query heads {attention.num_q_heads} not divisible by tp {tp}"
        )
    if attention.num_kv_groups % tp != 0:
        raise ValueError(
            f"KV groups {attention.num_kv_groups} not divisible by tp {tp}"
        )
    return replace(
        attention,
        num_q_heads=attention.num_q_heads // tp,
        num_kv_groups=attention.num_kv_groups // tp,
    )


def dcp_view_cluster(cluster: ClusterSpec, tp: int) -> ClusterSpec:
    """The cluster as DCP sees it when TP groups act as single ranks.

    Each TP group of ``tp`` consecutive devices aggregates its members'
    FLOPs.  The NIC is shared per machine either way; NVSwitch
    point-to-point bandwidth between groups is unchanged (any member
    pair can carry a transfer).
    """
    if tp < 1:
        raise ValueError("tp degree must be at least 1")
    if cluster.devices_per_machine % tp != 0:
        raise ValueError("tp degree must divide devices per machine")
    if tp == 1:
        return cluster
    return replace(
        cluster,
        devices_per_machine=cluster.devices_per_machine // tp,
        peak_flops=cluster.peak_flops * tp,
    )


def allreduce_time(nbytes: float, ranks: int, bandwidth: float,
                   latency: float = 0.0) -> float:
    """Ring all-reduce time: ``2 (R-1)/R`` of the buffer over the link."""
    if ranks < 1:
        raise ValueError("need at least one rank")
    if ranks == 1:
        return 0.0
    steps = 2 * (ranks - 1)
    return steps * latency + steps / ranks * nbytes / bandwidth


def tp_layer_comm_time(tokens: int, tp: int) -> float:
    """TP all-reduce time of one transformer layer, forward + backward.

    Megatron's sequence of a layer has two all-reduces in the forward
    pass (after the attention output projection and after the MLP) and
    two in the backward, each over the ``[tokens, hidden]`` activation.
    All run on NVSwitch (TP groups never straddle machines).
    """
    if tp <= 1:
        return 0.0
    activation_bytes = float(tokens) * modelcost.HIDDEN * DTYPE_BYTES
    one = allreduce_time(
        activation_bytes, tp, hardware.INTRA_BANDWIDTH, hardware.INTRA_LATENCY
    )
    return 4.0 * one
