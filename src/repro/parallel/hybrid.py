"""End-to-end hybrid TP x DCP x PP iteration estimate (paper §6.2).

This module composes the pieces the paper says are orthogonal to DCP:

* tensor parallelism on consecutive in-node ranks (head sharding,
  all-reduce cost, plan sharing — :mod:`repro.parallel.tp`);
* DCP over the ranks Megatron would give to CP and DP;
* pipeline parallelism over machine groups, priced with the 1F1B
  simulator (:mod:`repro.parallel.pp`).

The result is an iteration-time estimate with the same decomposition
philosophy as :mod:`repro.sim.modelcost`: attention times come from the
timing simulator replaying real plans; context-independent work, TP
all-reduces, activation p2p and gradient sync are analytic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..blocks import AttentionSpec, BatchSpec, SequenceSpec, generate_blocks
from ..blocks.data_blocks import DTYPE_BYTES
from ..core.config import DCPConfig
from ..core.planner import DCPPlanner
from ..sim import cluster as hardware
from ..sim import modelcost
from ..sim.cluster import ClusterSpec
from ..sim.timing import simulate_plan
from .pp import PipelineTiming, StageCost, simulate_1f1b_varied, split_layers
from .topology import RankTopology
from .tp import dcp_view_cluster, shard_attention, tp_layer_comm_time

__all__ = [
    "HybridConfig",
    "HybridResult",
    "hybrid_iteration_time",
    "split_batch_by_workload",
]


@dataclass(frozen=True)
class HybridConfig:
    """How to run one model on one cluster with TP x DCP x PP."""

    topology: RankTopology
    num_microbatches: int = 1
    dcp_config: DCPConfig = field(default_factory=DCPConfig)

    def __post_init__(self) -> None:
        if self.num_microbatches < 1:
            raise ValueError("need at least one microbatch")


@dataclass
class HybridResult:
    """Iteration estimate of one hybrid-parallel configuration."""

    iteration_time: float
    pipeline: PipelineTiming
    attention_time: float  # summed fw+bw attention across stages/microbatches
    tp_comm_time: float  # summed TP all-reduce time on the critical path
    others_time: float  # context-independent compute, critical device
    grad_sync_time: float
    microbatch_plans: List[object]


def split_batch_by_workload(
    batch: BatchSpec, num_groups: int
) -> List[Optional[BatchSpec]]:
    """LPT-pack sequences into groups by attention FLOPs.

    Memory (tokens) is kept as a tiebreaker so the byte footprint stays
    reasonable too.  Returns ``None`` for groups that receive nothing
    (more groups than sequences).
    """
    if num_groups < 1:
        raise ValueError("need at least one group")
    work = [
        (seq.mask.total_pairs(seq.seqlen), seq.seqlen, index)
        for index, seq in enumerate(batch.sequences)
    ]
    work.sort(reverse=True)
    loads = np.zeros(num_groups, dtype=np.float64)
    token_loads = np.zeros(num_groups, dtype=np.float64)
    members: List[List[SequenceSpec]] = [[] for _ in range(num_groups)]
    for pairs, seqlen, index in work:
        candidates = np.nonzero(loads == loads.min())[0]
        group = int(candidates[np.argmin(token_loads[candidates])])
        loads[group] += pairs
        token_loads[group] += seqlen
        members[group].append(batch.sequences[index])
    return [
        BatchSpec(tuple(group)) if group else None for group in members
    ]


def _stage_cluster(cluster: ClusterSpec, topology: RankTopology) -> ClusterSpec:
    """The cluster one pipeline stage's DCP group runs on.

    PP spans the most distant ranks, so stages occupy contiguous machine
    groups; TP groups inside each machine collapse into single DCP
    ranks.
    """
    if cluster.num_machines % topology.pp != 0:
        raise ValueError(
            f"pp degree {topology.pp} must divide machines "
            f"{cluster.num_machines}"
        )
    per_stage = replace(cluster, num_machines=cluster.num_machines // topology.pp)
    return dcp_view_cluster(per_stage, topology.tp)


def _attention_spec(tp: int) -> AttentionSpec:
    """Per-TP-shard attention operator of the model."""
    return shard_attention(
        AttentionSpec(
            num_q_heads=modelcost.NUM_Q_HEADS,
            num_kv_groups=modelcost.NUM_KV_GROUPS,
            head_dim=modelcost.HEAD_DIM,
        ),
        tp,
    )


def hybrid_iteration_time(
    batch: BatchSpec,
    cluster: ClusterSpec,
    config: HybridConfig,
) -> HybridResult:
    """Estimate one training iteration under a hybrid configuration.

    Parameters
    ----------
    batch:
        The global batch; it is LPT-split by attention workload into
        ``config.num_microbatches`` microbatches.
    cluster:
        The physical GPU cluster (per-GPU FLOPs; TP aggregation is
        derived from the topology).
    config:
        Topology and microbatching.

    The model is the paper's 8B GPT (:mod:`repro.sim.modelcost`).

    Each microbatch is planned by a :class:`~repro.core.planner.DCPPlanner`
    on one pipeline stage's cluster.
    """
    topology = config.topology
    topology.validate_against(cluster)
    stage_cluster = _stage_cluster(cluster, topology)
    attention = _attention_spec(topology.tp)
    planner = DCPPlanner(stage_cluster, attention, config.dcp_config)

    microbatches = [
        mb
        for mb in split_batch_by_workload(batch, config.num_microbatches)
        if mb is not None
    ]
    if not microbatches:
        raise ValueError("batch produced no microbatches")

    layers_per_stage = split_layers(modelcost.NUM_LAYERS, topology.pp)
    per_gpu_flops = cluster.effective_flops()

    plans = []
    stage_costs: List[List[StageCost]] = [[] for _ in range(topology.pp)]
    attention_total = 0.0
    tp_total = 0.0
    others_total = 0.0
    for microbatch in microbatches:
        block_set = generate_blocks(
            microbatch, attention=attention,
            block_size=config.dcp_config.block_size,
        )
        plan = planner.plan(block_set, stage_cluster)
        plans.append(plan)
        forward = simulate_plan(plan, stage_cluster, backward=False)
        backward = simulate_plan(plan, stage_cluster, backward=True)

        tokens = np.zeros(stage_cluster.num_devices, dtype=np.int64)
        for device, device_plan in plan.device_plans.items():
            tokens[device] = sum(ts.tokens for ts in device_plan.local_slices)
        max_tokens = float(tokens.max()) if len(tokens) else 0.0

        linear_fw = (
            max_tokens * modelcost.linear_flops_per_token()
            / topology.tp / per_gpu_flops
        )
        head_fw = (
            max_tokens * modelcost.head_flops_per_token()
            / topology.tp / per_gpu_flops
        )
        tp_layer = tp_layer_comm_time(int(max_tokens), topology.tp)

        for stage, num_layers in enumerate(layers_per_stage):
            fw = num_layers * (
                forward.iteration_time + linear_fw + tp_layer / 4.0 * 2.0
            )
            bw = num_layers * (
                backward.iteration_time + 2.0 * linear_fw
                + tp_layer / 4.0 * 2.0
            )
            if stage == topology.pp - 1:
                fw += head_fw
                bw += 2.0 * head_fw
            stage_costs[stage].append(StageCost(forward=fw, backward=bw))
            attention_total += (
                num_layers
                * (forward.iteration_time + backward.iteration_time)
            )
            tp_total += num_layers * tp_layer
            others_total += num_layers * 3.0 * linear_fw
            if stage == topology.pp - 1:
                others_total += 3.0 * head_fw

    # Activation p2p between stages: the widest device's tokens.
    widest = 0.0
    for plan in plans:
        for device_plan in plan.device_plans.values():
            widest = max(
                widest,
                float(sum(ts.tokens for ts in device_plan.local_slices)),
            )
    p2p_bytes = widest * modelcost.HIDDEN * DTYPE_BYTES / topology.tp
    p2p_time = (
        hardware.INTER_LATENCY + p2p_bytes / cluster.inter_bandwidth
        if topology.pp > 1
        else 0.0
    )

    pipeline = simulate_1f1b_varied(stage_costs, p2p_time=p2p_time)
    sync = modelcost.grad_sync_time(
        topology.dcp, topology.tp, topology.pp, cluster
    )
    return HybridResult(
        iteration_time=pipeline.total + sync,
        pipeline=pipeline,
        attention_time=attention_total,
        tp_comm_time=tp_total,
        others_time=others_total,
        grad_sync_time=sync,
        microbatch_plans=plans,
    )
