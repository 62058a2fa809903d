"""Group-wise scaling: DCP within groups, data parallelism across.

The paper's §8 ("Scaling to larger models/clusters") proposes managing
batch-size growth by grouping nodes, applying DCP within each group and
traditional data parallelism across groups.  This module implements
that composition: sequences are LPT-packed across groups by *attention
workload* (FLOPs, which grow quadratically — packing by tokens alone
would unbalance compute), then each group plans its own sub-batch
independently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from ..blocks import AttentionSpec, BatchSpec, SequenceSpec
from ..sim.cluster import ClusterSpec
from .config import DCPConfig
from .planner import DCPPlanner

__all__ = ["GroupedPlan", "split_batch_by_workload", "plan_with_groups"]


@dataclass
class GroupedPlan:
    """One DCP plan per node group (data parallel across groups)."""

    group_batches: List[Optional[BatchSpec]]
    group_plans: List[Optional[object]]

    @property
    def num_groups(self) -> int:
        return len(self.group_plans)

    def tokens_per_group(self) -> List[int]:
        return [
            batch.total_tokens if batch is not None else 0
            for batch in self.group_batches
        ]


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


def plan_with_groups(
    batch: BatchSpec,
    cluster: ClusterSpec,
    num_groups: int,
    attention: Optional[AttentionSpec] = None,
    config: Optional[DCPConfig] = None,
) -> GroupedPlan:
    """Plan a batch as ``num_groups`` independent DCP instances.

    ``cluster`` is the whole cluster; its machines are divided evenly
    among the groups (machines must divide evenly).
    """
    if cluster.num_machines % num_groups != 0:
        raise ValueError("machines must divide evenly into groups")
    machines_per_group = cluster.num_machines // num_groups
    group_cluster = replace(cluster, num_machines=machines_per_group)
    group_batches = split_batch_by_workload(batch, num_groups)
    group_plans: List[Optional[object]] = []
    for group_batch in group_batches:
        if group_batch is None:
            group_plans.append(None)
            continue
        planner = DCPPlanner(group_cluster, attention, config)
        group_plans.append(planner.plan_batch(group_batch))
    return GroupedPlan(group_batches=group_batches, group_plans=group_plans)
