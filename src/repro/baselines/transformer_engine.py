"""TransformerEngine-style baseline (paper baseline (iii), [30]).

Parallelizes attention along both the head and the sequence dimension:
the static ring of :mod:`.ring` with one head row per KV group (the
head-parallel degree that minimizes its communication, exactly as the
paper configures it) and zigzag-assigned ring positions.  The ``R``
devices form ``R / hp`` ring positions x ``hp`` head rows; the prologue
all-to-all gathers each row's heads, the ring circulates KV every step,
and the epilogue returns partial outputs home.

Following §7.1, this is the paper's own "enhanced TE": variable-length
inputs are supported and arbitrary masks are applied inside each local
attention step (fully masked tiles are skipped by the kernel, but the
communication schedule never changes).
"""

from __future__ import annotations

from ..blocks import BlockSet
from ..scheduling.instructions import ExecutionPlan
from ..sim.cluster import ClusterSpec
from .ring import static_ring_plan

__all__ = ["TransformerEnginePlanner"]


class TransformerEnginePlanner:
    """Head + sequence hybrid CP with static zigzag placement."""

    name = "te"

    def plan(self, block_set: BlockSet, cluster: ClusterSpec) -> ExecutionPlan:
        hp = block_set.attention.head_groups
        return static_ring_plan(block_set, cluster, self.name, hp, zigzag=True)
