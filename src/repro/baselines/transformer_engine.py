"""TransformerEngine-style baseline (paper baseline (iii), [30]).

Parallelizes attention along both the head and the sequence dimension:
the static ring of :mod:`.ring` with zigzag-assigned ring positions and
``hp = gcd(G, R)`` head rows for ``G`` KV groups on ``R`` devices.  That
is one head row per KV group (the head-parallel degree that minimizes
its communication, exactly as the paper configures it) whenever the
devices split into ``G`` rows, else the largest degree that splits both
evenly.  The devices form ``R / hp`` ring positions x ``hp`` head rows;
the prologue all-to-all gathers each row's heads, the ring circulates
KV every step, and the epilogue returns partial outputs home.

Following §7.1, this is the paper's own "enhanced TE": variable-length
inputs are supported and arbitrary masks are applied inside each local
attention step (fully masked tiles are skipped by the kernel, but the
communication schedule never changes).
"""

from __future__ import annotations

from math import gcd

from ..blocks import BlockSet
from ..scheduling.instructions import ExecutionPlan
from ..sim.cluster import ClusterSpec
from .ring import static_ring_plan

__all__ = ["TransformerEnginePlanner"]


class TransformerEnginePlanner:
    """Head + sequence hybrid CP with static zigzag placement."""

    name = "te"

    def plan(self, block_set: BlockSet, cluster: ClusterSpec) -> ExecutionPlan:
        hp = gcd(block_set.attention.head_groups, cluster.num_devices)
        return static_ring_plan(block_set, cluster, self.name, hp, zigzag=True)
