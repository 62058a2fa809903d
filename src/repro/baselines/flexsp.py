"""FlexSP/ByteScale-style baseline: per-sequence DP-vs-CP selection (§8).

The paper's closest related works, ByteScale [18] and FlexSP [44],
let *different sequences* use different parallelism — short sequences
stay data-parallel on one device, long ones are context-parallelized —
to cut communication.  Crucially, they "do not model fine-grained token
dependencies": their workload model assumes the causal-mask cost, so
placement ignores any sparsity in the actual attention mask.

This planner reproduces that design point:

* each sequence gets a CP degree (a power of two) just large enough
  that its tokens and its *causal-model* FLOPs fit under per-device
  budgets — short sequences get degree 1 (pure DP);
* the sequence's slices are zigzag-placed over the chosen device set
  (the standard causal balancing of Fig. 4), choosing the currently
  least-loaded set;
* every computation block runs where its Q slice lives (ring-attention
  semantics).

The emitted plan reuses DCP's division scheduling and serialization,
so the executor and timing simulator treat all three systems (DCP,
FlexSP-style, static CP) identically; only placement policy differs.
This isolates exactly what the paper claims: sequence-level dynamism
(FlexSP) recovers much of DCP's benefit under causal masks, but
mask-agnostic placement leaves communication and imbalance on the
table under sparse masks.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..blocks import BlockSet
from ..placement.hierarchical import Placement
from ..placement.heuristics import zigzag_chunk_device
from ..scheduling import fill_divisions, serialize_schedule
from ..sim.cluster import ClusterSpec

__all__ = ["FlexSPPlanner"]


def _causal_pairs(seqlen: int) -> float:
    """The mask-agnostic workload model: causal-mask (q, k) pairs."""
    return seqlen * (seqlen + 1) / 2.0


class FlexSPPlanner:
    """Sequence-granular dynamic DP/CP without token-dependency modeling."""

    name = "flexsp"

    def __init__(self, token_imbalance: float = 0.3,
                 flop_imbalance: float = 0.3) -> None:
        self.token_imbalance = token_imbalance
        self.flop_imbalance = flop_imbalance

    def plan(self, block_set: BlockSet, cluster: ClusterSpec):
        placement = self.place(block_set, cluster)
        schedule = fill_divisions(block_set, placement, num_divisions=4)
        plan = serialize_schedule(schedule)
        plan.meta["planner"] = self.name
        return plan

    # -- placement ---------------------------------------------------------

    def place(self, block_set: BlockSet, cluster: ClusterSpec) -> Placement:
        num_devices = cluster.num_devices
        sequences = block_set.batch.sequences
        total_tokens = sum(seq.seqlen for seq in sequences)
        total_flops = sum(_causal_pairs(seq.seqlen) for seq in sequences)
        token_budget = total_tokens / num_devices * (1 + self.token_imbalance)
        flop_budget = total_flops / num_devices * (1 + self.flop_imbalance)

        token_load = np.zeros(num_devices, dtype=np.float64)
        flop_load = np.zeros(num_devices, dtype=np.float64)
        seq_devices: Dict[int, List[int]] = {}

        order = sorted(
            range(len(sequences)),
            key=lambda i: sequences[i].seqlen,
            reverse=True,
        )
        for seq_index in order:
            seqlen = sequences[seq_index].seqlen
            degree = self._degree_for(seqlen, token_budget, flop_budget,
                                      num_devices)
            devices = self._pick_devices(degree, token_load, flop_load,
                                         cluster)
            seq_devices[seq_index] = devices
            for device in devices:
                token_load[device] += seqlen / degree
                flop_load[device] += _causal_pairs(seqlen) / degree

        slice_device = np.zeros(len(block_set.token_slices), dtype=np.int64)
        chunk_counts: Dict[int, int] = {}
        for token_slice in block_set.token_slices:
            chunk_counts[token_slice.seq_index] = max(
                chunk_counts.get(token_slice.seq_index, 0),
                token_slice.block_index + 1,
            )
        for index, token_slice in enumerate(block_set.token_slices):
            devices = seq_devices[token_slice.seq_index]
            chunk = zigzag_chunk_device(
                token_slice.block_index,
                chunk_counts[token_slice.seq_index],
                len(devices),
            )
            slice_device[index] = devices[chunk]

        slice_lookup = {
            (ts.seq_index, ts.block_index): i
            for i, ts in enumerate(block_set.token_slices)
        }
        comp_device = np.zeros(len(block_set.comp_blocks), dtype=np.int64)
        for index, comp in enumerate(block_set.comp_blocks):
            comp_device[index] = slice_device[
                slice_lookup[(comp.seq_index, comp.q_block)]
            ]

        return Placement(
            block_set=block_set,
            cluster=cluster,
            slice_device=slice_device,
            comp_device=comp_device,
        )

    def _degree_for(
        self,
        seqlen: int,
        token_budget: float,
        flop_budget: float,
        num_devices: int,
    ) -> int:
        """Smallest power-of-two CP degree fitting both budgets."""
        degree = 1
        while degree < num_devices and (
            seqlen / degree > token_budget
            or _causal_pairs(seqlen) / degree > flop_budget
        ):
            degree *= 2
        return min(degree, num_devices)

    def _pick_devices(
        self,
        degree: int,
        token_load: np.ndarray,
        flop_load: np.ndarray,
        cluster: ClusterSpec,
    ) -> List[int]:
        """Least-loaded aligned run of ``degree`` devices.

        Aligned runs keep CP groups inside machines whenever
        ``degree <= devices_per_machine`` — FlexSP's locality rule.
        """
        num_devices = cluster.num_devices
        best_start, best_cost = 0, None
        for start in range(0, num_devices - degree + 1, degree):
            window = slice(start, start + degree)
            cost = (float(flop_load[window].sum()),
                    float(token_load[window].sum()))
            if best_cost is None or cost < best_cost:
                best_start, best_cost = start, cost
        return list(range(best_start, best_start + degree))
