"""LoongTrain baseline (paper baseline (ii), [20]).

LoongTrain parallelizes attention at both the head and sequence
dimensions like TransformerEngine, with two differences the paper
highlights:

* **no variable-length support** — every sequence in the batch is
  padded to the batch's longest sequence (§7.1: "we pad the sequences
  to the longest sequence length in each batch"), so computation and
  communication are charged for padding;
* **double-ring communication** with a configurable inner-ring size.
  In our link-level simulator, any cyclic ring order with positions
  laid out contiguously across machines already crosses machine
  boundaries the minimum number of times, so inner-ring sizes are
  near-equivalent and `plan()` models the one contiguous ring (the
  paper likewise reports only the best size of {1, 2, 4, 8}).

Plans built here are *timing-faithful* but not numerics-comparable to
the unpadded batch (the padded tail computes garbage, exactly as real
padding does); use TE or DCP plans for numeric checks.
"""

from __future__ import annotations

from ..blocks import BatchSpec, BlockSet, generate_blocks
from ..sim.cluster import ClusterSpec
from .transformer_engine import TransformerEnginePlanner

__all__ = ["LoongTrainPlanner", "pad_batch"]


def pad_batch(batch: BatchSpec) -> BatchSpec:
    """Pad every sequence to the longest length in the batch."""
    longest = max(seq.seqlen for seq in batch.sequences)
    return BatchSpec.build([longest] * len(batch.sequences),
                           [seq.mask for seq in batch.sequences])


class LoongTrainPlanner:
    """Head + ring CP on padded inputs."""

    name = "loongtrain"

    def plan(self, block_set: BlockSet, cluster: ClusterSpec):
        padded_batch = pad_batch(block_set.batch)
        padded_blocks = generate_blocks(
            padded_batch,
            attention=block_set.attention,
            block_size=block_set.block_size,
        )
        plan = TransformerEnginePlanner().plan(padded_blocks, cluster)
        plan.meta["planner"] = self.name
        plan.meta["padded_tokens"] = padded_blocks.batch.total_tokens
        plan.meta["real_tokens"] = block_set.batch.total_tokens
        return plan
