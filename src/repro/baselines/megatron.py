"""The Megatron-LM (MLM) end-to-end baseline of §7.2.

The paper's baseline is Megatron-LM with its attention module driven by
(enhanced) TransformerEngine context parallelism.  Here that composes
from existing pieces: TE plans the attention, the analytic transformer
cost model prices everything context-independent, and the result is one
full-iteration time with the Fig. 22 decomposition.
"""

from __future__ import annotations

from typing import Optional

from ..blocks import AttentionSpec, BatchSpec, BlockSet, generate_blocks
from ..sim.cluster import ClusterSpec
from ..sim.modelcost import E2EResult, GPT_8B, ModelSpec, e2e_iteration_time
from .transformer_engine import TransformerEnginePlanner

__all__ = ["MegatronBaseline"]


class MegatronBaseline:
    """Full-iteration cost of Megatron + TE context parallelism."""

    name = "mlm"

    def __init__(
        self,
        cluster: ClusterSpec,
        attention: Optional[AttentionSpec] = None,
        model: Optional[ModelSpec] = None,
        block_size: int = 2048,
    ) -> None:
        self.cluster = cluster
        self.attention = attention or AttentionSpec()
        self.model = model or GPT_8B
        self.block_size = block_size
        self._planner = TransformerEnginePlanner()

    def plan(self, block_set: BlockSet, cluster: Optional[ClusterSpec] = None):
        """Attention plan only (planner-protocol compatibility)."""
        return self._planner.plan(block_set, cluster or self.cluster)

    def iteration(self, batch: BatchSpec) -> E2EResult:
        """Price one training iteration of the 8B GPT on ``batch``."""
        block_set = generate_blocks(
            batch, attention=self.attention, block_size=self.block_size
        )
        plan = self._planner.plan(block_set, self.cluster)
        return e2e_iteration_time(plan, model=self.model, cluster=self.cluster)
