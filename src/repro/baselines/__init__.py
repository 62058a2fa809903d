"""The paper's baselines: RingFlashAttention (ring / zigzag), LoongTrain,
TransformerEngine and the Megatron-LM end-to-end model.

All four attention baselines lower through the one static ring of
:mod:`.ring`: RingFlashAttention with one head row, TransformerEngine
(and LoongTrain / Megatron on top of it) with one head row per KV group.
"""

from .loongtrain import LoongTrainPlanner, pad_batch
from .megatron import MegatronBaseline
from .ring import RingAttentionPlanner, slice_positions
from .ring_backward import plan_ring_backward, run_ring_forward_backward
from .transformer_engine import TransformerEnginePlanner

__all__ = [
    "RingAttentionPlanner",
    "plan_ring_backward",
    "run_ring_forward_backward",
    "TransformerEnginePlanner",
    "LoongTrainPlanner",
    "MegatronBaseline",
    "pad_batch",
    "slice_positions",
]
