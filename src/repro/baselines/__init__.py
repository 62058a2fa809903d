"""The paper's baselines: RingFlashAttention (ring / zigzag), LoongTrain,
TransformerEngine and the Megatron-LM end-to-end model.

All four attention baselines lower through the one static ring of
:mod:`.ring`: RingFlashAttention with one head row, TransformerEngine
(and LoongTrain / Megatron on top of it) with one head row per KV group
the devices split into.  The same lowering emits the RingFlashAttention
backward, which circulates KV together with its dKV accumulator.
"""

from .loongtrain import LoongTrainPlanner, pad_batch
from .megatron import MegatronBaseline
from .ring import (
    RingAttentionPlanner,
    plan_ring_backward,
    run_ring_forward_backward,
    slice_positions,
)
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
