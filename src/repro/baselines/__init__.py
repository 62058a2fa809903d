"""The paper's baselines: RingFlashAttention (ring / zigzag), LoongTrain
and TransformerEngine.

All four attention baselines lower through the one static ring of
:mod:`.ring`: RingFlashAttention with one head row, TransformerEngine
(and LoongTrain on top of it) with one head row per KV group the
devices split into.  The same lowering emits the RingFlashAttention
backward, which circulates KV together with its dKV accumulator
(``lower_ring(..., Backward)``).
"""

from .loongtrain import LoongTrainPlanner
from .ring import RingAttentionPlanner, slice_positions
from .transformer_engine import TransformerEnginePlanner

__all__ = [
    "RingAttentionPlanner",
    "TransformerEnginePlanner",
    "LoongTrainPlanner",
    "slice_positions",
]
