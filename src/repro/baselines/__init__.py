"""The paper's baselines: RingFlashAttention (ring / zigzag), LoongTrain,
TransformerEngine and the Megatron-LM end-to-end model."""

from .common import (
    contiguous_slice_assignment,
    slices_by_assignment,
    zigzag_slice_assignment,
)
from .loongtrain import LoongTrainPlanner, pad_batch
from .megatron import MegatronBaseline
from .ring import RingAttentionPlanner
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
    "contiguous_slice_assignment",
    "zigzag_slice_assignment",
    "slices_by_assignment",
]
