"""Attention-mask specifications and tile-workload computation."""

from .spec import AttendRanges, MaskSpec
from .library import (
    CausalBlockwiseMask,
    CausalMask,
    LambdaMask,
    MASK_LIBRARY,
    PackedDocumentMask,
    SharedQuestionMask,
    make_mask,
)
from .multirange import (
    DilatedBlockMask,
    GlobalTokenMask,
    MultiRangeMask,
    MultiRanges,
)
from .workload import block_bounds, tile_workload_matrix

__all__ = [
    "AttendRanges",
    "MaskSpec",
    "MultiRanges",
    "MultiRangeMask",
    "DilatedBlockMask",
    "GlobalTokenMask",
    "CausalMask",
    "LambdaMask",
    "CausalBlockwiseMask",
    "SharedQuestionMask",
    "PackedDocumentMask",
    "MASK_LIBRARY",
    "make_mask",
    "block_bounds",
    "tile_workload_matrix",
]
