"""Attention-mask specifications and tile-workload computation.

Every mask yields one :class:`AttendRanges` per window of query rows:
``K`` ranges per row; the paper's masks need ``K ≤ 2`` (§5).
"""

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
from .multirange import DilatedBlockMask, GlobalTokenMask
from .workload import batch_tile_workloads, block_bounds, tile_workload_matrix

__all__ = [
    "AttendRanges",
    "MaskSpec",
    "DilatedBlockMask",
    "GlobalTokenMask",
    "CausalMask",
    "LambdaMask",
    "CausalBlockwiseMask",
    "SharedQuestionMask",
    "PackedDocumentMask",
    "MASK_LIBRARY",
    "make_mask",
    "batch_tile_workloads",
    "block_bounds",
    "tile_workload_matrix",
]
