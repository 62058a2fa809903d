"""Hierarchical placement of data/computation blocks onto devices."""

from .build import BlockHypergraph, build_block_hypergraph
from .heuristics import dp_pack_labels, zigzag_chunk_device, zigzag_labels
from .hierarchical import (
    STATIC_HEURISTICS,
    Placement,
    PlacementConfig,
    place_blocks,
    static_placement,
)

__all__ = [
    "BlockHypergraph",
    "build_block_hypergraph",
    "zigzag_chunk_device",
    "zigzag_labels",
    "dp_pack_labels",
    "Placement",
    "PlacementConfig",
    "place_blocks",
    "STATIC_HEURISTICS",
    "static_placement",
]
