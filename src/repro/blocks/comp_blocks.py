"""Computation-block identities (paper §4.1).

A *computation block* is the attention of one Q tile against one KV
tile for one head group — the unit the scheduler assigns to devices and
divisions.  It exists only where the attention mask has at least one
unmasked (query, key) pair inside the tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .data_blocks import BlockKind, DataBlockId

__all__ = ["CompBlock", "CompBlockArray"]


@dataclass(frozen=True, order=True)
class CompBlock:
    """One tile of attention work.

    Attributes
    ----------
    seq_index, head_group:
        Which sequence / head group the tile belongs to.
    q_block, kv_block:
        Tile indices along the sequence dimension.
    pairs:
        Number of unmasked (query, key) pairs in the tile; the FLOP
        weight is proportional to this.
    """

    seq_index: int
    head_group: int
    q_block: int
    kv_block: int
    pairs: int

    def __post_init__(self) -> None:
        if self.pairs <= 0:
            raise ValueError("computation blocks must contain unmasked pairs")

    @property
    def q_input(self) -> DataBlockId:
        return DataBlockId(BlockKind.Q, self.seq_index, self.q_block, self.head_group)

    @property
    def kv_input(self) -> DataBlockId:
        return DataBlockId(BlockKind.KV, self.seq_index, self.kv_block, self.head_group)

    @property
    def output(self) -> DataBlockId:
        return DataBlockId(BlockKind.O, self.seq_index, self.q_block, self.head_group)

    @property
    def inputs(self) -> tuple:
        return (self.q_input, self.kv_input)


@dataclass(frozen=True, eq=False)
class CompBlockArray:
    """Columnar (structure-of-arrays) view of many computation blocks.

    The planner's hot path works on these flat ``int64`` columns —
    building the placement hypergraph, accounting communication and
    aggregating FLOPs are all single numpy passes.  Individual
    :class:`CompBlock` objects are materialized lazily only where
    object identity is convenient (scheduling, baselines, tests).
    """

    seq_index: np.ndarray
    head_group: np.ndarray
    q_block: np.ndarray
    kv_block: np.ndarray
    pairs: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.seq_index)
        for name in ("head_group", "q_block", "kv_block", "pairs"):
            if len(getattr(self, name)) != n:
                raise ValueError("all CompBlockArray columns must align")
        if n and int(self.pairs.min()) <= 0:
            raise ValueError("computation blocks must contain unmasked pairs")

    def __len__(self) -> int:
        return len(self.seq_index)

    def to_blocks(self) -> List[CompBlock]:
        """Materialize the object view (one CompBlock per row)."""
        return [
            CompBlock(*row)
            for row in zip(
                self.seq_index.tolist(),
                self.head_group.tolist(),
                self.q_block.tolist(),
                self.kv_block.tolist(),
                self.pairs.tolist(),
            )
        ]
