"""Block generation: from (sequence lengths, masks) to a BlockSet.

This implements §4.1 of the paper: each sequence is cut into token
slices of ``block_size`` tokens; data blocks exist per (slice, head
group, tensor kind); computation blocks exist per (Q tile, KV tile,
head group) wherever the attention mask is not entirely zero inside
the tile.  Masked-out tiles are simply never constructed, which is how
DCP discards unnecessary computation for sparse masks.

Computation blocks are produced directly in columnar form
(:class:`CompBlockArray`): the nonzero tiles of each sequence's
workload matrix are broadcast across head groups with numpy
``repeat``/``tile`` instead of a per-tile Python loop, and the object
list view is materialized lazily for consumers that want
:class:`CompBlock` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..masks import MaskSpec, batch_tile_workloads, block_bounds
from .comp_blocks import CompBlock, CompBlockArray
from .data_blocks import AttentionSpec, DataBlockId, TokenSlice

__all__ = ["SequenceSpec", "BatchSpec", "BlockSet", "generate_blocks"]


@dataclass(frozen=True)
class SequenceSpec:
    """One input sequence: its length and its attention mask."""

    seqlen: int
    mask: MaskSpec

    def __post_init__(self) -> None:
        if self.seqlen < 1:
            raise ValueError("sequences must be non-empty")


@dataclass(frozen=True)
class BatchSpec:
    """A training batch: the unit DCP plans for."""

    sequences: Tuple[SequenceSpec, ...]

    def __post_init__(self) -> None:
        if not self.sequences:
            raise ValueError("batches must contain at least one sequence")

    @property
    def total_tokens(self) -> int:
        return sum(seq.seqlen for seq in self.sequences)

    @staticmethod
    def build(seqlens, masks) -> "BatchSpec":
        """Construct from parallel lists of lengths and masks.

        ``masks`` may be a single :class:`MaskSpec` applied to every
        sequence, or one per sequence.
        """
        if isinstance(masks, MaskSpec):
            masks = [masks] * len(seqlens)
        if len(masks) != len(seqlens):
            raise ValueError("need one mask per sequence")
        return BatchSpec(
            tuple(SequenceSpec(int(n), m) for n, m in zip(seqlens, masks))
        )


@dataclass
class BlockSet:
    """All data and computation blocks of one batch.

    This is the planner's working representation: placement assigns
    :attr:`token_slices` and :attr:`comp_array` rows to devices;
    everything downstream (hypergraph, scheduling, execution) reads
    from here.  ``comp_blocks`` is a lazily-materialized object view of
    the columnar :attr:`comp_array`; aggregate totals are O(1) cached
    reductions over the flat columns.

    Everything it holds is per block, never per token: the attend
    ranges :func:`generate_blocks` reads from each mask, one window of
    rows at a time, to count a tile's pairs are dropped once
    :attr:`seq_workloads` is built, so a plan kept in a cache or a
    pipeline window weighs O(blocks).  The executor, the one reader of
    per-token masks, derives them from :attr:`batch` itself.
    """

    batch: BatchSpec
    attention: AttentionSpec
    block_size: int
    token_slices: List[TokenSlice]
    comp_array: CompBlockArray
    seq_bounds: List[np.ndarray]
    seq_workloads: List[np.ndarray] = field(default_factory=list)

    # -- lazy views ------------------------------------------------------

    _CACHE_ATTRS = (
        "_comp_blocks",
        "_slice_lookup",
        "_slice_tokens",
        "_seq_slice_offset",
        "_totals",
    )

    @property
    def comp_blocks(self) -> List[CompBlock]:
        """Object view of :attr:`comp_array` (built once, on demand)."""
        cached = self.__dict__.get("_comp_blocks")
        if cached is None:
            cached = self.comp_array.to_blocks()
            self.__dict__["_comp_blocks"] = cached
        return cached

    @property
    def slice_tokens(self) -> np.ndarray:
        """Tokens of every slice, aligned with :attr:`token_slices`."""
        cached = self.__dict__.get("_slice_tokens")
        if cached is None:
            cached = np.fromiter(
                (ts.tokens for ts in self.token_slices),
                np.int64,
                len(self.token_slices),
            )
            self.__dict__["_slice_tokens"] = cached
        return cached

    @property
    def seq_slice_offset(self) -> np.ndarray:
        """Prefix sums of per-sequence slice counts.

        Slices are generated sequence-major, block-minor, so slice
        ``(seq, block)`` lives at flat index
        ``seq_slice_offset[seq] + block``.
        """
        cached = self.__dict__.get("_seq_slice_offset")
        if cached is None:
            counts = np.fromiter(
                (len(bounds) - 1 for bounds in self.seq_bounds),
                np.int64,
                len(self.seq_bounds),
            )
            cached = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=cached[1:])
            self.__dict__["_seq_slice_offset"] = cached
        return cached

    def slice_indices(
        self, seq_index: np.ndarray, block_index: np.ndarray
    ) -> np.ndarray:
        """Vectorized (seq, block) -> flat slice index lookup."""
        return self.seq_slice_offset[seq_index] + block_index

    def _lookup(self) -> Dict[Tuple[int, int], TokenSlice]:
        cached = self.__dict__.get("_slice_lookup")
        if cached is None:
            cached = {
                (ts.seq_index, ts.block_index): ts for ts in self.token_slices
            }
            self.__dict__["_slice_lookup"] = cached
        return cached

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._CACHE_ATTRS:
            state.pop(name, None)
        return state

    # -- lookups ---------------------------------------------------------

    def slice_of(self, seq_index: int, block_index: int) -> TokenSlice:
        return self._lookup()[(seq_index, block_index)]

    def slice_for_block(self, block: DataBlockId) -> TokenSlice:
        return self.slice_of(block.seq_index, block.block_index)

    def block_bytes(self, block: DataBlockId) -> int:
        tokens = self.slice_for_block(block).tokens
        return self.attention.block_bytes(block.kind, tokens)

    def tile_pairs(self, seq_index: int, q_block: int, kv_block: int) -> int:
        """Unmasked pairs of one tile (zero for fully masked tiles)."""
        return int(self.seq_workloads[seq_index][q_block, kv_block])

    # -- aggregates ------------------------------------------------------

    def _aggregate(self) -> Tuple[int, int, int]:
        cached = self.__dict__.get("_totals")
        if cached is None:
            pairs = int(self.comp_array.pairs.sum())
            flops = int(self.attention.tile_flops(self.comp_array.pairs).sum())
            nbytes = int(self.attention.slice_bytes(self.slice_tokens).sum())
            cached = (pairs, flops, nbytes)
            self.__dict__["_totals"] = cached
        return cached

    @property
    def total_pairs(self) -> int:
        return self._aggregate()[0]

    @property
    def total_flops(self) -> int:
        return self._aggregate()[1]

    @property
    def total_bytes(self) -> int:
        return self._aggregate()[2]

    def summary(self) -> str:
        return (
            f"BlockSet(seqs={len(self.batch.sequences)}, "
            f"tokens={self.batch.total_tokens}, block={self.block_size}, "
            f"slices={len(self.token_slices)}, comps={len(self.comp_array)})"
        )


def generate_blocks(
    batch: BatchSpec,
    attention: Optional[AttentionSpec] = None,
    block_size: int = 1024,
) -> BlockSet:
    """Generate data and computation blocks for a batch (paper §4.1).

    Parameters
    ----------
    batch:
        Sequences with their masks.
    attention:
        Attention operator shape; defaults to the paper's GQA spec.
    block_size:
        Token granularity ``B`` along the sequence dimension (the
        paper's main hyper-parameter, searched over 512..4096).
    """
    attention = attention or AttentionSpec()
    head_groups = attention.head_groups
    group_ids = np.arange(head_groups, dtype=np.int64)
    token_slices: List[TokenSlice] = []
    seq_bounds = [
        block_bounds(seq.seqlen, block_size) for seq in batch.sequences
    ]
    # One row per Q tile of the batch, sequence-major; each sequence's
    # matrix is a view of its rows.
    workloads = batch_tile_workloads(
        [
            (seq.mask, seq.seqlen, bounds)
            for seq, bounds in zip(batch.sequences, seq_bounds)
        ]
    )
    tiles = np.array([len(bounds) - 1 for bounds in seq_bounds], np.int64)
    first_row = np.cumsum(tiles) - tiles
    seq_workloads = [
        workloads[row : row + n, :n]
        for row, n in zip(first_row.tolist(), tiles.tolist())
    ]
    for seq_index, bounds in enumerate(seq_bounds):
        for block_index, (start, stop) in enumerate(
            zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ):
            token_slices.append(
                TokenSlice(
                    seq_index=seq_index,
                    block_index=block_index,
                    start=start,
                    stop=stop,
                )
            )

    # Row-major nonzeros: sequence-major, then Q tile, then KV tile (a
    # sequence's columns past its tiles are zero).  Broadcast the
    # head-group dimension group-minor.
    rows, kv_idx = np.nonzero(workloads)
    pairs = workloads[rows, kv_idx]
    seq_idx = np.repeat(np.arange(len(tiles), dtype=np.int64), tiles)[rows]
    q_idx = rows - first_row[seq_idx]
    comp_array = CompBlockArray(
        seq_index=np.repeat(seq_idx, head_groups),
        head_group=np.tile(group_ids, len(rows)),
        q_block=np.repeat(q_idx, head_groups),
        kv_block=np.repeat(kv_idx, head_groups),
        pairs=np.repeat(pairs, head_groups),
    )
    return BlockSet(
        batch=batch,
        attention=attention,
        block_size=block_size,
        token_slices=token_slices,
        comp_array=comp_array,
        seq_bounds=seq_bounds,
        seq_workloads=seq_workloads,
    )
