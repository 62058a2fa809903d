"""Data-block identities and sizes (paper §4.1).

A *data block* is a contiguous slice of one attention tensor (Q, KV or
O) covering one token slice of one sequence and one head group.  With
GQA the natural head-partition unit is a KV group together with the
query heads that share it (the paper sets the baselines' head-parallel
degree to the number of KV groups for the same reason).

Placement constraint (paper §4.1): the Q, KV and O blocks of the same
tokens live on the same device, because the device that owns a token
slice feeds it through the whole transformer layer.  The placement unit
is therefore a :class:`TokenSlice`; individual :class:`DataBlockId`
values are what moves over the wire.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BlockKind", "TokenSlice", "DataBlockId", "AttentionSpec"]

#: Bytes per activation element (bf16).
DTYPE_BYTES = 2


class BlockKind:
    """Tensor kinds a data block can belong to."""

    Q = "q"
    KV = "kv"
    O = "o"

    ALL = (Q, KV, O)


@dataclass(frozen=True, order=True)
class TokenSlice:
    """A contiguous run of tokens of one sequence: the placement unit."""

    seq_index: int
    block_index: int
    start: int
    stop: int

    @property
    def tokens(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.stop <= self.start:
            raise ValueError("token slice must be non-empty")


@dataclass(frozen=True, order=True)
class DataBlockId:
    """Identity of one data block: what communication moves around."""

    kind: str
    seq_index: int
    block_index: int
    head_group: int

    def __post_init__(self) -> None:
        if self.kind not in BlockKind.ALL:
            raise ValueError(f"unknown block kind {self.kind!r}")


@dataclass(frozen=True)
class AttentionSpec:
    """Shape of the attention operator being parallelized.

    Defaults correspond to the paper's micro-benchmark: GQA with 8 query
    heads, 2 KV groups and head dimension 128 (i.e. a 32-head / 8-group
    operator under 4-way tensor parallelism); activations are
    :data:`DTYPE_BYTES` wide.
    """

    num_q_heads: int = 8
    num_kv_groups: int = 2
    head_dim: int = 128

    def __post_init__(self) -> None:
        if self.num_q_heads % self.num_kv_groups != 0:
            raise ValueError("query heads must divide evenly into KV groups")

    @property
    def head_groups(self) -> int:
        """Number of head groups used as block granularity."""
        return self.num_kv_groups

    @property
    def q_heads_per_group(self) -> int:
        return self.num_q_heads // self.num_kv_groups

    def q_block_bytes(self, tokens: int) -> int:
        """Bytes of one Q block (all query heads of one group)."""
        return self.q_heads_per_group * tokens * self.head_dim * DTYPE_BYTES

    def kv_block_bytes(self, tokens: int) -> int:
        """Bytes of one KV block (K and V of one group)."""
        return 2 * tokens * self.head_dim * DTYPE_BYTES

    def o_block_bytes(self, tokens: int) -> int:
        """Bytes of one output block (same shape as the Q block)."""
        return self.q_block_bytes(tokens)

    def block_bytes(self, kind: str, tokens: int) -> int:
        if kind == BlockKind.Q:
            return self.q_block_bytes(tokens)
        if kind == BlockKind.KV:
            return self.kv_block_bytes(tokens)
        if kind == BlockKind.O:
            return self.o_block_bytes(tokens)
        raise ValueError(f"unknown block kind {kind!r}")

    def slice_bytes(self, tokens: int) -> int:
        """Total bytes of all Q/KV/O blocks of one token slice."""
        per_group = (
            self.q_block_bytes(tokens)
            + self.kv_block_bytes(tokens)
            + self.o_block_bytes(tokens)
        )
        return per_group * self.head_groups

    def tile_flops(self, pairs: int) -> int:
        """Forward FLOPs of one computation block covering ``pairs``.

        Two matmuls (QK^T and PV), 2 FLOPs per MAC, over all query heads
        in the group.
        """
        return 4 * pairs * self.head_dim * self.q_heads_per_group
