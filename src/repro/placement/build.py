"""Hypergraph construction from a BlockSet (paper §4.2, Fig. 12).

Vertices:

* one *token-group* vertex per :class:`TokenSlice`, weight
  ``[0, bytes]`` aggregating all of its Q/KV/O head-blocks (this encodes
  the paper's constraint that Q/KV/O of the same tokens co-locate);
* one vertex per computation block, weight ``[flops, 0]``.

Hyperedges: one per *data block* (token slice x head group x tensor
kind), pinning the block's home vertex together with every computation
block that reads or writes it; edge weight = the block's bytes.  The
connectivity-minus-one metric of a partition then equals the placement's
total communication volume.

Construction is fully vectorized: every computation block contributes
three integer-encoded (kind, sequence, block, head group) keys, one
``np.unique`` pass groups them into edges (sorted exactly like the old
``sorted(users.items())`` loop), and the CSR pin structure is emitted
with one lexsort — no per-block Python loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..blocks import BlockKind, BlockSet, DataBlockId
from ..hypergraph import Hypergraph

__all__ = ["BlockHypergraph", "build_block_hypergraph"]

#: Integer ranks reproducing DataBlockId's lexicographic kind order
#: (``"kv" < "o" < "q"``).
_KIND_RANK = {BlockKind.KV: 0, BlockKind.O: 1, BlockKind.Q: 2}
_RANK_KIND = {rank: kind for kind, rank in _KIND_RANK.items()}


class _BlockKeyCodec:
    """Pack a data block's ``(kind, seq_index, block_index, head_group)``
    into one ``int64`` for one batch's shape, so ``np.unique`` groups
    blocks in one pass.  Ascending keys follow :class:`DataBlockId`'s
    lexicographic order."""

    def __init__(self, block_set: BlockSet) -> None:
        self.num_seqs = len(block_set.seq_bounds)
        self.max_blocks = (
            int(np.diff(block_set.seq_slice_offset).max())
            if self.num_seqs
            else 0
        )
        self.head_groups = block_set.attention.head_groups

    def encode(self, kind: str, seq, block, group) -> np.ndarray:
        """Scalar keys for (kind, seq, block, group) column arrays."""
        return (
            (_KIND_RANK[kind] * self.num_seqs + seq) * self.max_blocks + block
        ) * self.head_groups + group

    def decode(self, keys: np.ndarray):
        """Inverse of :meth:`encode`: ``(rank, seq, block, group)`` arrays."""
        group = keys % self.head_groups
        rest = keys // self.head_groups
        block = rest % self.max_blocks if self.max_blocks else rest
        rest = rest // self.max_blocks if self.max_blocks else rest
        seq = rest % self.num_seqs if self.num_seqs else rest
        rank = rest // self.num_seqs if self.num_seqs else rest
        return rank, seq, block, group


@dataclass
class BlockHypergraph:
    """A hypergraph plus the block <-> vertex correspondence.

    Vertex numbering: token slices occupy ``[0, len(slices))`` in the
    order of ``block_set.token_slices``; computation blocks follow in
    the order of ``block_set.comp_array``.
    """

    graph: Hypergraph
    block_set: BlockSet
    edge_blocks: List[DataBlockId]

    @property
    def num_slices(self) -> int:
        return len(self.block_set.token_slices)

    def labels_to_devices(self, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Split a vertex label vector into (slice labels, comp labels)."""
        return labels[: self.num_slices], labels[self.num_slices :]

    def induced_subgraph(
        self, vertices: Sequence[int]
    ) -> Tuple[Hypergraph, np.ndarray]:
        """Subgraph on ``vertices``; returns it plus the original ids.

        Edges keep only local pins; edges left with fewer than two pins
        are dropped (they cannot contribute connectivity).
        """
        graph = self.graph
        vertices = np.asarray(sorted(vertices), dtype=np.int64)
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[vertices] = True
        pin_kept = member[graph.edge_pins]
        kept_sizes = np.bincount(
            graph.pin_edge_ids[pin_kept], minlength=graph.num_edges
        )
        edge_kept = kept_sizes >= 2
        final = pin_kept & edge_kept[graph.pin_edge_ids]
        # Pins stay sorted per edge, and the monotone global->local
        # renumbering preserves that invariant.
        pins_flat = np.searchsorted(vertices, graph.edge_pins[final])
        sizes = kept_sizes[edge_kept]
        indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        sub = Hypergraph.from_csr(
            graph.weights[vertices],
            indptr,
            pins_flat,
            graph.edge_weights[edge_kept],
        )
        return sub, vertices


def build_block_hypergraph(block_set: BlockSet) -> BlockHypergraph:
    """Build the placement hypergraph for one batch."""
    slices = block_set.token_slices
    comp = block_set.comp_array
    attention = block_set.attention
    num_slices = len(slices)
    num_comps = len(comp)

    weights = np.zeros((num_slices + num_comps, 2), dtype=np.int64)
    slice_tokens = block_set.slice_tokens
    weights[:num_slices, 1] = attention.slice_bytes(slice_tokens)
    weights[num_slices:, 0] = attention.tile_flops(comp.pairs)

    # Each computation block touches three data blocks; encode their
    # (kind, seq, block, head group) identities as scalar keys whose
    # ascending order equals DataBlockId's lexicographic order.
    codec = _BlockKeyCodec(block_set)
    entry_keys = np.concatenate(
        [
            codec.encode(BlockKind.Q, comp.seq_index, comp.q_block, comp.head_group),
            codec.encode(BlockKind.KV, comp.seq_index, comp.kv_block, comp.head_group),
            codec.encode(BlockKind.O, comp.seq_index, comp.q_block, comp.head_group),
        ]
    ) if num_comps else np.zeros(0, dtype=np.int64)
    unique_keys, edge_of_entry = np.unique(entry_keys, return_inverse=True)
    num_edges = len(unique_keys)

    # Decode each edge's data-block identity.
    rank, seq, block, group = codec.decode(unique_keys)
    home_vertex = block_set.slice_indices(seq, block)

    # CSR pins: the home slice vertex plus every computation vertex
    # touching the block, sorted per edge by one lexsort.
    comp_vertices = num_slices + np.arange(num_comps, dtype=np.int64)
    pin_edges = np.concatenate([np.arange(num_edges, dtype=np.int64),
                                edge_of_entry])
    pin_vertices = np.concatenate([home_vertex,
                                   np.tile(comp_vertices, 3)])
    order = np.lexsort((pin_vertices, pin_edges))
    edge_pins = pin_vertices[order]
    sizes = np.bincount(pin_edges, minlength=num_edges)
    edge_indptr = np.zeros(num_edges + 1, dtype=np.int64)
    np.cumsum(sizes, out=edge_indptr[1:])

    # Edge weights: the data block's bytes by kind.
    tokens = slice_tokens[home_vertex]
    q_bytes = attention.q_block_bytes(tokens)
    kv_bytes = attention.kv_block_bytes(tokens)
    edge_weights = np.where(rank == _KIND_RANK[BlockKind.KV], kv_bytes, q_bytes)

    edge_blocks = [
        DataBlockId(_RANK_KIND[r], s, b, g)
        for r, s, b, g in zip(
            rank.tolist(), seq.tolist(), block.tolist(), group.tolist()
        )
    ]

    graph = Hypergraph.from_csr(weights, edge_indptr, edge_pins, edge_weights)
    return BlockHypergraph(
        graph=graph,
        block_set=block_set,
        edge_blocks=edge_blocks,
    )
