"""Heuristic placements used as partitioner warm starts and baselines.

``zigzag`` reproduces the placement every static-CP framework uses for
causal masks (paper Fig. 4): each sequence is cut into ``2k`` chunks and
device ``i`` takes chunks ``i`` and ``2k - 1 - i``, balancing causal
work.  ``dp_pack`` is pure data parallelism: whole sequences bin-packed
onto devices (LPT), no CP communication at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .build import BlockHypergraph

__all__ = ["zigzag_chunk_device", "zigzag_labels", "dp_pack_labels"]


def zigzag_chunk_device(index: int, total: int, k: int) -> int:
    """Device for slice ``index`` of ``total`` under zigzag over ``k``.

    >>> [zigzag_chunk_device(i, 8, 4) for i in range(8)]
    [0, 1, 2, 3, 3, 2, 1, 0]
    """
    if total < 1 or not 0 <= index < total:
        raise ValueError("index outside sequence")
    chunk = index * 2 * k // total if total > 2 * k else index % (2 * k)
    chunk = min(chunk, 2 * k - 1)
    return chunk if chunk < k else 2 * k - 1 - chunk


def _grouped_slices(
    bhg: BlockHypergraph, subset: Optional[Sequence[int]]
) -> Dict[int, List[int]]:
    """Group slice vertex ids by sequence, in block order.

    ``subset`` (original vertex ids) restricts the view for machine-local
    warm starts; None means the whole graph.
    """
    num_slices = bhg.num_slices
    if subset is None:
        slice_vertices: Iterable[int] = range(num_slices)
    else:
        slice_vertices = [v for v in subset if v < num_slices]
    by_seq: Dict[int, List[int]] = {}
    for vertex in slice_vertices:
        token_slice = bhg.block_set.token_slices[vertex]
        by_seq.setdefault(token_slice.seq_index, []).append(vertex)
    for vertices in by_seq.values():
        vertices.sort(key=lambda v: bhg.block_set.token_slices[v].block_index)
    return by_seq


def _finalize(
    bhg: BlockHypergraph,
    subset: Optional[Sequence[int]],
    slice_label: Dict[int, int],
    k: int,
) -> np.ndarray:
    """Fill computation-block labels (follow Q) and pack the output.

    When ``subset`` is given the output is aligned with
    ``sorted(subset)`` — the vertex order of ``induced_subgraph``.
    Computation labels are filled in one vectorized lookup over the
    columnar block arrays.
    """
    num_slices = bhg.num_slices
    block_set = bhg.block_set
    if subset is None:
        vertices = np.arange(bhg.graph.num_vertices, dtype=np.int64)
    else:
        vertices = np.asarray(sorted(int(v) for v in subset), dtype=np.int64)

    # Dense slice-vertex -> label table; -1 marks slices outside the
    # subset (their machine-local label is unknown here).
    slice_table = np.full(num_slices, -1, dtype=np.int64)
    for vertex, label in slice_label.items():
        slice_table[vertex] = label

    labels = np.zeros(len(vertices), dtype=np.int64)
    is_slice = vertices < num_slices
    slice_labels = slice_table[vertices[is_slice]]
    if (slice_labels < 0).any():
        missing = vertices[is_slice][slice_labels < 0]
        raise KeyError(
            f"slice vertices {missing.tolist()} have no heuristic label"
        )
    labels[is_slice] = slice_labels

    comp_rows = vertices[~is_slice] - num_slices
    if len(comp_rows):
        comp = block_set.comp_array
        seq = comp.seq_index[comp_rows]
        q_block = comp.q_block[comp_rows]
        q_vertex = block_set.slice_indices(seq, q_block)
        comp_labels = slice_table[q_vertex]
        missing = comp_labels < 0
        if missing.any():  # Q lives on another machine; spread deterministically.
            comp_labels[missing] = (
                q_block[missing] + comp.head_group[comp_rows][missing]
            ) % k
        labels[~is_slice] = comp_labels
    return labels


def zigzag_labels(
    bhg: BlockHypergraph, k: int, subset: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Zigzag warm start: static CP's causal-balanced placement."""
    by_seq = _grouped_slices(bhg, subset)
    slice_label: Dict[int, int] = {}
    for vertices in by_seq.values():
        total = len(vertices)
        for position, vertex in enumerate(vertices):
            slice_label[vertex] = zigzag_chunk_device(position, total, k)
    return _finalize(bhg, subset, slice_label, k)


def dp_pack_labels(
    bhg: BlockHypergraph, k: int, subset: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Data-parallel warm start: whole sequences LPT-packed by tokens."""
    by_seq = _grouped_slices(bhg, subset)
    loads = np.zeros(k, dtype=np.int64)
    slice_label: Dict[int, int] = {}
    seq_tokens = {
        seq: sum(bhg.block_set.token_slices[v].tokens for v in vertices)
        for seq, vertices in by_seq.items()
    }
    for seq in sorted(by_seq, key=lambda s: -seq_tokens[s]):
        device = int(np.argmin(loads))
        loads[device] += seq_tokens[seq]
        for vertex in by_seq[seq]:
            slice_label[vertex] = device
    return _finalize(bhg, subset, slice_label, k)
