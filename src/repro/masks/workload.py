"""Vectorized tile-workload computation.

Block generation (§4.1) needs, for every (Q-tile, KV-tile) pair of a
sequence, the number of unmasked (query, key) pairs inside the tile —
zero means the computation block is never constructed, and non-zero
values become computation-block FLOP weights for the hypergraph.

The computation is vectorized per KV tile: one pass over the per-row
range arrays gives the overlap of every query row with that KV tile,
and ``np.add.reduceat`` folds rows into Q tiles.  Total cost is
``O(num_kv_tiles * L)`` numpy work rather than ``O(L^2)``.
"""

from __future__ import annotations

import numpy as np

from .spec import AttendRanges

__all__ = ["block_bounds", "tile_workload_matrix"]


def block_bounds(seqlen: int, block_size: int) -> np.ndarray:
    """Token boundaries splitting ``[0, seqlen)`` into blocks.

    Returns an int array ``[num_blocks + 1]`` with the final (possibly
    short) block included.

    >>> block_bounds(10, 4).tolist()
    [0, 4, 8, 10]
    """
    if seqlen < 1:
        raise ValueError("seqlen must be positive")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    bounds = list(range(0, seqlen, block_size))
    bounds.append(seqlen)
    return np.asarray(bounds, dtype=np.int64)


def tile_workload_matrix(ranges: AttendRanges, bounds: np.ndarray) -> np.ndarray:
    """Unmasked (q, k) pair counts per tile.

    Parameters
    ----------
    ranges:
        Per-row attendable ranges of one sequence.
    bounds:
        Shared Q/KV tile boundaries from :func:`block_bounds`.

    Returns
    -------
    np.ndarray
        Integer matrix of shape ``[num_tiles, num_tiles]`` where entry
        ``(qi, ki)`` counts unmasked pairs between Q tile ``qi`` and KV
        tile ``ki``.
    """
    num_tiles = len(bounds) - 1
    starts = bounds[:-1]
    workload = np.zeros((num_tiles, num_tiles), dtype=np.int64)
    for ki in range(num_tiles):
        row_overlap = ranges.overlap_with(int(bounds[ki]), int(bounds[ki + 1]))
        workload[:, ki] = np.add.reduceat(row_overlap, starts)
    return workload
