"""Vectorized tile-workload computation.

Block generation (§4.1) needs, for every (Q-tile, KV-tile) pair of a
sequence, the number of unmasked (query, key) pairs inside the tile —
zero means the computation block is never constructed, and non-zero
values become computation-block FLOP weights for the hypergraph.

Each sequence is walked in windows of query rows: a window's ranges
(:meth:`~repro.masks.MaskSpec.ranges`) hold ``K × rows`` elements, about
``_BLOCK_ELEMENTS`` at most, never ``K × L``.  Every range ``[s, e)`` of
a row in Q tile ``q`` counts its keys below each tile bound ``b_j``,
``clip(b_j, s, e) - s``, in one prefix pass: it adds +1 / ``-s`` at the
first bound at or above ``s`` and -1 / ``+e`` at the first bound at or
above ``e``.  With ``A`` the running ±1 counts and ``C`` the running
``-s`` / ``+e`` terms along the bounds, ``A * b_j + C`` is the sum over
the tile's ranges (a bound equal to ``s`` adds ``b_j - s = 0``), and its
differences along ``j`` are the tile workloads, in exact integer
arithmetic; an empty range adds nothing.  Total cost is ``O(K * L)``
numpy work per sequence, and the windows of a whole batch share one
scatter.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from .spec import MaskSpec

__all__ = ["block_bounds", "batch_tile_workloads", "tile_workload_matrix"]

#: Range elements (``K × rows``) a window aims at, so its arrays stay
#: near 128 KiB.  Whole-sequence ``[K, L]`` ranges cost O(L²) memory
#: for masks whose ``K`` grows with ``L`` (1–2 GiB per 131 072-token
#: sequence).
_BLOCK_ELEMENTS = 1 << 14
#: Pending range elements the scatter folds at once: the windows of a
#: batch's short sequences share a fold, a long sequence's windows fold
#: one by one.  Folding only at ``_BLOCK_ELEMENTS`` keeps four pending
#: arrays and their copies alive at once: the ``stream_replan`` ledger's
#: peak RSS then reads 0.4 MB above reading each sequence's ranges whole.
_FOLD_ELEMENTS = _BLOCK_ELEMENTS // 4
#: Rows a sequence's first window aims at, before any of its ``K`` is
#: known: one window for most sequences, and 1 MiB of ranges for a mask
#: that grows one range per 128 rows.
_FIRST_ROWS = _BLOCK_ELEMENTS // 4


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


def tile_workload_matrix(
    mask: "MaskSpec", seqlen: int, bounds: np.ndarray
) -> np.ndarray:
    """Unmasked (q, k) pair counts per tile of one sequence.

    Parameters
    ----------
    mask, seqlen:
        The sequence's mask and length.
    bounds:
        Shared Q/KV tile boundaries from :func:`block_bounds`.

    Returns
    -------
    np.ndarray
        ``[num_tiles, num_tiles]`` int64 matrix whose entry
        ``(qi, ki)`` counts unmasked pairs between Q tile ``qi`` and KV
        tile ``ki``.
    """
    return batch_tile_workloads([(mask, seqlen, bounds)])


def batch_tile_workloads(
    sequences: Sequence[Tuple["MaskSpec", int, np.ndarray]],
) -> np.ndarray:
    """:func:`tile_workload_matrix` of every ``(mask, seqlen, bounds)``
    sequence of a batch, in one prefix pass.

    Returns one int64 matrix with a row per Q tile of the batch,
    sequence-major, and a column per KV tile of the longest sequence:
    sequence ``i``'s matrix is rows ``[r_i, r_i + n_i)``, columns
    ``[0, n_i)``, with ``r_i`` the tiles of the sequences before it;
    its columns from ``n_i`` on are zero.
    """
    tiles = [len(bounds) - 1 for _, _, bounds in sequences]
    blocks = [int(bounds[1]) for _, _, bounds in sequences]
    # A row's columns are the bounds j = 0..n_i, and past n_i (shorter
    # sequences) every bound is L.
    width = max(tiles, default=0) + 1
    scatter = _Scatter(sum(tiles) * width)
    row = 0
    for (mask, seqlen, _), block, n in zip(sequences, blocks, tiles):
        # Every tile but the last is ``block`` tokens long, so the first
        # bound at or above key x is ceil(x / block); shifting a row's
        # keys by its first flat index times ``block`` lands that index
        # in the row's part of the scatter.
        lo, widest = 0, 1
        while lo < seqlen:
            hi = _window_end(seqlen, block, lo, widest)
            ranges = mask.ranges(seqlen, lo, hi)
            q_tile = lo // block
            if hi > (q_tile + 1) * block:  # a window of several tiles
                q_tile = np.arange(lo, hi) // block
            shift = (q_tile + row) * width * block + block - 1
            scatter.add(
                (ranges.starts + shift) // block,
                (ranges.ends + shift) // block,
                ranges,
            )
            lo, widest = hi, max(ranges.max_ranges_per_row(), widest)
        row += n
    counts, offsets = (
        terms.reshape(-1, width).cumsum(axis=1) for terms in scatter.fold()
    )
    # Bound j of a row's sequence: min(j * block, L).
    seqlens = [seqlen for _, seqlen, _ in sequences]
    row_block, row_seqlen = (
        np.repeat(np.array(values, dtype=np.int64), tiles)[:, None]
        for values in (blocks, seqlens)
    )
    counts *= np.minimum(np.arange(width) * row_block, row_seqlen)
    counts += offsets
    return np.diff(counts, axis=1)


class _Scatter:
    """The prefix pass's scatter: flat ``[Q tile, bound]`` indices and
    their ``±1`` / ``-s`` / ``+e`` terms, folded in chunks of at least
    ``_FOLD_ELEMENTS`` range elements."""

    def __init__(self, size: int) -> None:
        self.counts = np.zeros(size, dtype=np.int64)
        self.offsets = np.zeros(size, dtype=np.int64)
        self.pending: list = []
        self.elements = 0

    def add(self, at_start, at_end, ranges) -> None:
        self.pending.append((at_start, at_end, ranges.starts, ranges.ends))
        self.elements += ranges.starts.size
        if self.elements >= _FOLD_ELEMENTS:
            self._flush()

    def _flush(self) -> None:
        if not self.pending:
            return
        at_start, at_end, starts, ends = (
            np.concatenate(parts, axis=None) for parts in zip(*self.pending)
        )
        np.add.at(self.counts, at_start, 1)
        np.subtract.at(self.counts, at_end, 1)
        np.subtract.at(self.offsets, at_start, starts)
        np.add.at(self.offsets, at_end, ends)
        self.pending.clear()
        self.elements = 0

    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """The scattered ``A`` and ``C`` increments, every chunk in."""
        self._flush()
        return self.counts, self.offsets


def _window_end(seqlen: int, block: int, lo: int, widest: int) -> int:
    """End of the row window that starts at ``lo``, when the rows below
    ``lo`` had at most ``widest`` ranges.

    A window takes as many rows as keep ``K × rows`` within
    ``_BLOCK_ELEMENTS``, assuming a row's range count grows at most in
    proportion to its index: whole Q tiles when at least the rest of the
    current tile fits, else part of it.  The first window, whose ``K``
    is unknown, aims at ``_FIRST_ROWS`` rows.
    """
    if lo == 0:
        stop = _FIRST_ROWS
    else:
        budget = 4 * _BLOCK_ELEMENTS * lo // widest
        stop = lo + max((math.isqrt(lo * lo + budget) - lo) // 2, 1)
    tile_end = (lo // block + 1) * block
    if stop < tile_end:
        return min(stop, seqlen)
    return min(stop // block * block, seqlen)
