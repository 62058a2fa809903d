"""Attention-mask specifications.

DCP never materializes a dense ``[L, L]`` boolean mask during planning.
Instead, every mask is described by contiguous ranges of attendable key
positions per query row: ``K`` ranges per row; the paper's masks need
``K ≤ 2`` (§5: "arrays specifying the index ranges each token should
attend to, with the limitation of at most two ranges for each token").
All four masks evaluated in the paper (causal, lambda, causal
blockwise, shared question) fit in two; the dilated-block and
global-token masks of :mod:`repro.masks.multirange` need more.

A :class:`MaskSpec` yields, for a sequence of length ``L``, an
:class:`AttendRanges` of two integer arrays ``starts`` and ``ends`` of
shape ``[K, L]``: query row ``i`` may attend to keys in the union of
``[starts[k, i], ends[k, i])`` over ``k``.  Ranges are half-open; the
non-empty ranges of a row are ordered and non-overlapping, and an empty
range has ``start == end``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AttendRanges", "MaskSpec"]

#: Elements of the ``[K, L]`` arrays :meth:`AttendRanges.overlap_with`
#: reads per column block, so its temporaries stay at 128 KiB.  With
#: whole-array temporaries, tile workloads at 131072 tokens ran up to
#: 4x slower (freshly faulted pages) than with blocks.
_BLOCK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class AttendRanges:
    """Per-row attendable key ranges for one sequence.

    Attributes
    ----------
    starts, ends:
        ``[K, L]`` integer arrays: row ``i`` attends
        ``[starts[k, i], ends[k, i])`` for each ``k``; a range with
        ``start == end`` is empty (a row with fewer than ``K`` ranges
        pads with empty ones).
    """

    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self) -> None:
        starts, ends = self.starts, self.ends
        if starts.ndim != 2 or starts.shape != ends.shape:
            raise ValueError("starts and ends must share one [K, L] shape")
        if not starts.size:
            return
        lengths = ends - starts
        if lengths.min() < 0:
            raise ValueError("range start exceeds end")
        if starts.min() < 0 or ends.max() > self.seqlen:
            raise ValueError("range bound outside [0, L]")
        if len(starts) > 1:
            # Each non-empty range must start at or after the end of the
            # row's previous non-empty range.  A loop over K: numpy's
            # accumulate along axis 0 runs a K-long inner loop per
            # column, 7-25x slower.
            nonempty = lengths > 0
            reach = ends[0] * nonempty[0]
            for k in range(1, len(starts)):
                if (nonempty[k] & (starts[k] < reach)).any():
                    raise ValueError("ranges of a row overlap or are unsorted")
                reach = np.where(nonempty[k], ends[k], reach)

    @property
    def seqlen(self) -> int:
        return self.starts.shape[1]

    def max_ranges_per_row(self) -> int:
        """``K``: the widest row's range count."""
        return self.starts.shape[0]

    def row_count(self) -> np.ndarray:
        """Number of attendable keys per query row (shape ``[L]``)."""
        return (self.ends - self.starts).sum(axis=0)

    def total_pairs(self) -> int:
        """Total number of unmasked (query, key) pairs."""
        return int(self.row_count().sum())

    def overlap_with(self, kv_start: int, kv_stop: int) -> np.ndarray:
        """Per-row count of attendable keys inside ``[kv_start, kv_stop)``.

        Vectorized over all query rows; this is the primitive used to
        compute tile workloads for block generation.
        """
        counts = np.empty(self.seqlen, dtype=np.int64)
        step = max(_BLOCK_ELEMENTS // max(len(self.starts), 1), 1)
        for lo in range(0, self.seqlen, step):
            cols = slice(lo, lo + step)
            overlap = np.minimum(self.ends[:, cols], kv_stop)
            overlap -= np.maximum(self.starts[:, cols], kv_start)
            np.maximum(overlap, 0, out=overlap)
            overlap.sum(axis=0, out=counts[cols])
        return counts

    def dense(self) -> np.ndarray:
        """Materialize the boolean mask (tests / tiny sequences only)."""
        return self.tile_mask(0, self.seqlen, 0, self.seqlen)

    def tile_mask(
        self, q_start: int, q_stop: int, k_start: int, k_stop: int
    ) -> np.ndarray:
        """Boolean mask of one tile: rows ``[q_start, q_stop)`` against
        keys ``[k_start, k_stop)``.  This is the method the executor uses
        to reconstruct per-tile masks from global token coordinates.

        One difference array: +1 where a clipped range starts, -1 where
        it ends; a row's ranges never overlap, so no cell is counted
        twice and the running sum is the mask.
        """
        starts = np.clip(self.starts[:, q_start:q_stop], k_start, k_stop)
        ends = np.clip(self.ends[:, q_start:q_stop], k_start, k_stop)
        keep = ends > starts
        rows = np.nonzero(keep)[1]
        edges = np.zeros((q_stop - q_start, k_stop - k_start + 1), np.int8)
        edges[rows, starts[keep] - k_start] += 1
        edges[rows, ends[keep] - k_start] -= 1
        return edges[:, :-1].cumsum(axis=1, dtype=np.int8) > 0


class MaskSpec:
    """Base class for attention-mask specifications.

    Subclasses implement :meth:`ranges`; everything else (dense
    materialization, workload computation, sparsity) derives from it.
    """

    name = "abstract"

    def ranges(self, seqlen: int) -> AttendRanges:
        raise NotImplementedError

    def dense(self, seqlen: int) -> np.ndarray:
        """Dense boolean mask of shape ``[L, L]`` (small ``L`` only)."""
        return self.ranges(seqlen).dense()

    def total_pairs(self, seqlen: int) -> int:
        """Number of unmasked (query, key) pairs for a sequence."""
        return self.ranges(seqlen).total_pairs()

    def sparsity_vs_causal(self, seqlen: int) -> float:
        """FLOP ratio of this mask relative to the causal mask (paper §7.3)."""
        causal_pairs = seqlen * (seqlen + 1) // 2
        return self.total_pairs(seqlen) / causal_pairs
