"""Attention-mask specifications.

DCP never materializes a dense ``[L, L]`` boolean mask during planning.
Instead, every mask is described by contiguous ranges of attendable key
positions per query row: ``K`` ranges per row; the paper's masks need
``K ≤ 2`` (§5: "arrays specifying the index ranges each token should
attend to, with the limitation of at most two ranges for each token").
All four masks evaluated in the paper (causal, lambda, causal
blockwise, shared question) fit in two; the dilated-block and
global-token masks of :mod:`repro.masks.multirange` need more.

A :class:`MaskSpec` yields, for a sequence of length ``L`` and a window
of query rows ``[lo, hi)``, an :class:`AttendRanges` of two integer
arrays ``starts`` and ``ends`` of shape ``[K, hi - lo]``: query row
``lo + c`` may attend to keys in the union of ``[starts[k, c],
ends[k, c])`` over ``k``, and ``K`` is the widest row of the window.
Ranges are half-open; the non-empty ranges of a row are ordered and
non-overlapping, and an empty range has ``start == end``.  Block
generation walks a sequence in windows, so a mask whose ``K`` grows
with ``L`` never holds ranges for all ``L`` rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .workload import tile_workload_matrix

__all__ = ["AttendRanges", "MaskSpec"]

_UNSORTED = "ranges of a row overlap or are unsorted"


@dataclass(frozen=True)
class AttendRanges:
    """Per-row attendable key ranges for the query rows ``[lo, hi)`` of
    one sequence of ``seqlen`` tokens.

    Attributes
    ----------
    starts, ends:
        ``[K, hi - lo]`` integer arrays: row ``lo + c`` attends
        ``[starts[k, c], ends[k, c])`` for each ``k``; a range with
        ``start == end`` is empty (a row with fewer than ``K`` ranges
        pads with empty ones).  Keys are global positions in
        ``[0, seqlen]``.
    lo:
        The window's first query row.
    seqlen:
        The sequence's length ``L``.
    """

    starts: np.ndarray
    ends: np.ndarray
    lo: int
    seqlen: int

    def __post_init__(self) -> None:
        starts, ends = self.starts, self.ends
        if starts.ndim != 2 or starts.shape != ends.shape:
            raise ValueError("starts and ends must share one [K, rows] shape")
        if not 0 <= self.lo <= self.hi <= self.seqlen:
            raise ValueError("window rows outside [0, L]")
        if not starts.size:
            return
        lengths = ends - starts
        if lengths.min() < 0:
            raise ValueError("range start exceeds end")
        if starts.min() < 0 or ends.max() > self.seqlen:
            raise ValueError("range bound outside [0, L]")
        k_ranges, rows = starts.shape
        if k_ranges > 1:
            # Each non-empty range must start at or after the end of the
            # row's previous non-empty range: the running maximum of the
            # row's non-empty ends.  numpy's accumulate along axis 0 runs
            # a K-long inner loop per row, 2-5x slower than a loop over
            # K when rows outnumber K² (the K <= 2 masks), and 20x
            # faster on a window of 32 rows of 250 ranges.
            nonempty = lengths > 0
            if k_ranges * k_ranges <= rows:
                reach = ends[0] * nonempty[0]
                for k in range(1, k_ranges):
                    if (nonempty[k] & (starts[k] < reach)).any():
                        raise ValueError(_UNSORTED)
                    reach = np.where(nonempty[k], ends[k], reach)
            else:
                reach = np.maximum.accumulate(
                    np.where(nonempty[:-1], ends[:-1], 0), axis=0
                )
                if (nonempty[1:] & (starts[1:] < reach)).any():
                    raise ValueError(_UNSORTED)

    @property
    def hi(self) -> int:
        """One past the window's last query row."""
        return self.lo + self.starts.shape[1]

    def max_ranges_per_row(self) -> int:
        """``K``: the widest row's range count."""
        return self.starts.shape[0]

    def dense(self) -> np.ndarray:
        """The window's rows of the boolean mask, ``[hi - lo, L]``
        (tests / tiny sequences only)."""
        return self.tile_mask(self.lo, self.hi, 0, self.seqlen)

    def tile_mask(
        self, q_start: int, q_stop: int, k_start: int, k_stop: int
    ) -> np.ndarray:
        """Boolean mask of one tile: rows ``[q_start, q_stop)`` against
        keys ``[k_start, k_stop)``, in global token coordinates; the
        rows must lie in the window.  This is the method the executor
        uses to reconstruct per-tile masks.

        One difference array: +1 where a clipped range starts, -1 where
        it ends; a row's ranges never overlap, so no cell is counted
        twice and the running sum is the mask.
        """
        if not self.lo <= q_start <= q_stop <= self.hi:
            raise ValueError("tile rows outside the window")
        cols = slice(q_start - self.lo, q_stop - self.lo)
        starts = np.clip(self.starts[:, cols], k_start, k_stop)
        ends = np.clip(self.ends[:, cols], k_start, k_stop)
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

    def ranges(self, seqlen: int, lo: int, hi: int) -> AttendRanges:
        """The attend ranges of query rows ``[lo, hi)`` of a sequence of
        ``seqlen`` tokens, ``0 <= lo <= hi <= seqlen``."""
        raise NotImplementedError

    def dense(self, seqlen: int) -> np.ndarray:
        """Dense boolean mask of shape ``[L, L]`` (small ``L`` only)."""
        return self.ranges(seqlen, 0, seqlen).dense()

    def total_pairs(self, seqlen: int) -> int:
        """Number of unmasked (query, key) pairs for a sequence, counted
        window by window (one tile of ``L`` rows)."""
        bounds = np.array([0, seqlen], dtype=np.int64)
        return int(tile_workload_matrix(self, seqlen, bounds)[0, 0])

    def sparsity_vs_causal(self, seqlen: int) -> float:
        """FLOP ratio of this mask relative to the causal mask (paper §7.3)."""
        causal_pairs = seqlen * (seqlen + 1) // 2
        return self.total_pairs(seqlen) / causal_pairs
