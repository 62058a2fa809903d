"""Masks with arbitrarily many attendable ranges per query row.

The paper's executor supports "at most two ranges for each token (for
simplicity of implementation)" and points at FlexAttention/FlashMask
for richer masks (§5).  This module lifts that limitation on the
reproduction's side: :class:`MultiRanges` stores a CSR-style list of
``[start, end)`` ranges per query row and implements the same protocol
as :class:`~repro.masks.AttendRanges` (``overlap_with``, ``tile_mask``,
``dense``, ``row_count``, ``total_pairs``, ``validate``), so block
generation, planning, execution and the timing simulator all work
unchanged with many-range masks.

Shipped mask families that genuinely need more than two ranges:

* :class:`DilatedBlockMask` — LongNet-style dilated block attention
  (a causal sliding window plus every ``stride``-th block of history);
* :class:`GlobalTokenMask` — Longformer-style global tokens (periodic
  anchor tokens everyone attends to, plus a causal local window);
* :class:`DenseMask` — any explicit boolean matrix, converted to
  row-ranges (the fully general escape hatch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import MaskSpec

__all__ = [
    "MultiRanges",
    "MultiRangeMask",
    "DilatedBlockMask",
    "GlobalTokenMask",
    "DenseMask",
]


@dataclass(frozen=True)
class MultiRanges:
    """CSR-style per-row attendable key ranges.

    Row ``i`` may attend to keys in the union of half-open ranges
    ``[starts[j], ends[j])`` for ``j in [indptr[i], indptr[i+1])``.
    Ranges of a row must be sorted and non-overlapping.
    """

    indptr: np.ndarray  # int64 [L + 1]
    starts: np.ndarray  # int64 [num_ranges]
    ends: np.ndarray  # int64 [num_ranges]

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.ends):
            raise ValueError("starts and ends must have equal length")
        if len(self.indptr) < 1 or self.indptr[-1] != len(self.starts):
            raise ValueError("indptr must close over all ranges")

    @property
    def seqlen(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_ranges(self) -> int:
        return len(self.starts)

    def ranges_of_row(self, row: int):
        """``(starts, ends)`` arrays of one query row."""
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        return self.starts[lo:hi], self.ends[lo:hi]

    def max_ranges_per_row(self) -> int:
        return int(np.diff(self.indptr).max()) if self.seqlen else 0

    # -- the AttendRanges protocol ----------------------------------------

    def row_count(self) -> np.ndarray:
        """Number of attendable keys per query row (shape ``[L]``)."""
        lengths = np.maximum(self.ends - self.starts, 0)
        return self._row_sums(lengths)

    def total_pairs(self) -> int:
        return int(self.row_count().sum())

    def overlap_with(self, kv_start: int, kv_stop: int) -> np.ndarray:
        """Per-row count of attendable keys inside ``[kv_start, kv_stop)``."""
        clipped = np.clip(
            np.minimum(self.ends, kv_stop) - np.maximum(self.starts, kv_start),
            0,
            None,
        )
        return self._row_sums(clipped)

    def tile_mask(
        self, q_start: int, q_stop: int, k_start: int, k_stop: int
    ) -> np.ndarray:
        """Boolean tile mask via a difference-array sweep.

        Cost is ``O(ranges in the row span + tile area)`` — independent
        of how many ranges each row carries.
        """
        q_rows = q_stop - q_start
        width = k_stop - k_start
        lo, hi = int(self.indptr[q_start]), int(self.indptr[q_stop])
        row_of = np.repeat(
            np.arange(q_start, q_stop),
            np.diff(self.indptr[q_start : q_stop + 1]),
        )
        starts = np.clip(self.starts[lo:hi], k_start, k_stop) - k_start
        ends = np.clip(self.ends[lo:hi], k_start, k_stop) - k_start
        keep = ends > starts
        acc = np.zeros((q_rows, width + 1), dtype=np.int32)
        rows_local = row_of[keep] - q_start
        np.add.at(acc, (rows_local, starts[keep]), 1)
        np.add.at(acc, (rows_local, ends[keep]), -1)
        return acc[:, :-1].cumsum(axis=1) > 0

    def dense(self) -> np.ndarray:
        """Materialize the boolean mask (tests / small sequences only)."""
        return self.tile_mask(0, self.seqlen, 0, self.seqlen)

    def validate(self) -> None:
        """Check CSR invariants; raise ``ValueError`` on breach."""
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if np.any(self.starts > self.ends):
            raise ValueError("range start exceeds end")
        length = self.seqlen
        if self.num_ranges and (
            np.any(self.starts < 0) or np.any(self.ends > length)
        ):
            raise ValueError("range bound outside [0, L]")
        if self.num_ranges > 1:
            row_of = np.repeat(np.arange(length), np.diff(self.indptr))
            same_row = row_of[1:] == row_of[:-1]
            ordered = self.starts[1:] >= self.ends[:-1]
            if np.any(same_row & ~ordered):
                raise ValueError("ranges of a row overlap or are unsorted")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(rows) -> "MultiRanges":
        """Build from ``rows[i] = [(start, end), ...]`` per query row."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        starts, ends = [], []
        for i, row in enumerate(rows):
            indptr[i + 1] = indptr[i] + len(row)
            for start, end in row:
                starts.append(start)
                ends.append(end)
        return MultiRanges(
            indptr=indptr,
            starts=np.asarray(starts, dtype=np.int64),
            ends=np.asarray(ends, dtype=np.int64),
        )

    @staticmethod
    def from_dense(mask: np.ndarray) -> "MultiRanges":
        """Convert a boolean ``[L, L]`` matrix to row ranges."""
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square boolean matrix")
        length = mask.shape[0]
        edges = np.diff(
            mask.astype(np.int8), axis=1, prepend=0, append=0
        )
        rise_rows, rise_cols = np.nonzero(edges == 1)
        fall_rows, fall_cols = np.nonzero(edges == -1)
        # Rises and falls alternate within each row, so the nonzero scans
        # (row-major) pair them up positionally.
        assert np.array_equal(rise_rows, fall_rows)
        indptr = np.zeros(length + 1, dtype=np.int64)
        np.cumsum(np.bincount(rise_rows, minlength=length), out=indptr[1:])
        return MultiRanges(
            indptr=indptr,
            starts=rise_cols.astype(np.int64),
            ends=fall_cols.astype(np.int64),
        )

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        prefix = np.concatenate(
            [[0], np.cumsum(values, dtype=np.int64)]
        )
        return prefix[self.indptr[1:]] - prefix[self.indptr[:-1]]


def _history_and_window(
    window_start: np.ndarray, period: int, width: int
) -> MultiRanges:
    """Row ``i``: ``[a, min(a + width, w))`` for every anchor
    ``a = 0, period, 2 * period, ... < w``, then the causal window
    ``[w, i + 1)``, where ``w = window_start[i]`` — built for all rows at
    once."""
    window_start = np.asarray(window_start, dtype=np.int64)
    seqlen = len(window_start)
    anchors = -(-window_start // period)  # ceil(w / period)
    indptr = np.zeros(seqlen + 1, dtype=np.int64)
    np.cumsum(anchors + 1, out=indptr[1:])
    row = np.repeat(np.arange(seqlen, dtype=np.int64), anchors + 1)
    position = np.arange(indptr[-1], dtype=np.int64) - indptr[row]
    history = position < anchors[row]
    starts = np.where(history, position * period, window_start[row])
    ends = np.where(
        history, np.minimum(starts + width, window_start[row]), row + 1
    )
    return MultiRanges(indptr=indptr, starts=starts, ends=ends)


class MultiRangeMask(MaskSpec):
    """Base class for masks whose ``ranges`` returns :class:`MultiRanges`."""

    name = "multirange"

    def ranges(self, seqlen: int) -> MultiRanges:
        raise NotImplementedError

    def max_ranges_per_row(self, seqlen: int) -> int:
        return self.ranges(seqlen).max_ranges_per_row()


class DilatedBlockMask(MultiRangeMask):
    """LongNet-style dilated block attention.

    Each token attends causally to a local window of ``window`` tokens,
    plus (beyond the window) every ``stride``-th block of ``block``
    tokens of earlier history.  Range count per row grows as
    ``history / (block * stride)``, typically far beyond two.
    """

    name = "dilated_block"

    def __init__(self, block: int = 64, stride: int = 4,
                 window: int = 256) -> None:
        if block < 1 or stride < 1 or window < 1:
            raise ValueError("block, stride and window must be positive")
        self.block = block
        self.stride = stride
        self.window = window

    def ranges(self, seqlen: int) -> MultiRanges:
        window_start = np.maximum(np.arange(seqlen) - self.window + 1, 0)
        return _history_and_window(
            window_start, self.block * self.stride, self.block
        )

    def describe(self) -> str:
        return (
            f"dilated_block(block={self.block}, stride={self.stride}, "
            f"window={self.window})"
        )


class GlobalTokenMask(MultiRangeMask):
    """Longformer-style periodic global tokens with a causal local window.

    Tokens at positions divisible by ``every`` are *global*: every later
    token attends to them, and they themselves attend to all earlier
    tokens.  All tokens also attend to a causal window of ``window``
    tokens.  Each scattered global token contributes its own range.
    """

    name = "global_token"

    def __init__(self, every: int = 128, window: int = 256) -> None:
        if every < 1 or window < 1:
            raise ValueError("every and window must be positive")
        self.every = every
        self.window = window

    def ranges(self, seqlen: int) -> MultiRanges:
        # A global row attends to its whole prefix: a window from 0.
        rows = np.arange(seqlen)
        window_start = np.where(
            rows % self.every == 0,
            0,
            np.maximum(rows - self.window + 1, 0),
        )
        return _history_and_window(window_start, self.every, 1)

    def describe(self) -> str:
        return f"global_token(every={self.every}, window={self.window})"


class DenseMask(MultiRangeMask):
    """An arbitrary explicit boolean mask (the general escape hatch).

    The matrix fixes the sequence length; requesting ranges for any
    other length is an error rather than a silent crop.
    """

    name = "dense"

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square boolean matrix")
        self.mask = mask
        self._ranges = MultiRanges.from_dense(mask)

    def ranges(self, seqlen: int) -> MultiRanges:
        if seqlen != self.mask.shape[0]:
            raise ValueError(
                f"mask is {self.mask.shape[0]} tokens, requested {seqlen}"
            )
        return self._ranges

    def describe(self) -> str:
        return f"dense(L={self.mask.shape[0]})"
