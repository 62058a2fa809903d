"""Masks with arbitrarily many attendable ranges per query row.

The paper's executor supports "at most two ranges for each token (for
simplicity of implementation)" and points at FlexAttention/FlashMask
for richer masks (§5).  This module lifts that limitation on the
reproduction's side: :class:`MultiRanges` stores a CSR-style list of
``[start, end)`` ranges per query row and implements the same protocol
as :class:`~repro.masks.AttendRanges` (``overlap_with``, ``tile_mask``,
``dense``, ``row_count``, ``total_pairs``), so block
generation, planning, execution and the timing simulator all work
unchanged with many-range masks.

Shipped mask families that genuinely need more than two ranges:

* :class:`DilatedBlockMask` — LongNet-style dilated block attention
  (a causal sliding window plus every ``stride``-th block of history);
* :class:`GlobalTokenMask` — Longformer-style global tokens (periodic
  anchor tokens everyone attends to, plus a causal local window).
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

    # -- constructors -------------------------------------------------------

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
