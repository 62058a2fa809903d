"""Masks with more than two attendable ranges per query row.

The paper's executor supports "at most two ranges for each token (for
simplicity of implementation)" and points at FlexAttention/FlashMask
for richer masks (§5).  :class:`~repro.masks.AttendRanges` holds ``K``
ranges per row, so block generation, planning, execution and the
timing simulator work unchanged with masks that need ``K > 2``.

Shipped mask families that genuinely need more than two ranges:

* :class:`DilatedBlockMask` — LongNet-style dilated block attention
  (a causal sliding window plus every ``stride``-th block of history);
* :class:`GlobalTokenMask` — Longformer-style global tokens (periodic
  anchor tokens everyone attends to, plus a causal local window).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spec import AttendRanges, MaskSpec

__all__ = ["DilatedBlockMask", "GlobalTokenMask"]


def _history_and_window(
    window_start: np.ndarray, period: int, width: int
) -> AttendRanges:
    """Row ``i``: ``[a, min(a + width, w))`` for every anchor
    ``a = 0, period, 2 * period, ... < w``, then the causal window
    ``[w, i + 1)``, where ``w = window_start[i]`` — built for all rows at
    once.  ``K`` is the widest row; narrower rows end in empty
    ``[i + 1, i + 1)`` ranges."""
    window_start = np.asarray(window_start, dtype=np.int64)
    seqlen = len(window_start)
    rows = np.arange(seqlen, dtype=np.int64)
    anchors = -(-window_start // period)  # ceil(w / period)
    widest = int(anchors.max(initial=-1)) + 1  # no rows, no ranges
    k = np.arange(widest, dtype=np.int64)[:, None]
    # Anchor k lies below w exactly when k < anchors, so the minimum is
    # the anchor on history slots and w on the window's slot.
    starts = np.where(
        k > anchors, rows + 1, np.minimum(k * period, window_start)
    )
    ends = np.where(
        k < anchors, np.minimum(starts + width, window_start), rows + 1
    )
    return AttendRanges(starts=starts, ends=ends)


@dataclass(frozen=True)
class DilatedBlockMask(MaskSpec):
    """LongNet-style dilated block attention.

    Each token attends causally to a local window of ``window`` tokens,
    plus (beyond the window) every ``stride``-th block of ``block``
    tokens of earlier history.  Range count per row grows as
    ``history / (block * stride)``, typically far beyond two.
    """

    block: int = 64
    stride: int = 4
    window: int = 256
    name = "dilated_block"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if self.block < 1 or self.stride < 1 or self.window < 1:
            raise ValueError("block, stride and window must be positive")

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        window_start = np.maximum(np.arange(seqlen) - self.window + 1, 0)
        return _history_and_window(
            window_start, self.block * self.stride, self.block
        )


@dataclass(frozen=True)
class GlobalTokenMask(MaskSpec):
    """Longformer-style periodic global tokens with a causal local window.

    Tokens at positions divisible by ``every`` are *global*: every later
    token attends to them, and they themselves attend to all earlier
    tokens.  All tokens also attend to a causal window of ``window``
    tokens.  Each scattered global token contributes its own range.
    """

    every: int = 128
    window: int = 256
    name = "global_token"

    def __post_init__(self) -> None:
        """Validate parameters at construction."""
        if self.every < 1 or self.window < 1:
            raise ValueError("every and window must be positive")

    def ranges(self, seqlen: int) -> AttendRanges:
        """Attendable key ranges per query row (see base class)."""
        # A global row attends to its whole prefix: a window from 0.
        rows = np.arange(seqlen)
        window_start = np.where(
            rows % self.every == 0,
            0,
            np.maximum(rows - self.window + 1, 0),
        )
        return _history_and_window(window_start, self.every, 1)
