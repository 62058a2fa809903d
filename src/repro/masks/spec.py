"""Attention-mask specifications.

DCP never materializes a dense ``[L, L]`` boolean mask during planning.
Instead, every mask is described by *at most two contiguous ranges of
attendable key positions per query row* — the same restriction the
paper's executor imposes ("arrays specifying the index ranges each token
should attend to, with the limitation of at most two ranges for each
token", §5).  All four masks evaluated in the paper (causal, lambda,
causal blockwise, shared question) fit this representation.

A :class:`MaskSpec` yields, for a sequence of length ``L``, four integer
arrays ``(a_start, a_end, b_start, b_end)`` of shape ``[L]``: query row
``i`` may attend to keys in ``[a_start[i], a_end[i]) ∪ [b_start[i],
b_end[i])``.  Ranges are half-open, non-overlapping, ordered (``a``
before ``b``), and an empty range has ``start == end``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AttendRanges", "MaskSpec"]


@dataclass(frozen=True)
class AttendRanges:
    """Per-row attendable key ranges for one sequence.

    Attributes
    ----------
    a_start, a_end:
        First (earlier) range per query row, shape ``[L]``, half-open.
    b_start, b_end:
        Second (later) range per query row; empty where ``start == end``.
    """

    a_start: np.ndarray
    a_end: np.ndarray
    b_start: np.ndarray
    b_end: np.ndarray

    def __post_init__(self) -> None:
        length = len(self.a_start)
        for arr in (self.a_end, self.b_start, self.b_end):
            if len(arr) != length:
                raise ValueError("all range arrays must share one length")

    @property
    def seqlen(self) -> int:
        return len(self.a_start)

    def row_count(self) -> np.ndarray:
        """Number of attendable keys per query row (shape ``[L]``)."""
        first = np.maximum(self.a_end - self.a_start, 0)
        second = np.maximum(self.b_end - self.b_start, 0)
        return first + second

    def total_pairs(self) -> int:
        """Total number of unmasked (query, key) pairs."""
        return int(self.row_count().sum())

    def overlap_with(self, kv_start: int, kv_stop: int) -> np.ndarray:
        """Per-row count of attendable keys inside ``[kv_start, kv_stop)``.

        Vectorized over all query rows; this is the primitive used to
        compute tile workloads for block generation.
        """
        first = np.clip(
            np.minimum(self.a_end, kv_stop) - np.maximum(self.a_start, kv_start),
            0,
            None,
        )
        second = np.clip(
            np.minimum(self.b_end, kv_stop) - np.maximum(self.b_start, kv_start),
            0,
            None,
        )
        return first + second

    def dense(self) -> np.ndarray:
        """Materialize the boolean mask (tests / tiny sequences only)."""
        return self.tile_mask(0, self.seqlen, 0, self.seqlen)

    def tile_mask(
        self, q_start: int, q_stop: int, k_start: int, k_stop: int
    ) -> np.ndarray:
        """Boolean mask of one tile: rows ``[q_start, q_stop)`` against
        keys ``[k_start, k_stop)``.  This is the method the executor uses
        to reconstruct per-tile masks from global token coordinates."""
        cols = np.arange(k_start, k_stop)[None, :]
        rows = slice(q_start, q_stop)
        in_a = (cols >= self.a_start[rows, None]) & (
            cols < self.a_end[rows, None]
        )
        in_b = (cols >= self.b_start[rows, None]) & (
            cols < self.b_end[rows, None]
        )
        return in_a | in_b


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
