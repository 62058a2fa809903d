"""Mask helpers only the tests need.

The planner reads a mask through its ``ranges``; nothing in the package
builds row ranges by hand, converts a dense boolean matrix, or checks a
range set's invariants.  The tests do all three, through the helpers
here:

* :func:`multi_ranges_from_rows` / :func:`multi_ranges_from_dense` build
  :class:`~repro.masks.MultiRanges` from per-row lists or a matrix;
* :class:`DenseMask` plans an arbitrary explicit boolean mask;
* :func:`check_ranges` raises ``ValueError`` where a mask's
  :class:`~repro.masks.AttendRanges` or ``MultiRanges`` break the
  representation's invariants;
* :func:`mask_workload_matrix` is block generation's tile workload
  straight from a mask;
* :func:`mask_id` names a mask in a parametrized test's id.
"""

import numpy as np

from repro.masks import (
    AttendRanges,
    MultiRangeMask,
    MultiRanges,
    block_bounds,
    tile_workload_matrix,
)


def multi_ranges_from_rows(rows) -> MultiRanges:
    """``MultiRanges`` from ``rows[i] = [(start, end), ...]`` per row."""
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


def multi_ranges_from_dense(mask: np.ndarray) -> MultiRanges:
    """``MultiRanges`` of a boolean ``[L, L]`` matrix."""
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError("mask must be a square boolean matrix")
    length = mask.shape[0]
    edges = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
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


def row_ranges(ranges: MultiRanges, row: int):
    """``(starts, ends)`` arrays of one query row."""
    lo, hi = int(ranges.indptr[row]), int(ranges.indptr[row + 1])
    return ranges.starts[lo:hi], ranges.ends[lo:hi]


class DenseMask(MultiRangeMask):
    """An arbitrary explicit boolean mask.

    The matrix fixes the sequence length; requesting ranges for any
    other length is an error rather than a silent crop.
    """

    name = "dense"

    def __init__(self, mask: np.ndarray) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be a square boolean matrix")
        self.mask = mask
        self._ranges = multi_ranges_from_dense(mask)

    def ranges(self, seqlen: int) -> MultiRanges:
        if seqlen != self.mask.shape[0]:
            raise ValueError(
                f"mask is {self.mask.shape[0]} tokens, requested {seqlen}"
            )
        return self._ranges


def check_ranges(ranges) -> None:
    """Raise ``ValueError`` where ``ranges`` break their invariants."""
    if isinstance(ranges, AttendRanges):
        _check_attend_ranges(ranges)
    else:
        _check_multi_ranges(ranges)


def _check_attend_ranges(ranges: AttendRanges) -> None:
    a_start, a_end = ranges.a_start, ranges.a_end
    b_start, b_end = ranges.b_start, ranges.b_end
    if np.any(a_start > a_end) or np.any(b_start > b_end):
        raise ValueError("range start exceeds end")
    both = (a_end > a_start) & (b_end > b_start)
    if np.any(both & (b_start < a_end)):
        raise ValueError("ranges overlap or are out of order")
    length = ranges.seqlen
    for arr in (a_start, a_end, b_start, b_end):
        if np.any(arr < 0) or np.any(arr > length):
            raise ValueError("range bound outside [0, L]")


def _check_multi_ranges(ranges: MultiRanges) -> None:
    if np.any(np.diff(ranges.indptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if np.any(ranges.starts > ranges.ends):
        raise ValueError("range start exceeds end")
    length = ranges.seqlen
    count = len(ranges.starts)
    if count and (np.any(ranges.starts < 0) or np.any(ranges.ends > length)):
        raise ValueError("range bound outside [0, L]")
    if count > 1:
        row_of = np.repeat(np.arange(length), np.diff(ranges.indptr))
        same_row = row_of[1:] == row_of[:-1]
        ordered = ranges.starts[1:] >= ranges.ends[:-1]
        if np.any(same_row & ~ordered):
            raise ValueError("ranges of a row overlap or are unsorted")


def mask_workload_matrix(mask, seqlen: int, block_size: int) -> np.ndarray:
    """Unmasked-pair counts per (Q tile, KV tile) of one sequence."""
    bounds = block_bounds(seqlen, block_size)
    return tile_workload_matrix(mask.ranges(seqlen), bounds)


def mask_id(mask) -> str:
    """A test id for ``mask``: its name and its parameters."""
    params = ", ".join(
        f"{key}={value}"
        for key, value in vars(mask).items()
        if not key.startswith("_")
    )
    return f"{mask.name}({params})"
