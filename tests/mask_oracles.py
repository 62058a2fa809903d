"""Mask helpers only the tests need.

The planner reads a mask through its ``ranges``; nothing in the package
builds row ranges by hand or converts a dense boolean matrix.  The
tests do both, through the helpers here:

* :func:`ranges_from_rows` / :func:`ranges_from_dense` build
  :class:`~repro.masks.AttendRanges` from per-row lists or a matrix;
* :class:`DenseMask` plans an arbitrary explicit boolean mask;
* :func:`mask_workload_matrix` is block generation's tile workload
  straight from a mask;
* :func:`mask_id` names a mask in a parametrized test's id.
"""

import numpy as np

from repro.masks import (
    AttendRanges,
    MaskSpec,
    block_bounds,
    tile_workload_matrix,
)


def ranges_from_rows(rows) -> AttendRanges:
    """``AttendRanges`` from ``rows[i] = [(start, end), ...]`` per row;
    rows shorter than the widest end in empty ``[0, 0)`` ranges."""
    width = max((len(row) for row in rows), default=0)
    bounds = np.zeros((2, width, len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, (start, end) in enumerate(row):
            bounds[:, k, i] = start, end
    return AttendRanges(starts=bounds[0], ends=bounds[1])


def ranges_from_dense(mask: np.ndarray) -> AttendRanges:
    """``AttendRanges`` of a boolean ``[L, L]`` matrix: one range per
    run of ``True`` in a row, ``K`` the most runs of any row."""
    if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
        raise ValueError("mask must be a square boolean matrix")
    length = mask.shape[0]
    edges = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    rise_rows, rise_cols = np.nonzero(edges == 1)
    fall_rows, fall_cols = np.nonzero(edges == -1)
    # Rises and falls alternate within each row, so the nonzero scans
    # (row-major) pair them up positionally.
    assert np.array_equal(rise_rows, fall_rows)
    per_row = np.bincount(rise_rows, minlength=length)
    first = np.concatenate([[0], np.cumsum(per_row)[:-1]])
    slot = np.arange(len(rise_rows)) - first[rise_rows]
    width = int(per_row.max(initial=0))
    starts = np.zeros((width, length), dtype=np.int64)
    ends = np.zeros((width, length), dtype=np.int64)
    starts[slot, rise_rows] = rise_cols
    ends[slot, rise_rows] = fall_cols
    return AttendRanges(starts=starts, ends=ends)


def row_ranges(ranges: AttendRanges, row: int):
    """``(starts, ends)`` arrays of one query row's non-empty ranges."""
    starts, ends = ranges.starts[:, row], ranges.ends[:, row]
    keep = ends > starts
    return starts[keep], ends[keep]


class DenseMask(MaskSpec):
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
        self._ranges = ranges_from_dense(mask)

    def ranges(self, seqlen: int) -> AttendRanges:
        if seqlen != self.mask.shape[0]:
            raise ValueError(
                f"mask is {self.mask.shape[0]} tokens, requested {seqlen}"
            )
        return self._ranges


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
