"""Mask helpers only the tests need.

The planner reads a mask through its ``ranges``; nothing in the package
builds row ranges by hand or converts a dense boolean matrix.  The
tests do both, through the helpers here:

* :func:`ranges_from_rows` / :func:`ranges_from_dense` build
  :class:`~repro.masks.AttendRanges` from per-row lists or a matrix;
* :func:`nonempty_ranges` lists a window's non-empty ranges row by row;
* :class:`DenseMask` plans an arbitrary explicit boolean mask;
* :func:`mask_workload_matrix` is block generation's tile workload
  straight from a mask, and :func:`small_windows` makes it read a
  sequence in windows of a few rows;
* :func:`mask_id` names a mask in a parametrized test's id.
"""

import contextlib

import numpy as np

from repro.masks import (
    AttendRanges,
    MaskSpec,
    block_bounds,
    tile_workload_matrix,
)
from repro.masks import workload as workload_module


def ranges_from_rows(rows) -> AttendRanges:
    """``AttendRanges`` of a whole sequence from ``rows[i] = [(start,
    end), ...]`` per row; rows shorter than the widest end in empty
    ``[0, 0)`` ranges."""
    width = max((len(row) for row in rows), default=0)
    bounds = np.zeros((2, width, len(rows)), dtype=np.int64)
    for i, row in enumerate(rows):
        for k, (start, end) in enumerate(row):
            bounds[:, k, i] = start, end
    return AttendRanges(bounds[0], bounds[1], 0, len(rows))


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
    return AttendRanges(starts, ends, 0, length)


def row_ranges(ranges: AttendRanges, row: int):
    """``(starts, ends)`` arrays of one query row's non-empty ranges
    (``row`` counts from the window's first row)."""
    starts, ends = ranges.starts[:, row], ranges.ends[:, row]
    keep = ends > starts
    return starts[keep], ends[keep]


def nonempty_ranges(ranges: AttendRanges) -> np.ndarray:
    """``[n, 3]`` rows ``(query row, start, end)`` of every non-empty
    range, by query row (global), then in the row's order."""
    keep = (ranges.ends > ranges.starts).T
    rows, ks = np.nonzero(keep)
    return np.stack(
        [rows + ranges.lo, ranges.starts[ks, rows], ranges.ends[ks, rows]],
        axis=1,
    )


@contextlib.contextmanager
def small_windows(elements: int, first_rows: int):
    """Block generation aims its row windows at ``elements`` range
    elements (``K × rows``), and a sequence's first window at
    ``first_rows`` rows, so a short sequence is read in windows that
    split its tiles; its scatter folds every ``elements`` too."""
    names = ("_BLOCK_ELEMENTS", "_FOLD_ELEMENTS", "_FIRST_ROWS")
    saved = [getattr(workload_module, name) for name in names]
    for name, value in zip(names, (elements, elements, first_rows)):
        setattr(workload_module, name, value)
    try:
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(workload_module, name, value)


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

    def ranges(self, seqlen: int, lo: int, hi: int) -> AttendRanges:
        if seqlen != self.mask.shape[0]:
            raise ValueError(
                f"mask is {self.mask.shape[0]} tokens, requested {seqlen}"
            )
        # Each row's ranges fill slots 0, 1, ...: the window's K is its
        # widest row's count.
        starts, ends = self._ranges.starts, self._ranges.ends
        widest = int((ends[:, lo:hi] > starts[:, lo:hi]).sum(0).max(initial=0))
        return AttendRanges(
            starts[:widest, lo:hi], ends[:widest, lo:hi], lo, seqlen
        )


def mask_workload_matrix(mask, seqlen: int, block_size: int) -> np.ndarray:
    """Unmasked-pair counts per (Q tile, KV tile) of one sequence."""
    return tile_workload_matrix(mask, seqlen, block_bounds(seqlen, block_size))


def mask_id(mask) -> str:
    """A test id for ``mask``: its name and its parameters."""
    params = ", ".join(
        f"{key}={value}"
        for key, value in vars(mask).items()
        if not key.startswith("_")
    )
    return f"{mask.name}({params})"
