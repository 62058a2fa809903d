"""Tests for repro.masks.spec: AttendRanges invariants and queries."""

import numpy as np
import pytest

from repro.masks import AttendRanges, CausalMask


def make_ranges(starts, ends, lo=0, seqlen=None):
    """``AttendRanges`` from ``[K][rows]`` nested lists: rows from
    ``lo`` of a sequence of ``seqlen`` tokens (default ``lo + rows``)."""
    starts = np.asarray(starts, dtype=np.int64)
    if seqlen is None:
        seqlen = lo + starts.shape[-1]
    return AttendRanges(
        starts, np.asarray(ends, dtype=np.int64), lo, seqlen
    )


class TestAttendRanges:
    def test_row_count_single_range(self):
        r = make_ranges([[0, 0, 0]], [[1, 2, 3]])
        assert r.dense().sum(axis=1).tolist() == [1, 2, 3]
        assert r.max_ranges_per_row() == 1

    def test_row_count_two_ranges(self):
        r = make_ranges([[0, 0, 0, 0, 0, 0], [3, 4, 0, 0, 0, 0]],
                        [[2, 1, 1, 1, 1, 1], [5, 6, 0, 0, 0, 0]])
        assert r.dense().sum(axis=1).tolist() == [4, 3, 1, 1, 1, 1]
        assert r.max_ranges_per_row() == 2

    def test_total_pairs(self):
        r = make_ranges([[0, 0, 0]], [[2, 3, 0]])
        assert r.dense().sum() == 5

    def test_dense_slice_clips_to_keys(self):
        r = make_ranges([[0] * 10], [[10] * 10])
        assert r.tile_mask(0, 10, 3, 7).sum(axis=1).tolist() == [4] * 10
        assert r.tile_mask(0, 10, 0, 10).sum(axis=1).tolist() == [10] * 10
        assert r.tile_mask(0, 10, 10, 10).sum(axis=1).tolist() == [0] * 10

    def test_dense_slice_second_range(self):
        r = make_ranges([[0] * 8, [5] * 8], [[2] * 8, [8] * 8])
        assert r.tile_mask(0, 8, 0, 8).sum(axis=1).tolist() == [5] * 8
        assert r.tile_mask(0, 8, 4, 6).sum(axis=1).tolist() == [1] * 8

    def test_dense_matches_ranges(self):
        r = make_ranges([[0, 0, 0, 0], [3, 2, 0, 0]],
                        [[2, 1, 4, 0], [4, 4, 0, 0]])
        assert r.dense().tolist() == [
            [True, True, False, True],
            [True, False, True, True],
            [True, True, True, True],
            [False, False, False, False],
        ]

    def test_validate_rejects_reversed_range(self):
        with pytest.raises(ValueError, match="start exceeds"):
            make_ranges([[2, 0]], [[1, 0]])

    def test_validate_rejects_overlapping_ranges(self):
        with pytest.raises(ValueError, match="overlap"):
            make_ranges([[0] * 5, [2] * 5], [[3] * 5, [5] * 5])
        with pytest.raises(ValueError, match="unsorted"):
            make_ranges([[3] * 5, [0] * 5], [[5] * 5, [2] * 5])

    @pytest.mark.parametrize("rows", [1, 3, 9, 40])
    def test_validate_rejects_overlap_after_empty_ranges(self, rows):
        """Few rows of many ranges (K² > rows) and many rows of few
        take different checks; both look past empty ranges."""
        # Row 0 of each: [0, 4), two empty ranges, then [2, 6).
        starts = np.zeros((4, rows), np.int64)
        ends = np.zeros((4, rows), np.int64)
        ends[0] = 1  # the other rows attend [0, 1)
        starts[:, 0], ends[:, 0] = [0, 7, 0, 2], [4, 7, 0, 6]
        with pytest.raises(ValueError, match="overlap"):
            make_ranges(starts, ends, seqlen=max(rows, 8))
        starts[3, 0] = 4  # [4, 6) follows [0, 4)
        make_ranges(starts, ends, seqlen=max(rows, 8))

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            make_ranges([[0]], [[2]])  # end 2 > L = 1
        with pytest.raises(ValueError, match="outside"):
            make_ranges([[-1]], [[0]])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_ranges([[0, 0]], [[1]])

    def test_seqlen(self):
        r = make_ranges([[0] * 5], [[1] * 5])
        assert (r.lo, r.hi, r.seqlen) == (0, 5, 5)


class TestWindow:
    """Ranges of the rows ``[lo, hi)`` keep global coordinates."""

    def test_keys_bounded_by_sequence_not_window(self):
        # Rows 6 and 7 of a 10-token sequence attend up to key 10.
        r = make_ranges([[0, 5]], [[10, 10]], lo=6, seqlen=10)
        assert (r.lo, r.hi) == (6, 8)
        with pytest.raises(ValueError, match="outside"):
            make_ranges([[0, 5]], [[11, 10]], lo=6, seqlen=10)

    def test_rows_must_lie_in_sequence(self):
        with pytest.raises(ValueError, match="window"):
            make_ranges([[0, 0]], [[1, 1]], lo=9, seqlen=10)
        with pytest.raises(ValueError, match="window"):
            make_ranges([[0]], [[1]], lo=-1, seqlen=10)

    def test_tile_mask_takes_global_rows(self):
        whole = CausalMask().ranges(12, 0, 12)
        window = CausalMask().ranges(12, 4, 8)
        np.testing.assert_array_equal(
            window.tile_mask(5, 8, 2, 9), whole.tile_mask(5, 8, 2, 9)
        )
        np.testing.assert_array_equal(window.dense(), whole.dense()[4:8])
        with pytest.raises(ValueError, match="window"):
            window.tile_mask(3, 8, 0, 4)


class TestMaskSpecBase:
    def test_sparsity_of_causal_is_one(self):
        assert CausalMask().sparsity_vs_causal(17) == pytest.approx(1.0)

    def test_total_pairs_triangular(self):
        assert CausalMask().total_pairs(10) == 55
