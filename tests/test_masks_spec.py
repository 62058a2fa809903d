"""Tests for repro.masks.spec: AttendRanges invariants and queries."""

import numpy as np
import pytest

from repro.masks import AttendRanges, CausalMask


def make_ranges(starts, ends):
    """``AttendRanges`` from ``[K][L]`` nested lists."""
    return AttendRanges(
        starts=np.asarray(starts, dtype=np.int64),
        ends=np.asarray(ends, dtype=np.int64),
    )


class TestAttendRanges:
    def test_row_count_single_range(self):
        r = make_ranges([[0, 0, 0]], [[1, 2, 3]])
        assert r.row_count().tolist() == [1, 2, 3]
        assert r.max_ranges_per_row() == 1

    def test_row_count_two_ranges(self):
        r = make_ranges([[0, 0, 0, 0, 0, 0], [3, 4, 0, 0, 0, 0]],
                        [[2, 1, 1, 1, 1, 1], [5, 6, 0, 0, 0, 0]])
        assert r.row_count().tolist() == [4, 3, 1, 1, 1, 1]
        assert r.max_ranges_per_row() == 2

    def test_total_pairs(self):
        r = make_ranges([[0, 0, 0]], [[2, 3, 0]])
        assert r.total_pairs() == 5

    def test_overlap_with_clips_to_window(self):
        r = make_ranges([[0] * 10], [[10] * 10])
        assert r.overlap_with(3, 7).tolist() == [4] * 10
        assert r.overlap_with(0, 100).tolist() == [10] * 10
        assert r.overlap_with(10, 20).tolist() == [0] * 10

    def test_overlap_with_second_range(self):
        r = make_ranges([[0] * 8, [5] * 8], [[2] * 8, [8] * 8])
        assert r.overlap_with(0, 10).tolist() == [5] * 8
        assert r.overlap_with(4, 6).tolist() == [1] * 8

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
        assert r.seqlen == 5


class TestMaskSpecBase:
    def test_sparsity_of_causal_is_one(self):
        assert CausalMask().sparsity_vs_causal(17) == pytest.approx(1.0)

    def test_total_pairs_triangular(self):
        assert CausalMask().total_pairs(10) == 55
