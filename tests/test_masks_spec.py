"""Tests for repro.masks.spec: AttendRanges invariants and queries."""

import numpy as np
import pytest

from mask_oracles import check_ranges
from repro.masks import AttendRanges, CausalMask


def make_ranges(a_start, a_end, b_start, b_end):
    return AttendRanges(
        a_start=np.asarray(a_start, dtype=np.int64),
        a_end=np.asarray(a_end, dtype=np.int64),
        b_start=np.asarray(b_start, dtype=np.int64),
        b_end=np.asarray(b_end, dtype=np.int64),
    )


class TestAttendRanges:
    def test_row_count_single_range(self):
        r = make_ranges([0, 0, 0], [1, 2, 3], [0, 0, 0], [0, 0, 0])
        assert r.row_count().tolist() == [1, 2, 3]

    def test_row_count_two_ranges(self):
        r = make_ranges([0, 0], [2, 1], [3, 4], [5, 6])
        assert r.row_count().tolist() == [4, 3]

    def test_total_pairs(self):
        r = make_ranges([0, 0], [2, 3], [0, 0], [0, 0])
        assert r.total_pairs() == 5

    def test_overlap_with_clips_to_window(self):
        r = make_ranges([0], [10], [0], [0])
        assert r.overlap_with(3, 7).tolist() == [4]
        assert r.overlap_with(0, 100).tolist() == [10]
        assert r.overlap_with(10, 20).tolist() == [0]

    def test_overlap_with_second_range(self):
        r = make_ranges([0], [2], [5], [8])
        assert r.overlap_with(0, 10).tolist() == [5]
        assert r.overlap_with(4, 6).tolist() == [1]

    def test_dense_matches_ranges(self):
        r = make_ranges([0, 0], [2, 1], [3, 2], [4, 4])
        dense = r.dense()
        assert dense.shape == (2, 2)  # L x L with L = 2 rows? no: cols = L
        # dense is [L, L]; L == 2 here so columns 0..1 only
        assert dense[0].tolist() == [True, True]

    def test_validate_rejects_reversed_range(self):
        r = make_ranges([2], [1], [0], [0])
        with pytest.raises(ValueError):
            check_ranges(r)

    def test_validate_rejects_overlapping_ranges(self):
        r = make_ranges([0], [3], [2], [5])
        with pytest.raises(ValueError):
            check_ranges(r)

    def test_validate_rejects_out_of_bounds(self):
        r = make_ranges([0], [2], [0], [0])
        with pytest.raises(ValueError):
            check_ranges(r)  # a_end=2 > L=1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_ranges([0, 0], [1], [0], [0])

    def test_seqlen(self):
        r = make_ranges([0] * 5, [1] * 5, [0] * 5, [0] * 5)
        assert r.seqlen == 5


class TestMaskSpecBase:
    def test_sparsity_of_causal_is_one(self):
        assert CausalMask().sparsity_vs_causal(17) == pytest.approx(1.0)

    def test_total_pairs_triangular(self):
        assert CausalMask().total_pairs(10) == 55
