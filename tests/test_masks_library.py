"""Tests for the concrete mask library (paper Fig. 6)."""

import numpy as np
import pytest

from mask_oracles import mask_id
from repro.masks import (
    CausalBlockwiseMask,
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    LambdaMask,
    PackedDocumentMask,
    SharedQuestionMask,
    make_mask,
)

ALL_MASKS = [
    CausalMask(),
    LambdaMask(sink=4, window=8),
    LambdaMask(sink=0, window=3),
    CausalBlockwiseMask(block=8, window_blocks=2, sink_blocks=1),
    CausalBlockwiseMask(block=4, window_blocks=1, sink_blocks=0),
    SharedQuestionMask(num_answers=4, answer_fraction=0.2),
    SharedQuestionMask(num_answers=2, answer_fraction=0.3),
    PackedDocumentMask(doc_lens=(10, 17, 23)),
    DilatedBlockMask(block=4, stride=2, window=8),
    GlobalTokenMask(every=8, window=4),
]


@pytest.mark.parametrize("mask", ALL_MASKS, ids=mask_id)
@pytest.mark.parametrize("seqlen", [1, 2, 7, 33, 64, 100])
def test_ranges_are_valid(mask, seqlen):
    ranges = mask.ranges(seqlen)  # AttendRanges validates on construction
    assert ranges.starts.shape == (ranges.max_ranges_per_row(), seqlen)
    np.testing.assert_array_equal(
        ranges.row_count(), ranges.dense().sum(axis=1)
    )


@pytest.mark.parametrize("mask", ALL_MASKS, ids=mask_id)
def test_every_token_attends_to_itself(mask):
    dense = mask.dense(50)
    assert np.all(np.diag(dense)), "self-attention must never be masked"


@pytest.mark.parametrize("mask", ALL_MASKS, ids=mask_id)
def test_masks_are_causal(mask):
    dense = mask.dense(40)
    assert not np.any(np.triu(dense, k=1)), "no token may attend forward"


class TestCausal:
    def test_dense_is_lower_triangular(self):
        dense = CausalMask().dense(9)
        expected = np.tril(np.ones((9, 9), dtype=bool))
        assert np.array_equal(dense, expected)


class TestLambda:
    def test_sink_and_window_structure(self):
        mask = LambdaMask(sink=2, window=3)
        dense = mask.dense(10)
        row = dense[8]
        # sink columns 0-1 plus window columns 6,7,8
        assert row.tolist() == [
            True, True, False, False, False, False, True, True, True, False,
        ]

    def test_short_sequence_fully_causal(self):
        mask = LambdaMask(sink=16, window=32)
        assert np.array_equal(mask.dense(10), CausalMask().dense(10))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LambdaMask(sink=-1, window=4)
        with pytest.raises(ValueError):
            LambdaMask(sink=1, window=0)

    def test_sparser_than_causal(self):
        assert LambdaMask(sink=4, window=8).sparsity_vs_causal(256) < 0.2


class TestCausalBlockwise:
    def test_last_block_attends_everything(self):
        mask = CausalBlockwiseMask(block=4, window_blocks=1, sink_blocks=1)
        dense = mask.dense(16)
        # Rows 12..15 are the "test sample": fully causal.
        for row in range(12, 16):
            assert dense[row, : row + 1].all()

    def test_middle_block_sees_sink_and_window(self):
        mask = CausalBlockwiseMask(block=4, window_blocks=1, sink_blocks=1)
        dense = mask.dense(20)
        # Row 9 is in block 2 (not last): sink block 0 + own block.
        assert dense[9].tolist() == [
            True, True, True, True,      # sink block
            False, False, False, False,  # block 1 outside window
            True, True, False, False,    # own block, causal
            False, False, False, False,
            False, False, False, False,
        ]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CausalBlockwiseMask(block=0)

    def test_large_sink_on_short_sequence(self):
        # Regression: the sink region may extend past short sequences.
        mask = CausalBlockwiseMask(block=4, window_blocks=2, sink_blocks=10)
        for seqlen in (3, 17, 41):
            mask.ranges(seqlen)  # bounds within [0, L]
            assert np.array_equal(mask.dense(seqlen)[:40, :40],
                                  CausalMask().dense(seqlen)[:40, :40])


class TestSharedQuestion:
    def test_answers_do_not_see_each_other(self):
        mask = SharedQuestionMask(num_answers=2, answer_fraction=0.25)
        dense = mask.dense(20)  # question 10, answers 5 + 5
        bounds = mask.segment_bounds(20)
        (q0, q1), (a0, a1), (b0, b1) = bounds
        assert not dense[b0:b1, a0:a1].any(), "answer 2 must not see answer 1"
        assert dense[a0:a1, q0:q1].all(), "answers see the whole question"

    def test_question_is_causal(self):
        mask = SharedQuestionMask(num_answers=2, answer_fraction=0.25)
        dense = mask.dense(20)
        q_len = mask.segment_bounds(20)[0][1]
        expected = np.tril(np.ones((q_len, q_len), dtype=bool))
        assert np.array_equal(dense[:q_len, :q_len], expected)

    def test_segment_bounds_cover_sequence(self):
        mask = SharedQuestionMask(num_answers=3, answer_fraction=0.2)
        bounds = mask.segment_bounds(100)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
            assert prev_end == start

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SharedQuestionMask(num_answers=0)
        with pytest.raises(ValueError):
            SharedQuestionMask(num_answers=5, answer_fraction=0.25)


class TestFactory:
    def test_make_mask_known(self):
        assert make_mask("causal").name == "causal"
        assert make_mask("lambda", sink=1, window=2).sink == 1

    def test_make_mask_unknown(self):
        with pytest.raises(ValueError, match="unknown mask"):
            make_mask("nope")
