"""Tests for tile-workload computation (vectorized vs brute force)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mask_oracles import DenseMask, mask_id, mask_workload_matrix
from repro.masks import (
    CausalBlockwiseMask,
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    LambdaMask,
    PackedDocumentMask,
    SharedQuestionMask,
    block_bounds,
)


class TestBlockBounds:
    def test_exact_division(self):
        assert block_bounds(12, 4).tolist() == [0, 4, 8, 12]

    def test_ragged_tail(self):
        assert block_bounds(10, 4).tolist() == [0, 4, 8, 10]

    def test_block_larger_than_sequence(self):
        assert block_bounds(3, 100).tolist() == [0, 3]

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_bounds(0, 4)
        with pytest.raises(ValueError):
            block_bounds(4, 0)


@pytest.mark.parametrize(
    "mask",
    [
        CausalMask(),
        LambdaMask(sink=3, window=7),
        CausalBlockwiseMask(block=8, window_blocks=2, sink_blocks=1),
        SharedQuestionMask(num_answers=3, answer_fraction=0.2),
        PackedDocumentMask(doc_lens=(7, 30, 13)),
        DilatedBlockMask(block=4, stride=2, window=8),
        GlobalTokenMask(every=8, window=4),
    ],
    ids=mask_id,
)
@pytest.mark.parametrize(
    "seqlen,block",
    [(50, 7), (64, 16), (33, 33), (20, 1), (100, 9), (30, 64)],
)
def test_workload_matches_dense(mask, seqlen, block):
    assert_workload_matches_dense(mask, seqlen, block, mask.dense(seqlen))


@st.composite
def dense_masks(draw):
    """A boolean ``[L, L]`` matrix, 1 ≤ L ≤ 40, whose rows hold up to
    six runs of attendable keys each (not necessarily causal)."""
    length = draw(st.integers(1, 40))
    mask = np.zeros((length, length), dtype=bool)
    for row in mask:
        cuts = sorted(
            draw(st.sets(st.integers(0, length), max_size=12))
        )
        for start, end in zip(cuts[::2], cuts[1::2]):
            row[start:end] = True
    return mask


@given(matrix=dense_masks(), block=st.integers(1, 48))
@settings(max_examples=60, deadline=None)
def test_workload_matches_dense_random(matrix, block):
    """Arbitrary masks, read through ``ranges_from_dense``."""
    mask = DenseMask(matrix)
    assert mask.ranges(len(matrix)).max_ranges_per_row() <= 6
    assert_workload_matches_dense(mask, len(matrix), block, matrix)


def assert_workload_matches_dense(mask, seqlen, block, dense):
    workload = mask_workload_matrix(mask, seqlen, block)
    bounds = block_bounds(seqlen, block)
    for qi in range(len(bounds) - 1):
        for ki in range(len(bounds) - 1):
            expected = dense[
                bounds[qi] : bounds[qi + 1], bounds[ki] : bounds[ki + 1]
            ].sum()
            assert workload[qi, ki] == expected


def test_workload_total_equals_pairs():
    mask = LambdaMask(sink=2, window=5)
    assert mask_workload_matrix(mask, 77, 13).sum() == mask.total_pairs(77)


def test_causal_workload_upper_triangle_empty():
    workload = mask_workload_matrix(CausalMask(), 64, 8)
    assert not np.any(np.triu(workload, k=1))
