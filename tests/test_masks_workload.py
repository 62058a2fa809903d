"""Tests for tile-workload computation (vectorized vs brute force)."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mask_oracles import (
    DenseMask,
    mask_id,
    mask_workload_matrix,
    nonempty_ranges,
    small_windows,
)
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.masks import (
    CausalBlockwiseMask,
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    LambdaMask,
    MaskSpec,
    PackedDocumentMask,
    SharedQuestionMask,
    batch_tile_workloads,
    block_bounds,
)

#: One mask of each of the seven families.
MASKS = [
    CausalMask(),
    LambdaMask(sink=3, window=7),
    CausalBlockwiseMask(block=8, window_blocks=2, sink_blocks=1),
    SharedQuestionMask(num_answers=3, answer_fraction=0.2),
    PackedDocumentMask(doc_lens=(7, 30, 13)),
    DilatedBlockMask(block=4, stride=2, window=8),
    GlobalTokenMask(every=8, window=4),
]

#: Window budgets: the defaults, and windows of a few rows that split
#: tiles (``(elements, first_rows)`` of :func:`small_windows`).
WINDOWS = {"default": None, "split": (6, 5), "row": (1, 1)}


def windows(name):
    budget = WINDOWS[name]
    return small_windows(*budget) if budget else contextlib.nullcontext()


class Recorded(MaskSpec):
    """A mask that records the row windows its ranges are read in."""

    def __init__(self, mask: MaskSpec) -> None:
        self.mask = mask
        self.windows = []

    def ranges(self, seqlen, lo, hi):
        self.windows.append((lo, hi))
        return self.mask.ranges(seqlen, lo, hi)


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


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("mask", MASKS, ids=mask_id)
@pytest.mark.parametrize(
    "seqlen,block",
    [(50, 7), (64, 16), (33, 33), (20, 1), (100, 9), (30, 64)],
)
def test_workload_matches_dense(mask, seqlen, block, window):
    with windows(window):
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


@given(
    matrix=dense_masks(),
    block=st.integers(1, 48),
    window=st.sampled_from(sorted(WINDOWS)),
)
@settings(max_examples=90, deadline=None)
def test_workload_matches_dense_random(matrix, block, window):
    """Arbitrary masks, read through ``ranges_from_dense``."""
    mask = DenseMask(matrix)
    assert mask.ranges(len(matrix), 0, len(matrix)).max_ranges_per_row() <= 6
    with windows(window):
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


@pytest.mark.parametrize("window", WINDOWS)
def test_batch_rows_are_each_sequences_workload(window):
    """One pass over a batch of lengths from one token to several tiles:
    each sequence's rows of the batch matrix are its own tile counts,
    and its columns past its tiles are zero."""
    block = 16
    batch = [
        (mask, seqlen, block_bounds(seqlen, block))
        for mask, seqlen in zip(MASKS, (50, 7, 64, 1, 33, 100, 16))
    ]
    with windows(window):
        matrix = batch_tile_workloads(batch)
    row = 0
    for mask, seqlen, bounds in batch:
        n = len(bounds) - 1
        tiles = np.add.reduceat(mask.dense(seqlen), bounds[:-1], axis=0)
        expected = np.add.reduceat(tiles, bounds[:-1], axis=1)
        np.testing.assert_array_equal(matrix[row : row + n, :n], expected)
        assert not matrix[row : row + n, n:].any()
        row += n
    assert row == len(matrix)


def test_windows_cover_the_sequence_and_split_tiles():
    """The windows of the tests above tile the rows in order, and the
    small ones end inside Q tiles as well as on their bounds."""
    mask = Recorded(GlobalTokenMask(every=8, window=4))
    with windows("split"):
        assert_workload_matches_dense(mask, 100, 9, mask.mask.dense(100))
    lows, highs = zip(*mask.windows)
    assert lows[0] == 0 and highs[-1] == 100
    assert lows[1:] == highs[:-1]
    inside = [hi for hi in highs[:-1] if hi % 9]
    assert inside and len(inside) < len(highs) - 1


@st.composite
def sequence_windows(draw):
    """A mask of one of the seven families, a length of 1–3000 tokens and
    a window ``[lo, hi)`` of its rows, on tile bounds or anywhere."""
    mask = draw(
        st.sampled_from(MASKS + [DilatedBlockMask(), GlobalTokenMask()])
    )
    seqlen = draw(st.integers(1, 3000))
    if draw(st.booleans()):
        bounds = block_bounds(seqlen, draw(st.integers(1, seqlen)))
        first = draw(st.integers(0, len(bounds) - 2))
        last = draw(st.integers(first + 1, len(bounds) - 1))
        lo, hi = int(bounds[first]), int(bounds[last])
    else:
        lo = draw(st.integers(0, seqlen))
        hi = draw(st.integers(lo, seqlen))
    return mask, seqlen, lo, hi


@given(window=sequence_windows())
@settings(max_examples=80, deadline=None)
def test_window_is_the_sequences_rows(window):
    """Each row of ``ranges(L, lo, hi)`` holds the non-empty ranges the
    same row has in ``ranges(L, 0, L)``, in the same order."""
    mask, seqlen, lo, hi = window
    got = mask.ranges(seqlen, lo, hi)
    whole = mask.ranges(seqlen, 0, seqlen)
    assert (got.lo, got.hi, got.seqlen) == (lo, hi, seqlen)
    assert got.max_ranges_per_row() <= whole.max_ranges_per_row()
    expected = nonempty_ranges(whole)
    expected = expected[(expected[:, 0] >= lo) & (expected[:, 0] < hi)]
    np.testing.assert_array_equal(nonempty_ranges(got), expected)


def test_block_generation_footprint_of_a_long_dilated_sequence():
    """A 65 536-token dilated sequence grows to 32 ranges per row; its
    ranges are read in windows, so block generation's traced peak stays
    within 8 MiB (whole-sequence ``[K, L]`` ranges peaked at 52.5 MiB)."""
    mask = DilatedBlockMask(block=512, stride=4, window=2048)
    batch = BatchSpec.build([65536], mask)
    tracemalloc.start()
    try:
        generate_blocks(batch, AttentionSpec(), block_size=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
