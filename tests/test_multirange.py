"""Tests for multi-range masks (beyond the paper's 2-range limit)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mask_oracles import (
    DenseMask,
    check_ranges,
    multi_ranges_from_dense,
    multi_ranges_from_rows,
    row_ranges,
)
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import (
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    MultiRanges,
    block_bounds,
    tile_workload_matrix,
)
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.sim import ClusterSpec, simulate_plan


def brute_dilated(seqlen, block, stride, window):
    mask = np.zeros((seqlen, seqlen), dtype=bool)
    period = block * stride
    for i in range(seqlen):
        for j in range(i + 1):
            if j > i - window:
                mask[i, j] = True
            elif (j // period) * period + block > j and j % period < block:
                mask[i, j] = True
    return mask


def brute_global(seqlen, every, window):
    mask = np.zeros((seqlen, seqlen), dtype=bool)
    for i in range(seqlen):
        for j in range(i + 1):
            if i % every == 0 or j > i - window or j % every == 0:
                mask[i, j] = True
    return mask


def loop_dilated_ranges(seqlen, block, stride, window):
    """The per-row loop ``DilatedBlockMask.ranges`` replaced (oracle)."""
    rows = []
    period = block * stride
    for i in range(seqlen):
        window_start = max(0, i - window + 1)
        row = []
        for anchor in range(0, window_start, period):
            end = min(anchor + block, window_start)
            if end > anchor:
                row.append((anchor, end))
        row.append((window_start, i + 1))
        rows.append(row)
    return multi_ranges_from_rows(rows)


def loop_global_ranges(seqlen, every, window):
    """The per-row loop ``GlobalTokenMask.ranges`` replaced (oracle)."""
    rows = []
    for i in range(seqlen):
        if i % every == 0:
            rows.append([(0, i + 1)])
            continue
        window_start = max(0, i - window + 1)
        row = [(g, g + 1) for g in range(0, window_start, every)]
        row.append((window_start, i + 1))
        rows.append(row)
    return multi_ranges_from_rows(rows)


def assert_same_ranges(got, expected):
    for name in ("indptr", "starts", "ends"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.int64, name
        np.testing.assert_array_equal(a, b, err_msg=name)


# -- MultiRanges core ---------------------------------------------------------


class TestMultiRanges:
    def test_from_rows_round_trip(self):
        ranges = multi_ranges_from_rows([[(0, 1)], [(0, 1), (3, 4)], []])
        assert ranges.seqlen == 3
        assert len(ranges.starts) == 3
        starts, ends = row_ranges(ranges, 1)
        assert starts.tolist() == [0, 3]
        assert ends.tolist() == [1, 4]

    def test_row_count(self):
        ranges = multi_ranges_from_rows([[(0, 2)], [(0, 1), (2, 5)], []])
        assert ranges.row_count().tolist() == [2, 4, 0]

    def test_total_pairs(self):
        ranges = multi_ranges_from_rows([[(0, 2)], [(0, 1), (2, 5)], []])
        assert ranges.total_pairs() == 6

    def test_overlap_with(self):
        ranges = multi_ranges_from_rows([[(0, 4)], [(0, 2), (6, 8)]])
        assert ranges.overlap_with(1, 7).tolist() == [3, 2]

    def test_dense_matches_rows(self):
        ranges = multi_ranges_from_rows(
            [[(0, 1)], [(0, 1), (2, 3)], [(1, 3)]]
        )
        expected = np.array(
            [
                [True, False, False],
                [True, False, True],
                [False, True, True],
            ]
        )
        np.testing.assert_array_equal(ranges.dense(), expected)

    def test_tile_mask_is_dense_slice(self):
        mask = brute_global(32, every=8, window=4)
        ranges = multi_ranges_from_dense(mask)
        tile = ranges.tile_mask(8, 16, 4, 20)
        np.testing.assert_array_equal(tile, mask[8:16, 4:20])

    def test_from_dense_round_trip(self):
        mask = brute_dilated(48, block=4, stride=2, window=8)
        np.testing.assert_array_equal(
            multi_ranges_from_dense(mask).dense(), mask
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_from_dense_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((17, 17)) < 0.35
        ranges = multi_ranges_from_dense(mask)
        check_ranges(ranges)
        np.testing.assert_array_equal(ranges.dense(), mask)

    def test_validate_rejects_overlap(self):
        ranges = multi_ranges_from_rows([[(0, 3), (2, 5)], [], [], [], []])
        with pytest.raises(ValueError, match="overlap"):
            check_ranges(ranges)

    def test_validate_rejects_out_of_bounds(self):
        ranges = multi_ranges_from_rows([[(0, 5)]])
        with pytest.raises(ValueError, match="outside"):
            check_ranges(ranges)

    def test_validate_rejects_inverted(self):
        ranges = MultiRanges(
            indptr=np.array([0, 1]),
            starts=np.array([3]),
            ends=np.array([1]),
        )
        with pytest.raises(ValueError, match="start exceeds"):
            check_ranges(ranges)

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            MultiRanges(
                indptr=np.array([0, 2]),
                starts=np.array([0]),
                ends=np.array([1]),
            )

    def test_max_ranges_per_row(self):
        ranges = multi_ranges_from_rows([[(0, 1)], [(0, 1), (2, 3), (4, 5)]])
        assert ranges.max_ranges_per_row() == 3


# -- mask families -------------------------------------------------------------


class TestDilatedBlockMask:
    def test_matches_brute_force(self):
        mask = DilatedBlockMask(block=4, stride=2, window=8)
        expected = brute_dilated(64, block=4, stride=2, window=8)
        np.testing.assert_array_equal(mask.dense(64), expected)

    def test_needs_more_than_two_ranges(self):
        mask = DilatedBlockMask(block=4, stride=2, window=8)
        assert mask.max_ranges_per_row(128) > 2

    def test_sparser_than_causal(self):
        mask = DilatedBlockMask(block=4, stride=4, window=16)
        assert mask.sparsity_vs_causal(256) < 0.5

    def test_ranges_validate(self):
        check_ranges(DilatedBlockMask(block=4, stride=2, window=8).ranges(100))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            DilatedBlockMask(block=0)


class TestVectorizedRangesMatchTheLoops:
    """``ranges`` of the two periodic families is built for all rows at
    once; the per-row loops it replaced stay here as the oracle."""

    LENGTHS = (0, 1, 2, 7, 64, 257, 1000)

    @pytest.mark.parametrize("seqlen", LENGTHS)
    @pytest.mark.parametrize(
        "block, stride, window",
        [(1, 1, 1), (4, 2, 8), (3, 5, 7), (64, 4, 256), (16, 1, 2000)],
    )
    def test_dilated(self, seqlen, block, stride, window):
        assert_same_ranges(
            DilatedBlockMask(block, stride, window).ranges(seqlen),
            loop_dilated_ranges(seqlen, block, stride, window),
        )

    @pytest.mark.parametrize("seqlen", LENGTHS)
    @pytest.mark.parametrize(
        "every, window", [(1, 1), (8, 4), (5, 13), (128, 256), (3, 2000)]
    )
    def test_global(self, seqlen, every, window):
        assert_same_ranges(
            GlobalTokenMask(every, window).ranges(seqlen),
            loop_global_ranges(seqlen, every, window),
        )

    @given(
        seqlen=st.integers(0, 300),
        block=st.integers(1, 40),
        stride=st.integers(1, 6),
        window=st.integers(1, 400),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_parameters(self, seqlen, block, stride, window):
        assert_same_ranges(
            DilatedBlockMask(block, stride, window).ranges(seqlen),
            loop_dilated_ranges(seqlen, block, stride, window),
        )
        assert_same_ranges(
            GlobalTokenMask(block, window).ranges(seqlen),
            loop_global_ranges(seqlen, block, window),
        )


class TestGlobalTokenMask:
    def test_matches_brute_force(self):
        mask = GlobalTokenMask(every=8, window=4)
        expected = brute_global(48, every=8, window=4)
        np.testing.assert_array_equal(mask.dense(48), expected)

    def test_global_rows_attend_everything(self):
        dense = GlobalTokenMask(every=8, window=4).dense(32)
        assert dense[16, :17].all()

    def test_needs_more_than_two_ranges(self):
        assert GlobalTokenMask(every=8, window=4).max_ranges_per_row(128) > 2

    def test_ranges_validate(self):
        check_ranges(GlobalTokenMask(every=8, window=4).ranges(100))


class TestDenseMask:
    def test_round_trip(self):
        matrix = np.tril(np.ones((16, 16), dtype=bool))
        mask = DenseMask(matrix)
        np.testing.assert_array_equal(mask.dense(16), matrix)

    def test_rejects_other_lengths(self):
        mask = DenseMask(np.tril(np.ones((16, 16), dtype=bool)))
        with pytest.raises(ValueError, match="tokens"):
            mask.ranges(8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DenseMask(np.ones((4, 5), dtype=bool))

    def test_equivalent_to_causal(self):
        matrix = np.tril(np.ones((24, 24), dtype=bool))
        assert DenseMask(matrix).total_pairs(24) == CausalMask().total_pairs(24)


# -- planner / executor integration -------------------------------------------


CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def _block_set(mask, seqlens=(96, 48), block_size=16):
    batch = BatchSpec.build(list(seqlens), mask)
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return generate_blocks(batch, spec, block_size=block_size)


@pytest.mark.parametrize(
    "mask",
    [
        DilatedBlockMask(block=4, stride=2, window=12),
        GlobalTokenMask(every=16, window=12),
    ],
    ids=lambda m: m.name,
)
def test_dcp_numerics_multirange(mask):
    block_set = _block_set(mask)
    planner = DCPPlanner(
        CLUSTER,
        attention=block_set.attention,
        config=DCPConfig(block_size=16, restarts=1),
    )
    plan = planner.plan(block_set, CLUSTER)
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(block_set, seed=3)
    executor.load_inputs(inputs)
    executor.run()
    outputs = executor.gather_outputs()
    references = reference_batch_outputs(block_set, inputs)
    for out, ref in zip(outputs, references):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


def test_workload_matrix_counts_pairs():
    mask = GlobalTokenMask(every=16, window=12)
    ranges = mask.ranges(96)
    workload = tile_workload_matrix(ranges, block_bounds(96, 16))
    assert workload.sum() == ranges.total_pairs()
    dense = mask.dense(96)
    assert workload[3, 0] == dense[48:64, 0:16].sum()


def test_multirange_timing_simulates():
    block_set = _block_set(DilatedBlockMask(block=4, stride=2, window=12))
    planner = DCPPlanner(
        CLUSTER,
        attention=block_set.attention,
        config=DCPConfig(block_size=16, restarts=1),
    )
    plan = planner.plan(block_set, CLUSTER)
    assert simulate_plan(plan).iteration_time > 0


@given(
    seed=st.integers(0, 500),
    q_lo=st.integers(0, 10),
    q_span=st.integers(1, 10),
    k_lo=st.integers(0, 10),
    k_span=st.integers(1, 10),
)
@settings(max_examples=40, deadline=None)
def test_tile_mask_consistent_with_overlap(seed, q_lo, q_span, k_lo, k_span):
    """Counting true cells in a tile equals the overlap arithmetic."""
    rng = np.random.default_rng(seed)
    mask = rng.random((20, 20)) < 0.4
    ranges = multi_ranges_from_dense(mask)
    q_hi = min(q_lo + q_span, 20)
    k_hi = min(k_lo + k_span, 20)
    tile = ranges.tile_mask(q_lo, q_hi, k_lo, k_hi)
    per_row = ranges.overlap_with(k_lo, k_hi)[q_lo:q_hi]
    np.testing.assert_array_equal(tile.sum(axis=1), per_row)


def test_sparse_multirange_plans_fewer_flops_than_causal():
    sparse = _block_set(DilatedBlockMask(block=4, stride=4, window=8))
    causal = _block_set(CausalMask())
    assert sparse.total_flops < causal.total_flops
