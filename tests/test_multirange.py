"""Tests for multi-range masks (beyond the paper's 2-range limit)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_client import plan_batch
from mask_oracles import (
    DenseMask,
    ranges_from_dense,
    ranges_from_rows,
    row_ranges,
)
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner, PlanCache, batch_signature
from repro.masks import (
    AttendRanges,
    CausalMask,
    DilatedBlockMask,
    GlobalTokenMask,
    block_bounds,
    tile_workload_matrix,
)
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs
from repro.service import signature_key
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
    return ranges_from_rows(rows)


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
    return ranges_from_rows(rows)


def assert_same_ranges(got, expected):
    """Equal ``K`` and equal ranges; empty ranges compare as ``[0, 0)``."""
    assert got.starts.shape == expected.starts.shape
    for name in ("starts", "ends"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype == np.int64, name
        np.testing.assert_array_equal(
            np.where(got.ends > got.starts, a, 0),
            np.where(expected.ends > expected.starts, b, 0),
            err_msg=name,
        )


# -- rows of many ranges ------------------------------------------------------


class TestManyRanges:
    def test_from_rows_round_trip(self):
        ranges = ranges_from_rows([[(0, 1)], [(0, 1), (3, 4)], [], []])
        assert ranges.seqlen == 4
        assert ranges.starts.shape == (2, 4)
        starts, ends = row_ranges(ranges, 1)
        assert starts.tolist() == [0, 3]
        assert ends.tolist() == [1, 4]

    def test_row_count(self):
        ranges = ranges_from_rows([[(0, 2)], [(0, 1), (2, 5)], [], [], []])
        assert ranges.dense().sum(axis=1).tolist() == [2, 4, 0, 0, 0]

    def test_total_pairs(self):
        ranges = ranges_from_rows([[(0, 2)], [(0, 1), (2, 5)], [], [], []])
        assert ranges.dense().sum() == 6

    def test_tile_mask_counts(self):
        ranges = ranges_from_rows(
            [[(0, 4)], [(0, 2), (6, 8)]] + [[]] * 6
        )
        assert ranges.tile_mask(0, 2, 1, 7).sum(axis=1).tolist() == [3, 2]

    def test_dense_matches_rows(self):
        ranges = ranges_from_rows(
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
        ranges = ranges_from_dense(mask)
        tile = ranges.tile_mask(8, 16, 4, 20)
        np.testing.assert_array_equal(tile, mask[8:16, 4:20])

    def test_from_dense_round_trip(self):
        mask = brute_dilated(48, block=4, stride=2, window=8)
        np.testing.assert_array_equal(ranges_from_dense(mask).dense(), mask)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_from_dense_round_trip_random(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((17, 17)) < 0.35
        ranges = ranges_from_dense(mask)  # validates on construction
        np.testing.assert_array_equal(ranges.dense(), mask)

    def test_validate_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            ranges_from_rows([[(0, 3), (2, 5)], [], [], [], []])
        # An overlapping and an out-of-order row: read without the
        # check, row 2 counts 6 pairs where the dense mask has 4.
        with pytest.raises(ValueError, match="overlap"):
            ranges_from_rows(
                [[(0, 1)], [(0, 2)], [(0, 3), (1, 4)], [(2, 4), (0, 1)]]
            )

    def test_validate_ignores_empty_ranges(self):
        ranges = AttendRanges(
            starts=np.array([[0, 0, 0, 0], [3, 1, 0, 0], [2, 1, 0, 0]]),
            ends=np.array([[2, 1, 1, 1], [3, 1, 0, 0], [3, 2, 0, 0]]),
            lo=0,
            seqlen=4,
        )
        assert ranges.dense().sum(axis=1).tolist() == [3, 2, 1, 1]

    def test_validate_rejects_out_of_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            ranges_from_rows([[(0, 5)]])

    def test_validate_rejects_inverted(self):
        with pytest.raises(ValueError, match="start exceeds"):
            AttendRanges(np.array([[3]]), np.array([[1]]), 0, 4)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            AttendRanges(np.zeros((1, 2)), np.zeros((1, 3)), 0, 3)
        with pytest.raises(ValueError, match="shape"):
            AttendRanges(np.zeros(2), np.zeros(2), 0, 2)

    def test_max_ranges_per_row(self):
        ranges = ranges_from_rows(
            [[(0, 1)], [(0, 1), (2, 3), (4, 5)]] + [[]] * 3
        )
        assert ranges.max_ranges_per_row() == 3


# -- mask families -------------------------------------------------------------


class TestDilatedBlockMask:
    def test_matches_brute_force(self):
        mask = DilatedBlockMask(block=4, stride=2, window=8)
        expected = brute_dilated(64, block=4, stride=2, window=8)
        np.testing.assert_array_equal(mask.dense(64), expected)

    def test_needs_more_than_two_ranges(self):
        mask = DilatedBlockMask(block=4, stride=2, window=8)
        assert mask.ranges(128, 0, 128).max_ranges_per_row() > 2

    def test_sparser_than_causal(self):
        mask = DilatedBlockMask(block=4, stride=4, window=16)
        assert mask.sparsity_vs_causal(256) < 0.5

    def test_ranges_validate(self):
        mask = DilatedBlockMask(block=4, stride=2, window=8)
        ranges = mask.ranges(100, 0, 100)
        assert ranges.seqlen == 100  # validated on construction

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
            DilatedBlockMask(block, stride, window).ranges(seqlen, 0, seqlen),
            loop_dilated_ranges(seqlen, block, stride, window),
        )

    @pytest.mark.parametrize("seqlen", LENGTHS)
    @pytest.mark.parametrize(
        "every, window", [(1, 1), (8, 4), (5, 13), (128, 256), (3, 2000)]
    )
    def test_global(self, seqlen, every, window):
        assert_same_ranges(
            GlobalTokenMask(every, window).ranges(seqlen, 0, seqlen),
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
            DilatedBlockMask(block, stride, window).ranges(seqlen, 0, seqlen),
            loop_dilated_ranges(seqlen, block, stride, window),
        )
        assert_same_ranges(
            GlobalTokenMask(block, window).ranges(seqlen, 0, seqlen),
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
        mask = GlobalTokenMask(every=8, window=4)
        assert mask.ranges(128, 0, 128).max_ranges_per_row() > 2

    def test_ranges_validate(self):
        ranges = GlobalTokenMask(every=8, window=4).ranges(100, 0, 100)
        assert ranges.seqlen == 100  # validated on construction


class TestDenseMask:
    def test_round_trip(self):
        matrix = np.tril(np.ones((16, 16), dtype=bool))
        mask = DenseMask(matrix)
        np.testing.assert_array_equal(mask.dense(16), matrix)

    def test_rejects_other_lengths(self):
        mask = DenseMask(np.tril(np.ones((16, 16), dtype=bool)))
        with pytest.raises(ValueError, match="tokens"):
            mask.ranges(8, 0, 8)

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
        config=DCPConfig(block_size=16, placement=PlacementConfig(restarts=1)),
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


@pytest.mark.parametrize(
    "make",
    [
        lambda: DilatedBlockMask(block=4, stride=2, window=12),
        lambda: GlobalTokenMask(every=16, window=12),
    ],
    ids=["dilated_block", "global_token"],
)
def test_equal_masks_share_plans(make):
    """Separately built, equal masks key one plan, in the cache and in
    the store alike."""
    first, second = (BatchSpec.build([96, 48], make()) for _ in range(2))
    assert first.sequences[0].mask is not second.sequences[0].mask
    assert batch_signature(first) == batch_signature(second)
    assert signature_key(batch_signature(first)) == signature_key(
        batch_signature(second)
    )
    assert "window=12" in repr(first.sequences[0].mask)
    planner = DCPPlanner(
        CLUSTER,
        attention=AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16),
        config=DCPConfig(block_size=16, placement=PlacementConfig(restarts=1)),
    )
    cache = PlanCache(planner)
    plan = plan_batch(cache, first)
    assert plan_batch(cache, second) is plan
    assert cache.stats()["hits"] == 1


def test_workload_matrix_counts_pairs():
    mask = GlobalTokenMask(every=16, window=12)
    workload = tile_workload_matrix(mask, 96, block_bounds(96, 16))
    dense = mask.dense(96)
    assert workload.sum() == dense.sum() == mask.total_pairs(96)
    assert workload[3, 0] == dense[48:64, 0:16].sum()


def test_multirange_timing_simulates():
    block_set = _block_set(DilatedBlockMask(block=4, stride=2, window=12))
    planner = DCPPlanner(
        CLUSTER,
        attention=block_set.attention,
        config=DCPConfig(block_size=16, placement=PlacementConfig(restarts=1)),
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
def test_tile_mask_is_dense_slice_random(seed, q_lo, q_span, k_lo, k_span):
    """A tile's mask reads the dense slice, from the whole sequence's
    ranges and from a window of the tile's rows alike."""
    rng = np.random.default_rng(seed)
    mask = rng.random((20, 20)) < 0.4
    q_hi = min(q_lo + q_span, 20)
    k_hi = min(k_lo + k_span, 20)
    expected = mask[q_lo:q_hi, k_lo:k_hi]
    window = DenseMask(mask).ranges(20, q_lo, q_hi)
    for ranges in (ranges_from_dense(mask), window):
        np.testing.assert_array_equal(
            ranges.tile_mask(q_lo, q_hi, k_lo, k_hi), expected
        )


def test_sparse_multirange_plans_fewer_flops_than_causal():
    sparse = _block_set(DilatedBlockMask(block=4, stride=4, window=8))
    causal = _block_set(CausalMask())
    assert sparse.total_flops < causal.total_flops
