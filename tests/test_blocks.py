"""Tests for block generation (paper §4.1)."""

import pytest

from mask_oracles import mask_workload_matrix
from repro.blocks import (
    AttentionSpec,
    BatchSpec,
    BlockKind,
    CompBlock,
    DataBlockId,
    TokenSlice,
    generate_blocks,
)
from repro.masks import CausalMask, LambdaMask


class TestAttentionSpec:
    def test_head_groups_default_to_kv_groups(self):
        spec = AttentionSpec(num_q_heads=8, num_kv_groups=2)
        assert spec.head_groups == 2
        assert spec.q_heads_per_group == 4

    def test_block_bytes(self):
        spec = AttentionSpec(num_q_heads=8, num_kv_groups=2, head_dim=128)
        assert spec.q_block_bytes(1024) == 4 * 1024 * 128 * 2
        assert spec.kv_block_bytes(1024) == 2 * 1024 * 128 * 2
        assert spec.o_block_bytes(512) == spec.q_block_bytes(512)
        assert spec.slice_bytes(100) == 2 * (
            spec.q_block_bytes(100) + spec.kv_block_bytes(100)
            + spec.o_block_bytes(100)
        )

    def test_tile_flops(self):
        spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
        assert spec.tile_flops(10) == 4 * 10 * 16 * 2

    def test_uneven_heads_rejected(self):
        with pytest.raises(ValueError):
            AttentionSpec(num_q_heads=7, num_kv_groups=2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttentionSpec().block_bytes("x", 10)


class TestIdentities:
    def test_token_slice_validation(self):
        with pytest.raises(ValueError):
            TokenSlice(0, 0, 5, 5)

    def test_data_block_kind_validation(self):
        with pytest.raises(ValueError):
            DataBlockId("bogus", 0, 0, 0)

    def test_comp_block_links(self):
        comp = CompBlock(seq_index=1, head_group=0, q_block=2, kv_block=3,
                         pairs=7)
        assert comp.q_input == DataBlockId(BlockKind.Q, 1, 2, 0)
        assert comp.kv_input == DataBlockId(BlockKind.KV, 1, 3, 0)
        assert comp.output == DataBlockId(BlockKind.O, 1, 2, 0)

    def test_comp_block_requires_pairs(self):
        with pytest.raises(ValueError):
            CompBlock(0, 0, 0, 0, pairs=0)


class TestBatchSpec:
    def test_build_with_shared_mask(self):
        batch = BatchSpec.build([10, 20], CausalMask())
        assert batch.total_tokens == 30

    def test_build_with_mask_list(self):
        batch = BatchSpec.build([10, 20], [CausalMask(), LambdaMask(1, 2)])
        assert batch.sequences[1].mask.window == 2

    def test_mismatched_masks_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec.build([10, 20], [CausalMask()])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            BatchSpec(tuple())


class TestGenerateBlocks:
    def test_slices_cover_tokens_exactly(self):
        batch = BatchSpec.build([100, 33], CausalMask())
        blocks = generate_blocks(batch, AttentionSpec(), block_size=16)
        by_seq = {}
        for ts in blocks.token_slices:
            by_seq.setdefault(ts.seq_index, []).append(ts)
        for seq_index, seq in enumerate(batch.sequences):
            slices = sorted(by_seq[seq_index], key=lambda t: t.block_index)
            assert slices[0].start == 0
            assert slices[-1].stop == seq.seqlen
            for a, b in zip(slices, slices[1:]):
                assert a.stop == b.start

    def test_comp_blocks_match_nonzero_tiles(self):
        mask = LambdaMask(sink=2, window=6)
        batch = BatchSpec.build([64], mask)
        spec = AttentionSpec(num_q_heads=4, num_kv_groups=2)
        blocks = generate_blocks(batch, spec, block_size=8)
        workload = mask_workload_matrix(mask, 64, 8)
        nonzero = int((workload > 0).sum())
        assert len(blocks.comp_blocks) == nonzero * spec.head_groups
        for comp in blocks.comp_blocks:
            assert comp.pairs == workload[comp.q_block, comp.kv_block]

    def test_masked_tiles_never_constructed(self):
        batch = BatchSpec.build([64], CausalMask())
        blocks = generate_blocks(batch, AttentionSpec(), block_size=8)
        for comp in blocks.comp_blocks:
            assert comp.q_block >= comp.kv_block

    def test_total_flops_and_bytes(self):
        batch = BatchSpec.build([32], CausalMask())
        spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=8)
        blocks = generate_blocks(batch, spec, block_size=16)
        expected_pairs = 32 * 33 // 2 * spec.head_groups
        assert blocks.total_pairs == expected_pairs
        assert blocks.total_bytes == spec.slice_bytes(16) * 2

    def test_tile_pairs_lookup(self):
        batch = BatchSpec.build([40], CausalMask())
        blocks = generate_blocks(batch, AttentionSpec(), block_size=16)
        assert blocks.tile_pairs(0, 0, 0) == 16 * 17 // 2
        assert blocks.tile_pairs(0, 1, 0) == 16 * 16
        assert blocks.tile_pairs(0, 0, 1) == 0

    def test_block_bytes_for_ragged_tail(self):
        batch = BatchSpec.build([20], CausalMask())
        spec = AttentionSpec()
        blocks = generate_blocks(batch, spec, block_size=16)
        tail = DataBlockId(BlockKind.Q, 0, 1, 0)
        assert blocks.block_bytes(tail) == spec.q_block_bytes(4)
