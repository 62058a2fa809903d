"""Tests for the extension masks: packed documents and prefix-LM."""

import numpy as np
import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    generate_blocks,
    make_mask,
)
from repro.masks import PackedDocumentMask
from repro.placement import PlacementConfig
from repro.runtime import BatchInputs, SimExecutor, reference_batch_outputs


class TestPackedDocumentMask:
    def test_block_diagonal_structure(self):
        mask = PackedDocumentMask(doc_lens=(3, 4, 3))
        dense = mask.dense(10)
        # Document boundaries: [0,3), [3,7), [7,10).
        assert dense[2, 2] and dense[2, 0]
        assert not dense[3, 2], "documents must not see each other"
        assert dense[5, 3] and not dense[5, 6], "causal inside a document"
        assert not dense[8, 6]

    def test_overflow_forms_trailing_document(self):
        mask = PackedDocumentMask(doc_lens=(4,))
        dense = mask.dense(8)
        assert not dense[5, 3]
        assert dense[6, 4]

    def test_ranges_valid_various_lengths(self):
        mask = PackedDocumentMask(doc_lens=(5, 2, 9))
        for seqlen in (1, 4, 16, 30):
            assert mask.ranges(seqlen).seqlen == seqlen

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PackedDocumentMask(doc_lens=())
        with pytest.raises(ValueError):
            PackedDocumentMask(doc_lens=(3, 0))

    def test_sparser_than_causal(self):
        mask = PackedDocumentMask(doc_lens=(8, 8, 8, 8))
        assert mask.sparsity_vs_causal(32) < 0.4


@pytest.mark.parametrize(
    "mask",
    [
        PackedDocumentMask(doc_lens=(30, 25, 25)),
    ],
    ids=lambda m: m.name,
)
def test_dcp_numerics_on_extended_masks(mask):
    """Full plan/execute/verify on the new masks."""
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    batch = BatchSpec.build([80, 48], mask)
    block_set = generate_blocks(batch, attention, block_size=16)
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    planner = DCPPlanner(cluster, attention,
                         DCPConfig(block_size=16,
                                   placement=PlacementConfig(restarts=1)))
    plan = planner.plan(block_set)
    executor = SimExecutor(plan)
    inputs = BatchInputs.random(block_set, seed=4)
    executor.load_inputs(inputs)
    executor.run()
    for out, ref in zip(executor.gather_outputs(),
                        reference_batch_outputs(block_set, inputs)):
        np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


def test_factory_knows_extended_masks():
    assert make_mask("packed_documents", doc_lens=(4, 4)).name == (
        "packed_documents"
    )
