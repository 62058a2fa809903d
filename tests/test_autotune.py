"""Tests for the block-size autotuner (repro.core.autotune)."""

import pytest

from repro.blocks import AttentionSpec, BatchSpec
from repro.core import DCPConfig, autotune_block_size
from repro.core.autotune import BlockSizeScore
from repro.masks import CausalMask
from repro.sim import ClusterSpec

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def _batches(count=3):
    return [
        BatchSpec.build([512 + 128 * i, 256], CausalMask())
        for i in range(count)
    ]


class TestAutotune:
    def test_returns_a_candidate(self):
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(64, 128, 256),
            probe_batches=1,
        )
        assert result.best in (64, 128, 256)
        assert len(result.scores) == 3

    def test_scores_cover_all_candidates(self):
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(128, 256),
            probe_batches=1,
        )
        assert {s.block_size for s in result.scores} == {128, 256}
        for score in result.scores:
            assert score.attention_s > 0
            assert score.planning_s > 0
            assert score.comm_bytes >= 0

    def test_best_minimizes_objective(self):
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(64, 128, 256),
            probe_batches=2,
        )
        best_objective = next(
            score.objective()
            for score in result.scores
            if score.block_size == result.best
        )
        for score in result.scores:
            assert best_objective <= score.objective() + 1e-12

    def test_planning_weight_can_flip_choice(self):
        """A huge planning penalty must select the cheapest planner."""
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(32, 256),
            probe_batches=1,
            planning_weight=1e6,
        )
        # Fine blocks plan much slower; the penalty forces coarse blocks.
        assert result.best == 256

    def test_duplicate_candidates_deduped(self):
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(128, 128, 256),
            probe_batches=1,
        )
        assert len(result.scores) == 2

    def test_table_marks_winner(self):
        result = autotune_block_size(
            _batches(),
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(restarts=1),
            candidates=(128, 256),
            probe_batches=1,
        )
        table = result.table()
        assert "*" in table
        assert str(result.best) in table

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            autotune_block_size(
                _batches(), CLUSTER, attention=ATTENTION, candidates=()
            )

    def test_rejects_empty_batches(self):
        with pytest.raises(ValueError):
            autotune_block_size(
                [], CLUSTER, attention=ATTENTION, candidates=(128,)
            )

    def test_rejects_zero_probes(self):
        with pytest.raises(ValueError):
            autotune_block_size(
                _batches(),
                CLUSTER,
                attention=ATTENTION,
                candidates=(128,),
                probe_batches=0,
            )

    def test_objective_helper(self):
        score = BlockSizeScore(
            block_size=128, attention_s=1.0, planning_s=2.0, comm_bytes=0.0
        )
        assert score.objective() == pytest.approx(1.0)
        assert score.objective(0.5) == pytest.approx(2.0)
