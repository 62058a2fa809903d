"""Tests for the block-size autotuner (repro.core.autotune)."""

import pytest

from repro.blocks import AttentionSpec, BatchSpec
from repro.core import DCPConfig, autotune, autotune_block_size
from repro.masks import CausalMask
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec

ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def _batches(count=3):
    return [
        BatchSpec.build([512 + 128 * i, 256], CausalMask())
        for i in range(count)
    ]


@pytest.fixture
def search(monkeypatch):
    """Search the given candidates on the first ``probes`` batches:
    block sizes that suit these small batches."""

    def run(candidates, probes=1, batches=None):
        monkeypatch.setattr(autotune, "PAPER_CANDIDATES", candidates)
        monkeypatch.setattr(autotune, "PROBE_BATCHES", probes)
        return autotune_block_size(
            _batches() if batches is None else batches,
            CLUSTER,
            attention=ATTENTION,
            config=DCPConfig(placement=PlacementConfig(restarts=1)),
        )

    return run


class TestAutotune:
    def test_returns_a_candidate(self, search):
        result = search((64, 128, 256))
        assert result.best in (64, 128, 256)
        assert len(result.scores) == 3

    def test_scores_cover_all_candidates(self, search):
        result = search((128, 256))
        assert {s.block_size for s in result.scores} == {128, 256}
        for score in result.scores:
            assert score.attention_s > 0
            assert score.planning_s > 0
            assert score.comm_bytes >= 0

    def test_best_minimizes_objective(self, search):
        result = search((64, 128, 256), probes=2)
        best = next(
            score.attention_s
            for score in result.scores
            if score.block_size == result.best
        )
        for score in result.scores:
            assert best <= score.attention_s + 1e-12

    def test_table_marks_winner(self, search):
        result = search((128, 256))
        table = result.table()
        assert "*" in table
        assert str(result.best) in table

    def test_rejects_empty_batches(self, search):
        with pytest.raises(ValueError):
            search((128,), batches=[])

    def test_rejects_zero_probes(self, search):
        with pytest.raises(ValueError):
            search((128,), probes=0)
