"""Smoke tests for the figure drivers (tiny problem sizes)."""

import importlib.util
import os

import pytest

from repro.bench import PAPER_MASKS, make_batches

_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "figures.py",
)
_spec = importlib.util.spec_from_file_location("figures", _PATH)
figures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(figures)
attention_times = figures.attention_times
e2e_scale = figures.e2e_scale
fig01_comm_overhead = figures.fig01_comm_overhead
fig02_distribution = figures.fig02_distribution
fig13_micro_causal = figures.fig13_micro_causal
fig14_micro_masks = figures.fig14_micro_masks
fig15_e2e = figures.fig15_e2e
fig17_comm_vs_blocksize = figures.fig17_comm_vs_blocksize
fig18_planning_time = figures.fig18_planning_time
fig19_comm_vs_sparsity = figures.fig19_comm_vs_sparsity
fig20_comm_vs_imbalance = figures.fig20_comm_vs_imbalance
fig21_loss_curves = figures.fig21_loss_curves
fig22_decomposition = figures.fig22_decomposition
micro_scale = figures.micro_scale
smoke_scale = figures.smoke_scale
Table = figures.Table


class TestHarness:
    def test_table_roundtrip(self, tmp_path):
        table = Table("t", ["a", "b"])
        table.add(1, 2.5)
        table.add("x", 0.125)
        markdown = table.to_markdown()
        assert "| a | b |" in markdown and "| 1 | 2.500 |" in markdown
        path = tmp_path / "out" / "t.md"
        table.save(str(path))
        assert path.read_text() == markdown
        assert table.column("a") == [1, "x"]

    def test_table_row_width_checked(self):
        table = Table("t", ["a"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_make_batches_budget(self):
        scale = smoke_scale()
        batches = make_batches("longalign", scale, PAPER_MASKS["causal"]())
        assert 1 <= len(batches) <= scale.num_batches
        for batch in batches:
            assert batch.total_tokens <= scale.token_budget

    def test_attention_times_keys(self):
        from repro.baselines import TransformerEnginePlanner

        scale = smoke_scale()
        batches = make_batches("longalign", scale, PAPER_MASKS["causal"]())
        stats = attention_times(TransformerEnginePlanner(), batches, scale)
        assert set(stats) == {"fw_ms", "bw_ms", "comm_mb", "inter_mb"}
        assert stats["bw_ms"] > stats["fw_ms"] > 0

    def test_e2e_breakdown_keys(self):
        from repro.baselines import TransformerEnginePlanner
        from repro.blocks import generate_blocks
        from repro.sim import e2e_iteration_time

        scale = smoke_scale()
        batch = make_batches("longalign", scale, PAPER_MASKS["causal"]())[0]
        block_set = generate_blocks(
            batch, attention=scale.attention, block_size=scale.block_size
        )
        plan = TransformerEnginePlanner().plan(block_set, scale.cluster)
        breakdown = figures.e2e_breakdown(
            e2e_iteration_time(plan, cluster=scale.cluster)
        )
        assert set(breakdown) == {
            "others", "non_ovlp_attn", "overlap", "non_ovlp_comm", "total",
        }

    def test_scales(self):
        assert micro_scale().cluster.num_devices == 32
        assert e2e_scale().cluster.num_devices == 16
        assert smoke_scale().cluster.num_devices == 4


class TestDrivers:
    def test_fig02(self):
        table = fig02_distribution(num_samples=2000)
        assert len(table.rows) == 2

    def test_fig13_smoke(self):
        table = fig13_micro_causal(smoke_scale(), length_scales=(1.0,))
        systems = set(table.column("system"))
        assert systems == {"rfa_ring", "rfa_zigzag", "lt", "te", "dcp"}
        dcp_comm = [r for r in table.rows if r[1] == "dcp"][0][4]
        te_comm = [r for r in table.rows if r[1] == "te"][0][4]
        assert dcp_comm <= te_comm

    def test_fig14_smoke(self):
        table = fig14_micro_masks(
            smoke_scale(), length_scales=(1.0,),
            mask_names=("causal", "lambda"),
        )
        assert len(table.rows) == 4

    def test_fig17_smoke(self):
        table = fig17_comm_vs_blocksize(
            "longdatacollections", smoke_scale(),
            block_sizes=(128, 256), mask_names=("causal",),
        )
        for _, _, dcp_mb, mlm_mb in table.rows:
            assert dcp_mb <= mlm_mb

    def test_fig18_smoke(self):
        table = fig18_planning_time(
            "longalign", smoke_scale(), block_sizes=(128, 256),
            mask_names=("causal",),
        )
        assert all(row[2] > 0 for row in table.rows)

    def test_fig20_smoke(self):
        table = fig20_comm_vs_imbalance(
            smoke_scale(), eps_values=(0.2, 1.0),
            datasets=("longalign",),
        )
        assert len(table.rows) == 2

    def test_fig01_smoke(self):
        table = fig01_comm_overhead(smoke_scale())
        assert len(table.rows) == 3
        for row in table.rows:
            assert 0.0 < row[-1] < 100.0  # communication share, percent

    def test_fig15_smoke(self):
        table = fig15_e2e(
            "longalign", smoke_scale(), max_seqlens=(2048,),
            mask_names=("causal", "lambda"),
        )
        assert [row[1] for row in table.rows] == ["causal", "lambda"]
        assert all(row[2] > 0 and row[3] > 0 for row in table.rows)

    def test_fig19_smoke(self):
        table = fig19_comm_vs_sparsity(scale=smoke_scale(), length_scale=1.0)
        sparsity = dict(zip(table.column("variant"), table.column("sparsity")))
        assert sparsity["causal"] == pytest.approx(1.0)
        assert all(0.0 < value <= 1.0 for value in sparsity.values())

    def test_fig21_dcp_trains_like_mlm(self):
        table, curves = fig21_loss_curves(
            iterations=3, seqlen=32, mask_names=("causal",)
        )
        assert len(curves["causal"]["dcp"]) == 3
        assert table.column("max_abs_diff")[0] < 1e-6

    def test_fig22_smoke(self):
        table = fig22_decomposition(smoke_scale(), mask_names=("causal",))
        assert table.column("system") == ["dcp", "mlm"]
        for row in table.rows:
            parts = row[2] + row[3] + row[4] + row[5]
            assert 0.0 < parts <= row[6] * (1 + 1e-9)
