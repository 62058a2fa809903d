"""Figure drivers: one function per table/figure of the paper.

Each driver builds the paper's workload, runs every system through the
shared planning + timing-simulation pipeline, and returns a
:class:`Table` whose rows mirror the figure's data series.  The
``bench_fig*.py`` / ``bench_ablation*.py`` files beside this one are
thin pytest wrappers that execute these drivers and assert the paper's
qualitative claims; ``tests/test_bench_drivers.py`` runs each driver at
``smoke_scale()``.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import (
    LoongTrainPlanner,
    RingAttentionPlanner,
    TransformerEnginePlanner,
)
from repro.bench import PAPER_MASKS, BenchScale, make_batches
from repro.blocks import AttentionSpec, BatchSpec, generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.data import sample_lengths
from repro.masks import make_mask
from repro.model import (
    GPTConfig,
    TinyGPT,
    generate_corpus,
    make_distributed_forward,
    train,
)
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec, e2e_iteration_time, simulate_plan


def e2e_breakdown(result) -> Dict[str, float]:
    """Fig. 22-style stacked decomposition of an
    :class:`~repro.sim.modelcost.E2EResult` (seconds)."""
    fw = result.attention_forward.breakdown()
    bw = result.attention_backward.breakdown()
    layers = result.num_layers
    return {
        "others": result.others_time + result.grad_sync_time,
        "non_ovlp_attn": layers * (fw["non_ovlp_attn"] + bw["non_ovlp_attn"]),
        "overlap": layers * (fw["overlap"] + bw["overlap"]),
        "non_ovlp_comm": layers * (fw["non_ovlp_comm"] + bw["non_ovlp_comm"]),
        "total": result.iteration_time,
    }


def micro_scale() -> BenchScale:
    """Paper §7.1 micro-benchmark: 131072-token batches, 4 nodes x 8 GPUs."""
    return BenchScale(cluster=ClusterSpec(num_machines=4, devices_per_machine=8))


def e2e_scale() -> BenchScale:
    """Paper §7.2 end-to-end: 8 nodes, TP4 => 16 CP ranks."""
    from repro.sim.cluster import E2E_CLUSTER

    return BenchScale(cluster=E2E_CLUSTER)


def smoke_scale() -> BenchScale:
    """Tiny configuration for tests."""
    return BenchScale(
        token_budget=2048,
        max_seqlen=2048,
        block_size=128,
        num_batches=1,
        cluster=ClusterSpec(num_machines=2, devices_per_machine=2),
        attention=AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=32),
    )


class Table:
    """A printable/markdown-dumpable result table."""

    def __init__(self, title: str, headers: Sequence[str]) -> None:
        self.title = title
        self.headers = list(headers)
        self.rows: List[List] = []

    def add(self, *row) -> None:
        if len(row) != len(self.headers):
            raise ValueError("row width does not match headers")
        self.rows.append(list(row))

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def to_markdown(self) -> str:
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(self._fmt(v) for v in row) + " |")
        return "\n".join(lines) + "\n"

    def show(self) -> None:
        print(self.to_markdown())

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_markdown())

    def column(self, name: str) -> List:
        index = self.headers.index(name)
        return [row[index] for row in self.rows]


def attention_times(
    planner,
    batches: Iterable[BatchSpec],
    scale: BenchScale,
) -> Dict[str, float]:
    """Mean simulated forward/backward attention time over batches.

    Also reports total and max-device communication volume (bytes) of
    the plans, averaged over batches.
    """
    forward, backward, comm, inter = [], [], [], []
    for batch in batches:
        block_set = generate_blocks(
            batch, attention=scale.attention, block_size=scale.block_size
        )
        plan = (
            planner.plan(block_set, scale.cluster)
            if not isinstance(planner, DCPPlanner)
            else planner.plan(block_set)
        )
        fw = simulate_plan(plan, scale.cluster, backward=False)
        bw = simulate_plan(plan, scale.cluster, backward=True)
        forward.append(fw.iteration_time)
        backward.append(bw.iteration_time)
        comm.append(plan.total_comm_bytes())
        inter.append(plan.inter_machine_bytes())
    return {
        "fw_ms": 1e3 * float(np.mean(forward)),
        "bw_ms": 1e3 * float(np.mean(backward)),
        "comm_mb": float(np.mean(comm)) / 1e6,
        "inter_mb": float(np.mean(inter)) / 1e6,
    }


def _dcp(scale: BenchScale) -> DCPPlanner:
    return DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())


def _micro_planners(scale: BenchScale) -> Dict[str, object]:
    return {
        "rfa_ring": RingAttentionPlanner(zigzag=False),
        "rfa_zigzag": RingAttentionPlanner(zigzag=True),
        "lt": LoongTrainPlanner(),
        "te": TransformerEnginePlanner(),
        "dcp": _dcp(scale),
    }


# ---------------------------------------------------------------------------
# Fig. 1 — CP communication overhead of static CP
# ---------------------------------------------------------------------------

def fig01_comm_overhead(scale: Optional[BenchScale] = None) -> Table:
    """Static CP (MLM/TE) communication overhead across setups (Fig. 1)."""
    from repro.sim.cluster import ClusterSpec

    base = scale or e2e_scale()
    setups = [
        ("4 nodes, max 65536", ClusterSpec(4, 2, peak_flops=4 * 312e12), 65536),
        ("8 nodes, max 65536", ClusterSpec(8, 2, peak_flops=4 * 312e12), 65536),
        ("8 nodes, max 131072", ClusterSpec(8, 2, peak_flops=4 * 312e12), 131072),
    ]
    table = Table(
        "Fig. 1: CP communication overhead (static CP / Megatron baseline)",
        ["setup", "iter_s", "others_s", "non_ovlp_attn_s", "overlap_s",
         "non_ovlp_comm_s", "comm_pct"],
    )
    for name, cluster, max_seqlen in setups:
        sub = replace(base, max_seqlen=max_seqlen, cluster=cluster)
        batches = make_batches("longalign", sub, PAPER_MASKS["causal"]())
        results = []
        for batch in batches:
            block_set = generate_blocks(batch, sub.attention, sub.block_size)
            plan = TransformerEnginePlanner().plan(block_set, cluster)
            results.append(
                e2e_breakdown(e2e_iteration_time(plan, cluster=cluster))
            )
        mean = {k: float(np.mean([r[k] for r in results])) for k in results[0]}
        comm_pct = 100.0 * (mean["non_ovlp_comm"] + mean["overlap"]) / mean["total"]
        table.add(
            name, mean["total"], mean["others"], mean["non_ovlp_attn"],
            mean["overlap"], mean["non_ovlp_comm"], comm_pct,
        )
    return table


# ---------------------------------------------------------------------------
# Fig. 2 — sequence-length distributions
# ---------------------------------------------------------------------------

def fig02_distribution(num_samples: int = 20000, seed: int = 0) -> Table:
    """Summary statistics of the synthetic datasets (Fig. 2)."""
    table = Table(
        "Fig. 2: sequence-length distributions (synthetic)",
        ["dataset", "mean", "median", "p90", "p99", "max", "frac<4096"],
    )
    for dataset in ("longalign", "longdatacollections"):
        lengths = sample_lengths(dataset, num_samples, seed=seed)
        table.add(
            dataset,
            float(lengths.mean()),
            float(np.median(lengths)),
            float(np.percentile(lengths, 90)),
            float(np.percentile(lengths, 99)),
            int(lengths.max()),
            float((lengths < 4096).mean()),
        )
    return table


# ---------------------------------------------------------------------------
# Fig. 13 — attention micro-benchmark, causal mask
# ---------------------------------------------------------------------------

def fig13_micro_causal(
    scale: Optional[BenchScale] = None,
    length_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> Table:
    """FW/BW attention time of all five systems (Fig. 13)."""
    scale = scale or micro_scale()
    table = Table(
        "Fig. 13: micro-benchmark attention time, causal mask",
        ["len_scale", "system", "fw_ms", "bw_ms", "comm_mb", "inter_mb"],
    )
    for length_scale in length_scales:
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"](), length_scale
        )
        for name, planner in _micro_planners(scale).items():
            stats = attention_times(planner, batches, scale)
            table.add(
                length_scale, name, stats["fw_ms"], stats["bw_ms"],
                stats["comm_mb"], stats["inter_mb"],
            )
    return table


# ---------------------------------------------------------------------------
# Fig. 14 — attention micro-benchmark under the four masks
# ---------------------------------------------------------------------------

def fig14_micro_masks(
    scale: Optional[BenchScale] = None,
    length_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    mask_names: Sequence[str] = ("causal", "causal_blockwise", "lambda",
                                 "shared_question"),
) -> Table:
    """TE vs DCP across masks and length scales (Fig. 14)."""
    scale = scale or micro_scale()
    table = Table(
        "Fig. 14: micro-benchmark attention time under attention masks",
        ["len_scale", "mask", "system", "fw_ms", "bw_ms", "speedup_fwbw"],
    )
    for length_scale in length_scales:
        for mask_name in mask_names:
            batches = make_batches(
                "longdatacollections", scale, PAPER_MASKS[mask_name](),
                length_scale,
            )
            te = attention_times(TransformerEnginePlanner(), batches, scale)
            dcp = attention_times(_dcp(scale), batches, scale)
            te_total = te["fw_ms"] + te["bw_ms"]
            dcp_total = dcp["fw_ms"] + dcp["bw_ms"]
            table.add(length_scale, mask_name, "te", te["fw_ms"], te["bw_ms"], 1.0)
            table.add(
                length_scale, mask_name, "dcp", dcp["fw_ms"], dcp["bw_ms"],
                te_total / dcp_total,
            )
    return table


# ---------------------------------------------------------------------------
# Figs. 15 / 16 — end-to-end training time
# ---------------------------------------------------------------------------

def fig15_e2e(
    dataset: str,
    scale: Optional[BenchScale] = None,
    max_seqlens: Sequence[int] = (16384, 32768, 65536, 131072),
    mask_names: Sequence[str] = ("causal", "lambda", "causal_blockwise",
                                 "shared_question"),
) -> Table:
    """End-to-end iteration time, MLM vs DCP (Figs. 15 and 16)."""
    scale = scale or e2e_scale()
    table = Table(
        f"Figs. 15/16: end-to-end iteration time on {dataset}",
        ["max_seqlen", "mask", "mlm_s", "dcp_s", "speedup"],
    )
    for max_seqlen in max_seqlens:
        for mask_name in mask_names:
            sub = replace(scale, max_seqlen=max_seqlen)
            batches = make_batches(dataset, sub, PAPER_MASKS[mask_name]())
            mlm_times, dcp_times = [], []
            dcp_planner = _dcp(sub)
            for batch in batches:
                block_set = generate_blocks(batch, sub.attention, sub.block_size)
                mlm_plan = TransformerEnginePlanner().plan(block_set, sub.cluster)
                mlm_times.append(
                    e2e_iteration_time(mlm_plan, cluster=sub.cluster).iteration_time
                )
                dcp_plan = dcp_planner.plan(block_set)
                dcp_times.append(
                    e2e_iteration_time(dcp_plan, cluster=sub.cluster).iteration_time
                )
            mlm_mean = float(np.mean(mlm_times))
            dcp_mean = float(np.mean(dcp_times))
            table.add(max_seqlen, mask_name, mlm_mean, dcp_mean, mlm_mean / dcp_mean)
    return table


# ---------------------------------------------------------------------------
# Fig. 17 — communication volume vs block size
# ---------------------------------------------------------------------------

def fig17_comm_vs_blocksize(
    dataset: str = "longalign",
    scale: Optional[BenchScale] = None,
    block_sizes: Sequence[int] = (512, 1024, 2048, 4096),
    mask_names: Sequence[str] = ("causal", "lambda", "shared_question",
                                 "causal_blockwise"),
) -> Table:
    """DCP inter-node communication volume vs block size (Fig. 17)."""
    scale = scale or BenchScale.sweep()
    table = Table(
        f"Fig. 17: inter-node communication volume vs block size ({dataset})",
        ["block_size", "mask", "dcp_inter_mb", "mlm_inter_mb"],
    )
    for mask_name in mask_names:
        batches = make_batches(dataset, scale, PAPER_MASKS[mask_name]())
        for block_size in block_sizes:
            dcp_vol, mlm_vol = [], []
            planner = DCPPlanner(
                scale.cluster, scale.attention,
                scale.dcp_config(block_size=block_size),
            )
            for batch in batches:
                block_set = generate_blocks(batch, scale.attention, block_size)
                dcp_vol.append(planner.plan(block_set).inter_machine_bytes())
                mlm_plan = TransformerEnginePlanner().plan(block_set, scale.cluster)
                mlm_vol.append(mlm_plan.inter_machine_bytes())
            table.add(
                block_size, mask_name,
                float(np.mean(dcp_vol)) / 1e6, float(np.mean(mlm_vol)) / 1e6,
            )
    return table


# ---------------------------------------------------------------------------
# Fig. 18 — planning time vs block size
# ---------------------------------------------------------------------------

def fig18_planning_time(
    dataset: str = "longalign",
    scale: Optional[BenchScale] = None,
    block_sizes: Sequence[int] = (512, 1024, 2048, 4096),
    mask_names: Sequence[str] = ("causal", "lambda", "shared_question",
                                 "causal_blockwise"),
) -> Table:
    """Real planner wall-clock vs block size (Fig. 18)."""
    scale = scale or BenchScale.sweep()
    table = Table(
        f"Fig. 18: planning time vs block size ({dataset})",
        ["block_size", "mask", "plan_s", "blockgen_s", "place_s", "sched_s",
         "vertices", "edges", "moves", "gain_evals"],
    )
    for mask_name in mask_names:
        batches = make_batches(dataset, scale, PAPER_MASKS[mask_name]())
        for block_size in block_sizes:
            planner = DCPPlanner(
                scale.cluster, scale.attention,
                scale.dcp_config(block_size=block_size),
            )
            totals, gens, places, scheds = [], [], [], []
            vertices, edges, moves, gain_evals = [], [], [], []
            for batch in batches:
                stats = planner.plan_batch(batch).meta["planning_stats"]
                totals.append(stats.total)
                gens.append(stats.block_generation)
                places.append(stats.placement)
                scheds.append(stats.scheduling)
                vertices.append(stats.num_vertices)
                edges.append(stats.num_edges)
                moves.append(stats.refine_moves)
                gain_evals.append(stats.gain_evals)
            table.add(
                block_size, mask_name, float(np.mean(totals)),
                float(np.mean(gens)), float(np.mean(places)),
                float(np.mean(scheds)),
                int(np.mean(vertices)), int(np.mean(edges)),
                int(np.mean(moves)), int(np.mean(gain_evals)),
            )
    return table


# ---------------------------------------------------------------------------
# Fig. 19 — communication volume vs mask sparsity
# ---------------------------------------------------------------------------

def _batch_sparsity(batch: BatchSpec) -> float:
    """Mask FLOPs relative to causal over a whole batch (paper §7.3)."""
    pairs = sum(seq.mask.total_pairs(seq.seqlen) for seq in batch.sequences)
    causal = sum(n.seqlen * (n.seqlen + 1) // 2 for n in batch.sequences)
    return pairs / causal


def fig19_comm_vs_sparsity(
    dataset: str = "longalign",
    scale: Optional[BenchScale] = None,
    length_scale: float = 4.0,
) -> Table:
    """DCP communication volume vs mask sparsity (Fig. 19).

    Lengths are scaled up (default 4x) so that batches contain
    sequences long enough to *force* context-parallel splitting across
    machines — the regime of the paper's 131072-token setup.  With only
    short sequences DCP places whole sequences per machine and the
    volume is near zero for every mask, hiding the trend.
    """
    scale = scale or BenchScale.sweep()
    budget = scale.max_seqlen
    variants: List[Tuple[str, object]] = [("causal", make_mask("causal"))]
    for window in (budget // 64, budget // 16, budget // 8, budget // 4,
                   budget // 2):
        variants.append(
            (f"lambda_w{window}", make_mask("lambda", sink=64, window=window))
        )
    for fraction in (0.05, 0.1, 0.15, 0.2):
        variants.append(
            (
                f"sharedq_f{fraction}",
                make_mask("shared_question", num_answers=4,
                          answer_fraction=fraction),
            )
        )
    for window_blocks in (1, 2, 4, 8):
        variants.append(
            (
                f"blockwise_w{window_blocks}",
                make_mask("causal_blockwise", block=256,
                          window_blocks=window_blocks, sink_blocks=1),
            )
        )
    table = Table(
        f"Fig. 19: communication volume vs mask sparsity ({dataset})",
        ["variant", "sparsity", "inter_mb"],
    )
    planner = _dcp(scale)
    for name, mask in variants:
        batches = make_batches(dataset, scale, mask, length_scale)
        volumes, sparsities = [], []
        for batch in batches:
            block_set = generate_blocks(batch, scale.attention, scale.block_size)
            volumes.append(planner.plan(block_set).inter_machine_bytes())
            sparsities.append(_batch_sparsity(batch))
        table.add(name, float(np.mean(sparsities)), float(np.mean(volumes)) / 1e6)
    return table


# ---------------------------------------------------------------------------
# Fig. 20 — communication volume vs computation-imbalance tolerance
# ---------------------------------------------------------------------------

def fig20_comm_vs_imbalance(
    scale: Optional[BenchScale] = None,
    eps_values: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6),
    datasets: Sequence[str] = ("longalign", "longdatacollections"),
) -> Table:
    """DCP communication vs imbalance tolerance epsilon (Fig. 20)."""
    scale = scale or BenchScale.sweep()
    table = Table(
        "Fig. 20: communication volume vs computation imbalance tolerance",
        ["dataset", "imbalance(1+eps)", "inter_mb"],
    )
    for dataset in datasets:
        batches = make_batches(dataset, scale, PAPER_MASKS["causal"]())
        for eps in eps_values:
            config = scale.dcp_config()
            planner = DCPPlanner(
                scale.cluster, scale.attention,
                replace(config, placement=replace(
                    config.placement, eps_inter=eps, eps_intra=eps)),
            )
            volumes = []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                volumes.append(planner.plan(block_set).inter_machine_bytes())
            table.add(dataset, 1.0 + eps, float(np.mean(volumes)) / 1e6)
    return table


# ---------------------------------------------------------------------------
# Fig. 21 — training-loss curves
# ---------------------------------------------------------------------------

def fig21_loss_curves(
    iterations: int = 200,
    seqlen: int = 96,
    mask_names: Sequence[str] = ("causal", "lambda", "causal_blockwise",
                                 "shared_question"),
) -> Tuple[Table, Dict[str, Dict[str, List[float]]]]:
    """Train the numpy GPT with MLM vs DCP attention (Fig. 21).

    Returns the summary table and the raw loss curves per mask.
    """
    from repro.blocks import AttentionSpec
    from repro.sim import ClusterSpec

    mask_params = {
        "causal": make_mask("causal"),
        "lambda": make_mask("lambda", sink=8, window=24),
        "causal_blockwise": make_mask(
            "causal_blockwise", block=16, window_blocks=2, sink_blocks=1
        ),
        "shared_question": make_mask("shared_question"),
    }
    config = GPTConfig(
        vocab=64, d_model=32, num_layers=2, num_heads=4, num_kv_groups=2,
        head_dim=8, d_ff=64, max_len=max(seqlen, 128),
    )
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=8)
    cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
    corpus = generate_corpus(config.vocab, seqlen, 16, seed=7)

    table = Table(
        "Fig. 21: training loss, MLM vs DCP",
        ["mask", "mlm_final", "dcp_final", "max_abs_diff"],
    )
    curves: Dict[str, Dict[str, List[float]]] = {}
    for mask_name in mask_names:
        mask = mask_params[mask_name]
        mlm_model = TinyGPT(config, seed=11)
        dcp_model = TinyGPT(config, seed=11)
        mlm_losses = train(mlm_model, corpus, iterations, mask=mask)
        planner = DCPPlanner(
            cluster, attention, DCPConfig(
                block_size=16, placement=PlacementConfig(restarts=1)
            )
        )
        forward = make_distributed_forward(planner, attention, block_size=16)
        dcp_losses = train(
            dcp_model, corpus, iterations, mask=mask, attention_forward=forward
        )
        deviation = max(abs(a - b) for a, b in zip(mlm_losses, dcp_losses))
        curves[mask_name] = {"mlm": mlm_losses, "dcp": dcp_losses}
        table.add(mask_name, mlm_losses[-1], dcp_losses[-1], deviation)
    return table, curves


# ---------------------------------------------------------------------------
# Fig. 22 — iteration-time decomposition
# ---------------------------------------------------------------------------

def fig22_decomposition(
    scale: Optional[BenchScale] = None,
    mask_names: Sequence[str] = ("causal", "lambda", "causal_blockwise",
                                 "shared_question"),
) -> Table:
    """End-to-end decomposition, DCP vs MLM (Fig. 22)."""
    scale = scale or e2e_scale()
    table = Table(
        "Fig. 22: decomposition of end-to-end iteration time (LongAlign)",
        ["mask", "system", "others_s", "non_ovlp_attn_s", "overlap_s",
         "non_ovlp_comm_s", "total_s", "plan_s", "plan_moves"],
    )
    for mask_name in mask_names:
        batches = make_batches("longalign", scale, PAPER_MASKS[mask_name]())
        for system in ("dcp", "mlm"):
            results = []
            plan_times, plan_moves = [], []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                if system == "dcp":
                    plan = _dcp(scale).plan(block_set)
                else:
                    plan = TransformerEnginePlanner().plan(block_set, scale.cluster)
                plan_stats = plan.meta.get("planning_stats")
                if plan_stats is not None:
                    plan_times.append(plan_stats.total)
                    plan_moves.append(plan_stats.refine_moves)
                results.append(
                    e2e_breakdown(
                        e2e_iteration_time(plan, cluster=scale.cluster)
                    )
                )
            mean = {k: float(np.mean([r[k] for r in results])) for k in results[0]}
            table.add(
                mask_name, system, mean["others"], mean["non_ovlp_attn"],
                mean["overlap"], mean["non_ovlp_comm"], mean["total"],
                float(np.mean(plan_times)) if plan_times else 0.0,
                int(np.mean(plan_moves)) if plan_moves else 0,
            )
    return table
