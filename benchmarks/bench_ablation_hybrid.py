"""Ablation: composing DCP with TP and PP (paper §6.2).

The paper prescribes the TP-CP-DP-PP rank order — TP on NVSwitch,
DCP over the CP/DP ranks, PP across distant nodes — without measuring
the composition.  This ablation sweeps topologies of a 4-node cluster
for the 8B GPT and checks the qualitative claims behind the
prescription:

* some tensor parallelism beats none (per-rank attention and linear
  work shrink faster than the NVSwitch all-reduces grow);
* pipeline stages introduce a bubble that more microbatches amortize;
* TP groups never straddle machines (validated by construction).
"""

import os

from conftest import run_once
from figures import Table

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.core import DCPConfig
from repro.parallel import HybridConfig, RankTopology, hybrid_iteration_time
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec

CLUSTER = ClusterSpec(num_machines=4, devices_per_machine=8)

TOPOLOGIES = [
    RankTopology(tp=1, dcp=32, pp=1),
    RankTopology(tp=4, dcp=8, pp=1),
    RankTopology(tp=8, dcp=4, pp=1),
    RankTopology(tp=4, dcp=4, pp=2),
    RankTopology(tp=4, dcp=2, pp=4),
]


def test_ablation_hybrid_topologies(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=1)

    def run():
        batch = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"]()
        )[0]
        table = Table(
            "Ablation: TP x DCP x PP topology (8B GPT, 4x8 GPUs)",
            ["topology", "iter_s", "bubble", "tp_comm_s", "grad_sync_s"],
        )
        for topology in TOPOLOGIES:
            config = HybridConfig(
                topology=topology,
                num_microbatches=max(2 * topology.pp, 2),
                dcp_config=DCPConfig(block_size=scale.block_size,
                                     placement=PlacementConfig(restarts=1)),
            )
            result = hybrid_iteration_time(batch, CLUSTER, config)
            table.add(
                topology.describe(),
                result.iteration_time,
                result.pipeline.bubble_fraction,
                result.tp_comm_time,
                result.grad_sync_time,
            )
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_hybrid.md"))
    table.show()

    rows = {
        topo: (iter_s, bubble)
        for topo, iter_s, bubble, _, _ in table.rows
    }
    # TP=4 (the paper's end-to-end setting) beats pure context
    # parallelism on this model/cluster.
    assert rows["tp=4 dcp=8 pp=1"][0] < rows["tp=1 dcp=32 pp=1"][0]
    # Pipeline stages cost bubble; deeper pipelines cost more.
    assert rows["tp=4 dcp=4 pp=2"][1] > 0.0
    assert rows["tp=4 dcp=2 pp=4"][1] > rows["tp=4 dcp=4 pp=2"][1]
    # No-PP configurations have no bubble.
    assert rows["tp=4 dcp=8 pp=1"][1] == 0.0


def test_ablation_microbatches_amortize_bubble(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=1)

    def run():
        batch = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"]()
        )[0]
        table = Table(
            "Ablation: microbatches vs pipeline bubble (tp=4, pp=2)",
            ["microbatches", "iter_s", "bubble"],
        )
        topology = RankTopology(tp=4, dcp=4, pp=2)
        for microbatches in (1, 2, 4, 8):
            config = HybridConfig(
                topology=topology,
                num_microbatches=microbatches,
                dcp_config=DCPConfig(block_size=scale.block_size,
                                     placement=PlacementConfig(restarts=1)),
            )
            result = hybrid_iteration_time(batch, CLUSTER, config)
            table.add(
                microbatches,
                result.iteration_time,
                result.pipeline.bubble_fraction,
            )
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_microbatches.md"))
    table.show()

    bubbles = dict(zip(table.column("microbatches"), table.column("bubble")))
    assert bubbles[8] < bubbles[1]
