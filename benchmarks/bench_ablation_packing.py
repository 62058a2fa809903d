"""Ablation: packing strategies vs placement dynamism (paper §8).

Hierarchical Balance Packing [48] and WLB-LLM [45] fight input
dynamism by *choosing which sequences share a batch*; DCP fights it by
*placing whatever batch arrives*.  This ablation crosses the two: four
packing strategies x {static TE baseline, DCP}, measuring mean
attention time per iteration over a fixed sequence pool.  The paper's
position — packing helps the static system but DCP extracts most of
the benefit regardless of packing — becomes measurable.
"""

import os

import numpy as np
from conftest import run_once
from figures import Table
from offline_packers import PACKERS

from repro.baselines import TransformerEnginePlanner
from repro.bench import BenchScale, PAPER_MASKS
from repro.blocks import generate_blocks
from repro.core import DCPPlanner
from repro.data import batches_to_specs, sample_lengths
from repro.sim import simulate_plan


def test_ablation_packing_strategies(benchmark, results_dir):
    scale = BenchScale.sweep()
    num_batches = 3

    def run():
        lengths = sample_lengths("longdatacollections", 400, seed=0)
        table = Table(
            "Ablation: packing strategy x system (causal, mean over batches)",
            ["packing", "system", "fw_ms", "workload_imbal"],
        )
        systems = {
            "te": TransformerEnginePlanner(),
            "dcp": DCPPlanner(
                scale.cluster, scale.attention, scale.dcp_config()
            ),
        }
        results = {}
        for pack_name, packer in PACKERS.items():
            packed = packer(
                lengths,
                token_budget=scale.token_budget,
                max_seqlen=scale.max_seqlen,
            )
            specs = batches_to_specs(
                packed[:num_batches], PAPER_MASKS["causal"]()
            )
            work = np.array(
                [sum(float(n) ** 2 for n in batch) for batch in packed],
                dtype=np.float64,
            )
            imbalance = float(work.max() / work.mean() - 1.0)
            for system, planner in systems.items():
                times = []
                for batch in specs:
                    block_set = generate_blocks(
                        batch, scale.attention, scale.block_size
                    )
                    plan = planner.plan(block_set, scale.cluster)
                    times.append(simulate_plan(plan).iteration_time)
                mean_ms = 1e3 * float(np.mean(times))
                table.add(pack_name, system, mean_ms, imbalance)
                results[(pack_name, system)] = mean_ms
        return table, results

    table, results = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_packing.md"))
    table.show()

    # DCP beats the static baseline under every packing strategy —
    # packing cannot substitute for placement-side dynamism.
    for pack_name in PACKERS:
        assert results[(pack_name, "dcp")] < results[(pack_name, "te")]
    # DCP's spread across packing strategies is narrower than the
    # baseline's: placement dynamism absorbs packing decisions.
    dcp_times = np.array([results[(p, "dcp")] for p in PACKERS])
    te_times = np.array([results[(p, "te")] for p in PACKERS])
    assert (
        dcp_times.std() / dcp_times.mean()
        <= te_times.std() / te_times.mean() + 0.25
    )
