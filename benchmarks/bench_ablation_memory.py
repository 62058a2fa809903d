"""Ablation: memory balance across systems (paper §2.3 / §4.2).

The paper's core balancing argument: memory grows linearly with a
device's tokens while attention computation grows quadratically, so
pure DP (Fig. 5b) can balance memory yet wreck compute, and any
placement must balance both.  This ablation measures, on a skewed
batch, the buffer high-water marks and compute loads that each system's
placement actually produces.
"""

import os

import numpy as np
from conftest import run_once
from figures import Table

from repro.baselines import RingAttentionPlanner
from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.blocks import generate_blocks
from repro.core import DCPPlanner
from repro.placement import build_block_hypergraph, static_placement
from repro.scheduling import build_schedule, serialize_schedule
from repro.sim import plan_memory, simulate_plan


def _dp_pack_plan(block_set, cluster):
    """Pure DP (Fig. 5b): whole sequences packed onto devices."""
    bhg = build_block_hypergraph(block_set)
    placement = static_placement(bhg, cluster, "dp_pack")
    return serialize_schedule(build_schedule(block_set, placement))


def _systems(scale):
    """Name -> ``plan(block_set, cluster)`` for each compared system."""
    dcp = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    return {
        "rfa_zigzag": RingAttentionPlanner(zigzag=True).plan,
        "dp_pack": _dp_pack_plan,
        "dcp": dcp.plan,
    }


def _imbalance(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.mean() == 0:
        return 0.0
    return float(values.max() / values.mean() - 1.0)


def test_ablation_memory_balance(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: memory and compute balance per system",
            ["system", "mem_max_mb", "mem_imbal", "compute_imbal"],
        )
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"]()
        )
        for name, plan_batch in _systems(scale).items():
            mem_max, mem_imb, comp_imb = [], [], []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                plan = plan_batch(block_set, scale.cluster)
                report = plan_memory(plan)
                mem_max.append(report.max_bytes)
                mem_imb.append(report.imbalance())
                timing = simulate_plan(plan)
                comp_imb.append(
                    _imbalance(
                        [d.compute_time for d in timing.devices.values()]
                    )
                )
            table.add(
                name,
                float(np.mean(mem_max)) / 1e6,
                float(np.mean(mem_imb)),
                float(np.mean(comp_imb)),
            )
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_memory.md"))
    table.show()

    rows = {name: (mx, mi, ci) for name, mx, mi, ci in table.rows}
    # DCP balances both dimensions: no device holds wildly more buffer
    # memory than the mean, and compute stays within the paper's
    # intra-node tolerance regime.
    assert rows["dcp"][1] < 1.0, "DCP memory imbalance should stay bounded"
    assert rows["dcp"][2] < 1.0, "DCP compute imbalance should stay bounded"
    # DCP's peak memory does not exceed the static ring's by much: the
    # ring's peak includes two in-flight KV chunks, DCP's includes its
    # fetch buffers.
    assert rows["dcp"][0] <= rows["rfa_zigzag"][0] * 2.0
