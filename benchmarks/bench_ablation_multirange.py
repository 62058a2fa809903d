"""Ablation: masks beyond the 2-range executor limit (§5 extension).

The paper's executor caps masks at two attendable ranges per token and
defers richer patterns to FlexAttention/FlashMask.  This reproduction's
attend ranges hold ``K`` ranges per row, so Fig. 19's claim —
communication tracks mask sparsity — can be re-tested on mask families
the paper could not run: LongNet-style dilated block attention and
Longformer-style global tokens.
"""

import os

import numpy as np
from conftest import run_once
from figures import Table

from repro.bench import BenchScale, make_batches
from repro.blocks import generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.masks import CausalMask, DilatedBlockMask, GlobalTokenMask
from repro.placement import PlacementConfig
from repro.sim import simulate_plan

MASKS = {
    "causal": lambda: CausalMask(),
    "dilated_w4096": lambda: DilatedBlockMask(
        block=512, stride=4, window=4096
    ),
    "dilated_w2048": lambda: DilatedBlockMask(
        block=512, stride=8, window=2048
    ),
    "global_e2048": lambda: GlobalTokenMask(every=2048, window=4096),
    "global_e4096": lambda: GlobalTokenMask(every=4096, window=2048),
}


def test_ablation_multirange_masks(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: multi-range masks (communication tracks sparsity)",
            ["mask", "max_ranges", "sparsity", "fw_ms", "comm_mb"],
        )
        planner = DCPPlanner(
            scale.cluster, scale.attention,
            DCPConfig(block_size=scale.block_size,
                      placement=PlacementConfig(restarts=1)),
        )
        probe_len = scale.max_seqlen // 2
        block = scale.block_size  # max_ranges: the widest tile window's K
        for name, factory in MASKS.items():
            mask = factory()
            batches = make_batches(
                "longdatacollections", scale, mask, length_scale=2.0
            )
            times, volumes = [], []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                plan = planner.plan(block_set, scale.cluster)
                times.append(simulate_plan(plan).iteration_time)
                volumes.append(plan.total_comm_bytes())
            table.add(
                name,
                max(
                    mask.ranges(probe_len, lo, min(lo + block, probe_len))
                    .max_ranges_per_row()
                    for lo in range(0, probe_len, block)
                ),
                mask.sparsity_vs_causal(probe_len),
                1e3 * float(np.mean(times)),
                float(np.mean(volumes)) / 1e6,
            )
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_multirange.md"))
    table.show()

    rows = {name: (s, fw, mb) for name, _, s, fw, mb in table.rows}
    ranges = dict(zip(table.column("mask"), table.column("max_ranges")))
    # These mask families genuinely exceed the paper's 2-range limit.
    assert any(r > 2 for r in ranges.values())
    # Fig. 19 extended: sparser masks communicate less than causal.
    for name, (sparsity, _, comm) in rows.items():
        if name != "causal":
            assert sparsity < 1.0
            assert comm <= rows["causal"][2] * 1.05
    # And communication correlates positively with sparsity.
    names = [n for n in rows if n != "causal"]
    sparsities = np.array([rows[n][0] for n in names])
    comms = np.array([rows[n][2] for n in names])
    if comms.std() > 0 and sparsities.std() > 0:
        corr = float(np.corrcoef(sparsities, comms)[0, 1])
        assert corr > -0.5, "communication should not anti-correlate"
