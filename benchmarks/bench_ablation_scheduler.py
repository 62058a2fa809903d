"""Ablation: division-scheduling strategy (paper §7.5's open problem).

The paper observes that under causal masks its scheduler can *lose*
computation/communication overlap ("we attribute this to limitations
in the scheduling algorithm and believe further research could improve
its performance").  The root cause this reproduction identifies:
Listing 3 packs every communication-free block into division 0, so
later divisions may hold lots of transfers with little compute to hide
them behind.  The ``balanced`` strategy spreads compute evenly across
divisions under the same communication budget; this ablation measures
whether that buys exposed-communication time back.
"""

import os

import numpy as np
from conftest import run_once
from figures import Table

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.blocks import generate_blocks
from repro.placement import PlacementConfig, place_blocks
from repro.scheduling import fill_divisions, serialize_schedule
from repro.sim import simulate_plan


def test_ablation_scheduler_strategy(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: division scheduling strategy (T=4)",
            ["mask", "strategy", "fw_ms", "exposed_comm_ms", "overlap_ms"],
        )
        results = {}
        for mask_name in ("causal", "lambda"):
            batches = make_batches(
                "longdatacollections",
                scale,
                PAPER_MASKS[mask_name](),
                length_scale=4.0,
            )
            plans = []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                placement = place_blocks(
                    block_set, scale.cluster,
                    PlacementConfig(seed=0, restarts=1),
                )
                plans.append((block_set, placement))
            for strategy in ("paper", "balanced"):
                times, exposed, overlap = [], [], []
                for block_set, placement in plans:
                    plan = serialize_schedule(
                        fill_divisions(
                            block_set, placement, num_divisions=4,
                            strategy=strategy,
                        )
                    )
                    timing = simulate_plan(plan)
                    times.append(timing.iteration_time)
                    critical = timing.critical_device
                    exposed.append(critical.exposed_comm)
                    overlap.append(critical.overlap_time)
                row = (
                    1e3 * float(np.mean(times)),
                    1e3 * float(np.mean(exposed)),
                    1e3 * float(np.mean(overlap)),
                )
                table.add(mask_name, strategy, *row)
                results[(mask_name, strategy)] = row
        return table, results

    table, results = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_scheduler.md"))
    table.show()

    for mask_name in ("causal", "lambda"):
        paper_fw = results[(mask_name, "paper")][0]
        balanced_fw = results[(mask_name, "balanced")][0]
        # The balanced strategy must not regress; the interesting
        # question (answered by the table) is how much it helps where
        # the paper reported lost overlap.
        assert balanced_fw <= paper_fw * 1.10
