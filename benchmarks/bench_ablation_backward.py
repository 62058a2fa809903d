"""Ablation: analytic vs executed attention backward.

The evaluation figures price the backward pass analytically (2.5x tile
FLOPs, 2x bytes — paper §7 convention).  This repository also
implements the *real* distributed backward (same placement and
divisions, KV re-fetched, dQ/dKV partials shipped home).  This bench
validates the analytic model against the executed plan: simulated times
should agree within tens of percent, and the measured wire-traffic
ratio should straddle the 2x assumption.
"""

import os

import numpy as np
from conftest import run_once

from repro.bench import BenchScale, PAPER_MASKS, Table, make_batches
from repro.blocks import generate_blocks
from repro.placement import PlacementConfig, place_blocks
from repro.scheduling import (
    fill_divisions,
    serialize_backward_schedule,
    serialize_schedule,
)
from repro.sim import simulate_plan


def test_ablation_backward_model(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: analytic vs executed attention backward",
            ["mask", "analytic_bw_ms", "executed_bw_ms", "bytes_ratio"],
        )
        for mask_name in ("causal", "lambda", "shared_question"):
            batches = make_batches(
                "longdatacollections", scale, PAPER_MASKS[mask_name](),
                length_scale=2.0,
            )
            analytic, executed, ratios = [], [], []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                placement = place_blocks(
                    block_set, scale.cluster,
                    PlacementConfig(seed=0, restarts=1),
                )
                schedule = fill_divisions(block_set, placement, 4)
                forward_plan = serialize_schedule(schedule)
                backward_plan = serialize_backward_schedule(schedule)
                analytic.append(
                    simulate_plan(forward_plan, backward=True).iteration_time
                )
                executed.append(
                    simulate_plan(backward_plan).iteration_time
                )
                fw_bytes = forward_plan.total_comm_bytes()
                bw_bytes = backward_plan.total_comm_bytes()
                if fw_bytes > 0:
                    ratios.append(bw_bytes / fw_bytes)
            table.add(
                mask_name,
                1e3 * float(np.mean(analytic)),
                1e3 * float(np.mean(executed)),
                float(np.mean(ratios)) if ratios else float("nan"),
            )
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_backward.md"))
    table.show()

    for mask, analytic_ms, executed_ms, bytes_ratio in table.rows:
        # The analytic model should be the right order of magnitude.
        assert 0.3 < analytic_ms / executed_ms < 3.0, mask
        if not np.isnan(bytes_ratio):
            # Real backward moves more than forward (KV in + grads out).
            assert bytes_ratio > 1.0, mask
