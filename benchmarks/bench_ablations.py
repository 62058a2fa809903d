"""Ablations of DCP's design choices (beyond the paper's figures).

1. Number of divisions T (paper fixes 4 empirically).
2. Partitioner warm starts on/off.
3. Hierarchical vs flat placement.
"""

import os
from dataclasses import replace

import numpy as np
from conftest import run_once
from figures import Table

from repro.bench import BenchScale, make_batches, PAPER_MASKS
from repro.blocks import generate_blocks
from repro.core import DCPConfig, DCPPlanner
from repro.placement import Placement, PlacementConfig, place_blocks
from repro.scheduling import (
    build_schedule,
    fill_divisions,
    serialize_schedule,
)
from repro.sim import simulate_plan


def _batches(scale, length_scale=1.0):
    return make_batches(
        "longdatacollections", scale, PAPER_MASKS["causal"](), length_scale
    )


def test_ablation_num_divisions(benchmark, results_dir):
    """More divisions improve overlap up to a point (paper uses T=4).

    Run with 4x-scaled lengths so communication matters: with tiny
    batches every division only adds kernel-launch overhead and T=1
    trivially wins.  The fixed-T rows come from ``fill_divisions``; the
    "chosen" row is ``build_schedule`` pricing T in {1, 2, 4, 8} per
    plan, which may lose to no fixed row.  Every row schedules the
    partitioned placement (its static alternatives dropped), so the
    table ablates T alone.
    """
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: number of divisions T",
            ["T", "fw_ms", "exposed_comm_ms"],
        )
        placed = []
        for batch in _batches(scale, length_scale=4.0):
            block_set = generate_blocks(
                batch, scale.attention, scale.block_size
            )
            placement = place_blocks(
                block_set, scale.cluster,
                PlacementConfig(seed=0, restarts=1),
            )
            placed.append((block_set, replace(placement, alternatives=[])))
        for num_divisions in (1, 2, 4, 8, "chosen"):
            times, exposed = [], []
            for block_set, placement in placed:
                if num_divisions == "chosen":
                    schedule = build_schedule(block_set, placement, 8)
                else:
                    schedule = fill_divisions(
                        block_set, placement, num_divisions
                    )
                timing = simulate_plan(serialize_schedule(schedule))
                times.append(timing.iteration_time)
                exposed.append(timing.critical_device.exposed_comm)
            table.add(num_divisions, 1e3 * float(np.mean(times)),
                      1e3 * float(np.mean(exposed)))
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_divisions.md"))
    table.show()
    times = dict(zip(table.column("T"), table.column("fw_ms")))
    exposed = dict(zip(table.column("T"), table.column("exposed_comm_ms")))
    assert times[4] <= times[1] * 1.05, "T=4 should not lose to T=1"
    assert exposed[4] <= exposed[1], "overlap must hide communication"
    # The choice prices forward + backward, the table forward alone.
    assert times["chosen"] <= min(times[t] for t in (1, 2, 4, 8)) * 1.05


def test_ablation_warm_starts(benchmark, results_dir):
    """Warm starts bound DCP's communication by the static heuristics."""
    scale = BenchScale.sweep(num_batches=2)

    def run():
        table = Table(
            "Ablation: partitioner warm starts",
            ["warm_starts", "comm_mb", "plan_s"],
        )
        batches = _batches(scale)
        for warm in (True, False):
            volumes, times = [], []
            planner = DCPPlanner(
                scale.cluster, scale.attention,
                DCPConfig(
                    block_size=scale.block_size,
                    placement=PlacementConfig(restarts=1,
                                              use_warm_starts=warm),
                ),
            )
            for batch in batches:
                plan = planner.plan_batch(batch)
                volumes.append(plan.total_comm_bytes())
                times.append(plan.meta["planning_stats"].total)
            table.add(str(warm), float(np.mean(volumes)) / 1e6,
                      float(np.mean(times)))
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_warm_starts.md"))
    table.show()
    volumes = dict(zip(table.column("warm_starts"), table.column("comm_mb")))
    assert volumes["True"] <= volumes["False"] * 1.2


def test_ablation_hierarchical_vs_flat(benchmark, results_dir):
    """Hierarchical placement prioritizes the slow inter-node links."""
    from repro.sim import ClusterSpec

    scale = BenchScale.sweep(num_batches=2)
    flat_cluster = ClusterSpec(
        num_machines=1,
        devices_per_machine=scale.cluster.num_devices,
        inter_bandwidth=scale.cluster.inter_bandwidth,
    )

    def run():
        table = Table(
            "Ablation: hierarchical vs flat placement",
            ["mode", "inter_mb", "total_mb"],
        )
        batches = _batches(scale)
        for mode in ("hierarchical", "flat"):
            inter, total = [], []
            for batch in batches:
                block_set = generate_blocks(
                    batch, scale.attention, scale.block_size
                )
                # Flat partitions over all devices in one level; both
                # modes' labels are lowered on the real 2-node topology.
                placement = place_blocks(
                    block_set,
                    scale.cluster if mode == "hierarchical" else flat_cluster,
                    PlacementConfig(seed=0, restarts=1),
                )
                on_cluster = Placement(
                    block_set, scale.cluster,
                    placement.slice_device, placement.comp_device,
                )
                plan = serialize_schedule(
                    fill_divisions(block_set, on_cluster, 1)
                )
                inter.append(plan.inter_machine_bytes())
                total.append(plan.total_comm_bytes())
            table.add(mode, float(np.mean(inter)) / 1e6,
                      float(np.mean(total)) / 1e6)
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_hierarchical.md"))
    table.show()
    inter = dict(zip(table.column("mode"), table.column("inter_mb")))
    assert inter["hierarchical"] <= inter["flat"] * 1.1
