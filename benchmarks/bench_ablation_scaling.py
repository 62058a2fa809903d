"""Ablation: planning-cost scaling (paper §8 "Scaling to larger clusters").

The paper argues DCP's planning overhead scales *sub-linearly* with
cluster size for a fixed input — partitioning depends mostly on the
number of blocks, not devices — and that batch-size growth is managed
by node grouping (DCP within groups, DP across).  Both claims are
measured here, plus the plan cache's hit behaviour on a repeating
length stream (§6.1 reuse).
"""

import os
import time
from dataclasses import replace

import numpy as np
from conftest import run_once
from figures import smoke_scale, Table

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.blocks import BatchSpec
from repro.core import DCPConfig, DCPPlanner, PlanCache, batch_signature
from repro.parallel import split_batch_by_workload
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec


def test_ablation_planning_vs_cluster_size(benchmark, results_dir):
    """Fixed input, growing cluster: planning grows sub-linearly."""
    scale = BenchScale.sweep(num_batches=2)

    def run():
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"]()
        )
        table = Table(
            "Ablation: planning time vs cluster size (fixed input)",
            ["devices", "plan_s", "per_device_ms"],
        )
        for machines in (1, 2, 4, 8):
            cluster = ClusterSpec(num_machines=machines, devices_per_machine=4)
            planner = DCPPlanner(
                cluster, scale.attention,
                DCPConfig(block_size=scale.block_size,
                          placement=PlacementConfig(restarts=1)),
            )
            times = []
            for batch in batches:
                plan = planner.plan_batch(batch)
                times.append(plan.meta["planning_stats"].total)
            mean = float(np.mean(times))
            table.add(cluster.num_devices, mean,
                      1e3 * mean / cluster.num_devices)
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_scaling_cluster.md"))
    table.show()

    times = dict(zip(table.column("devices"), table.column("plan_s")))
    # Sub-linear: 8x the devices costs far less than 8x the planning.
    assert times[32] < 8 * times[4]


def test_ablation_grouping_scales_batch_size(benchmark, results_dir):
    """Bigger batches planned via groups: planning stays near-flat."""
    scale = BenchScale.sweep(num_batches=1)

    def run():
        base = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"](),
        )[0]
        table = Table(
            "Ablation: node grouping vs batch growth",
            ["batch_x", "mode", "plan_s"],
        )
        cluster = ClusterSpec(num_machines=4, devices_per_machine=4)
        for factor in (1, 2, 4):
            batch = BatchSpec(base.sequences * factor)
            start = time.perf_counter()
            planner = DCPPlanner(
                cluster, scale.attention,
                DCPConfig(block_size=scale.block_size,
                          placement=PlacementConfig(restarts=1)),
            )
            planner.plan_batch(batch)
            table.add(factor, "monolithic", time.perf_counter() - start)

            start = time.perf_counter()
            group_cluster = replace(
                cluster, num_machines=cluster.num_machines // factor
            )
            group_planner = DCPPlanner(
                group_cluster, scale.attention,
                DCPConfig(block_size=scale.block_size,
                          placement=PlacementConfig(restarts=1)),
            )
            for group in split_batch_by_workload(batch, factor):
                if group is not None:
                    group_planner.plan_batch(group)
            # Groups plan independently; the paper runs them on separate
            # CPU cores, so charge the slowest group, not the sum.
            elapsed = (time.perf_counter() - start) / factor
            table.add(factor, "grouped (per-core)", elapsed)
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_scaling_batch.md"))
    table.show()

    grouped = [
        plan_s
        for batch_x, mode, plan_s in table.rows
        if mode == "grouped (per-core)"
    ]
    monolithic = [
        plan_s
        for batch_x, mode, plan_s in table.rows
        if mode == "monolithic"
    ]
    # At 4x batch size, grouped planning beats monolithic planning.
    assert grouped[-1] < monolithic[-1]


def test_ablation_plan_cache_hits(benchmark, results_dir):
    """Repeating length signatures are served from the plan cache."""
    scale = smoke_scale()

    def run():
        batches = make_batches(
            "longdatacollections", scale, PAPER_MASKS["causal"](),
            num_sequences=200,
        )
        # A stream that revisits each batch several times (data loaders
        # commonly shuffle a bounded pool of packed shapes).
        stream = (batches * 6)[: len(batches) * 6]
        planner = DCPPlanner(
            scale.cluster, scale.attention,
            DCPConfig(block_size=scale.block_size,
                      placement=PlacementConfig(restarts=1)),
        )
        cache = PlanCache(planner, capacity=32)
        hits = misses = 0
        cold_s = warm_s = 0.0
        for batch in stream:
            key = batch_signature(batch)
            known = cache.peek(key) is not None
            start = time.perf_counter()
            status, _plan, epoch = cache.reserve(key)
            if status == "own":
                cache.publish(key, planner.plan_batch(batch), epoch)
            elapsed = time.perf_counter() - start
            if known:
                hits += 1
                warm_s += elapsed
            else:
                misses += 1
                cold_s += elapsed
        table = Table(
            "Ablation: plan cache on a repeating stream",
            ["metric", "value"],
        )
        table.add("hits", hits)
        table.add("misses", misses)
        table.add("hit_rate", hits / (hits + misses))
        table.add("mean_cold_ms", 1e3 * cold_s / max(misses, 1))
        table.add("mean_warm_ms", 1e3 * warm_s / max(hits, 1))
        return table

    table = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_plan_cache.md"))
    table.show()

    values = dict(zip(table.column("metric"), table.column("value")))
    assert values["hit_rate"] > 0.8
    assert values["mean_warm_ms"] < values["mean_cold_ms"] / 10
