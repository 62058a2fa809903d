"""Ablation: hiding planning behind execution (paper §6.1 / Fig. 18).

Fig. 18's text claims planning of <10 s per batch "can perfectly
overlap model execution time (> 1 second per iteration) using our
pre-fetching and parallel planning design if planning is parallelized
with more than 10 CPU cores".  This ablation closes the loop with
*measured* quantities: per-batch planning times from the real planner,
per-iteration execution times from the 8B-GPT cost model, replayed
through the §6.1 look-ahead pipeline at varying core counts.

This ablation replays the *analytic* pipeline model; the real thing —
background planner workers measured against wall time — lives in
:mod:`repro.pipeline` and ``bench_overlap_pipeline.py`` (which writes
``BENCH_overlap.json``).
"""

import math
import os

import numpy as np
from conftest import run_once
from figures import Table

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.core import DCPPlanner, simulate_planning_overlap
from repro.sim import e2e_iteration_time


def _hidden(timeline, warmup: int) -> bool:
    """No execution stall after the first ``warmup`` iterations (the
    pipeline's ramp-up from a cold start)."""
    return all(stall <= 1e-9 for stall in timeline.stalls[warmup:])


def min_cores_to_hide_planning(plan_times, exec_times, lookahead, warmup,
                               max_cores=128):
    """Smallest cores-per-machine hiding all steady-state planning, or
    ``None`` when even ``max_cores`` cannot (a batch planning longer
    than ``lookahead`` iterations of execution never hides)."""
    for cores in range(1, max_cores + 1):
        timeline = simulate_planning_overlap(
            plan_times, exec_times, cores_per_machine=cores,
            lookahead=lookahead,
        )
        if _hidden(timeline, warmup):
            return cores
    return None


def _measure(scale, num_batches=4):
    """Real (planning time, simulated execution time) per batch."""
    batches = make_batches(
        "longdatacollections",
        scale,
        PAPER_MASKS["causal"](),
    )[:num_batches]
    planner = DCPPlanner(scale.cluster, scale.attention, scale.dcp_config())
    plan_times, exec_times = [], []
    for batch in batches:
        plan = planner.plan_batch(batch)
        plan_times.append(planner.last_stats.total)
        exec_times.append(e2e_iteration_time(plan).iteration_time)
    return plan_times, exec_times


def test_ablation_planner_overlap(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=4, block_size=512)

    def run():
        plan_times, exec_times = _measure(scale)
        ratio = float(np.mean(plan_times)) / float(np.mean(exec_times))
        # Latency bound: the *slowest* plan must fit inside the
        # look-ahead window of the *fastest* iterations; throughput
        # bound (cores) is governed by the mean ratio.
        worst = float(np.max(plan_times)) / float(np.min(exec_times))
        lookahead = int(math.ceil(worst)) + 2
        warmup = 2 * (lookahead + 1)
        # Replicate the measured profile so steady state dominates.
        repeats = max(8, math.ceil(3 * warmup / len(plan_times)))
        plan_seq = list(plan_times) * repeats
        exec_seq = list(exec_times) * repeats

        table = Table(
            "Ablation: planning overlap vs CPU cores "
            f"(plan/exec ratio {ratio:.1f}x, lookahead {lookahead})",
            ["cores", "stall_fraction", "hidden"],
        )
        core_sweep = sorted(
            {1, 2, 4, max(1, int(ratio / 2)), int(ratio) + 1}
        )
        for cores in core_sweep:
            timeline = simulate_planning_overlap(
                plan_seq,
                exec_seq,
                cores_per_machine=cores,
                lookahead=lookahead,
            )
            table.add(
                cores,
                timeline.stall_fraction,
                str(_hidden(timeline, warmup)),
            )
        min_cores = min_cores_to_hide_planning(
            plan_seq, exec_seq, lookahead=lookahead, warmup=warmup
        )
        table.add("min to hide", float(min_cores or -1), "-")
        return table, ratio, min_cores

    (table, ratio, min_cores) = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_planner_overlap.md"))
    table.show()

    stalls = {
        cores: stall
        for cores, stall, _ in table.rows
        if isinstance(cores, int)
    }
    core_axis = sorted(stalls)
    # More cores monotonically reduce stalls; enough cores hide planning.
    for few, many in zip(core_axis, core_axis[1:]):
        assert stalls[many] <= stalls[few] + 1e-12
    assert min_cores is not None
    # The paper's rule of thumb: cores ~ plan/exec ratio suffice.
    assert min_cores <= int(math.ceil(ratio)) + 2
