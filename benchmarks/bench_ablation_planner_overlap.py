"""Ablation: hiding planning behind execution (paper §6.1 / Fig. 18).

Fig. 18's text claims planning of <10 s per batch "can perfectly
overlap model execution time (> 1 second per iteration) using our
pre-fetching and parallel planning design if planning is parallelized
with more than 10 CPU cores".  This ablation closes the loop with
*measured* quantities: per-batch planning times from the real planner,
per-iteration execution times from the 8B-GPT cost model, replayed
through the §6.1 look-ahead pipeline at varying core counts.  A second
replay keeps the measured plans and scales execution down to a
plan/exec ratio of ``STALL_RATIO``, where one core must stall and more
cores must hide planning again.

The replay is :class:`repro.pipeline.StreamingOverlapPipeline` itself on
virtual time (:func:`repro.pipeline.replay`); the same pipeline measured
against wall time is ``bench_overlap_pipeline.py`` (which writes
``BENCH_overlap.json``).
"""

import math
import os

import numpy as np
from conftest import run_once
from figures import Table

from repro.bench import BenchScale, PAPER_MASKS, make_batches
from repro.core import DCPPlanner
from repro.pipeline import replay
from repro.sim import e2e_iteration_time


def _hidden(stats, warmup: int) -> bool:
    """No execution stall after the first ``warmup`` iterations (the
    pipeline's ramp-up from a cold start)."""
    return all(record.stall <= 1e-9 for record in stats.records[warmup:])


def min_cores_to_hide_planning(plan_times, exec_times, lookahead, warmup,
                               max_cores=128):
    """Smallest cores-per-machine hiding all steady-state planning, or
    ``None`` when even ``max_cores`` cannot (a batch planning longer
    than ``lookahead`` iterations of execution never hides)."""
    for cores in range(1, max_cores + 1):
        if _hidden(replay(plan_times, exec_times, cores, lookahead), warmup):
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
        plan_times.append(plan.meta["planning_stats"].total)
        exec_times.append(e2e_iteration_time(plan).iteration_time)
    return plan_times, exec_times


#: Plan/exec ratio of the scaled replay: the measured plans against
#: execution shortened until one core cannot keep up.
STALL_RATIO = 4.0


def _sweep(table, profile, plan_times, exec_times):
    """Replay one (planning, execution) profile at several core counts;
    returns ``(ratio, stalls by cores, hidden by cores, min cores)``."""
    ratio = float(np.mean(plan_times)) / float(np.mean(exec_times))
    # Latency bound: the *slowest* plan must fit inside the look-ahead
    # window of the *fastest* iterations; throughput bound (cores) is
    # governed by the mean ratio.
    worst = float(np.max(plan_times)) / float(np.min(exec_times))
    lookahead = int(math.ceil(worst)) + 2
    warmup = 2 * (lookahead + 1)
    # Replicate the profile so steady state dominates.
    repeats = max(8, math.ceil(3 * warmup / len(plan_times)))
    plan_seq = list(plan_times) * repeats
    exec_seq = list(exec_times) * repeats
    stalls, hidden = {}, {}
    for cores in sorted({1, 2, 4, max(1, int(ratio / 2)), int(ratio) + 1}):
        stats = replay(plan_seq, exec_seq, cores, lookahead)
        stalls[cores] = stats.stall_fraction
        hidden[cores] = _hidden(stats, warmup)
        table.add(profile, ratio, lookahead, cores, stalls[cores],
                  str(hidden[cores]))
    min_cores = min_cores_to_hide_planning(
        plan_seq, exec_seq, lookahead=lookahead, warmup=warmup
    )
    table.add(profile, ratio, lookahead, "min to hide",
              float(min_cores or -1), "-")
    return ratio, stalls, hidden, min_cores


def test_ablation_planner_overlap(benchmark, results_dir):
    scale = BenchScale.sweep(num_batches=4, block_size=512)

    def run():
        plan_times, exec_times = _measure(scale)
        table = Table(
            "Ablation: planning overlap vs CPU cores",
            ["profile", "plan/exec", "lookahead", "cores", "stall_fraction",
             "hidden"],
        )
        measured = _sweep(table, "measured", plan_times, exec_times)
        # On a fast host the measured plans take less than an
        # iteration, so one core hides them all and the sweep above
        # shows no stall.  The same plans against execution scaled to
        # a plan/exec ratio of STALL_RATIO must need more cores; the
        # replay runs on virtual time, so this is exact on any host.
        shrink = measured[0] / STALL_RATIO
        scaled = _sweep(table, f"exec x{shrink:.3g}", plan_times,
                        [seconds * shrink for seconds in exec_times])
        return table, measured, scaled

    table, measured, scaled = run_once(benchmark, run)
    table.save(os.path.join(results_dir, "ablation_planner_overlap.md"))
    table.show()

    for ratio, stalls, _hidden_by_cores, min_cores in (measured, scaled):
        core_axis = sorted(stalls)
        # More cores monotonically reduce stalls; enough cores hide
        # planning.
        for few, many in zip(core_axis, core_axis[1:]):
            assert stalls[many] <= stalls[few] + 1e-12
        assert min_cores is not None
        # The paper's rule of thumb: cores ~ plan/exec ratio suffice.
        assert min_cores <= int(math.ceil(ratio)) + 2
    ratio, stalls, hidden, min_cores = scaled
    assert ratio >= 3.0
    # Too few cores stall: one core cannot hide plans that take
    # several iterations each.
    assert stalls[1] > 0.0 and not hidden[1]
    assert min_cores >= 2
