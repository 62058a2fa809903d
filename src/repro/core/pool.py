"""Analytic model of look-ahead planning (paper §6.1, Fig. 18).

:func:`simulate_planning_overlap` is the model behind the paper's claim
that planning of up to 10 s per batch "can perfectly overlap model
execution time (> 1 second per iteration) ... if planning is
parallelized with more than 10 CPU cores".  Given per-iteration
planning and execution times, machine count and cores per machine, it
replays the §6.1 pipeline and reports the execution stalls caused by
late plans.  The working plumbing it models — planner instances on
every machine publishing plans through a key-value store — is
:class:`repro.pipeline.KVPlannerBackend`; the measured counterpart of
the replay is :class:`repro.pipeline.StreamingOverlapPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

__all__ = ["PlanningTimeline", "simulate_planning_overlap"]


@dataclass
class PlanningTimeline:
    """Result of replaying the §6.1 planning/execution pipeline."""

    exec_start: List[float]
    exec_end: List[float]
    plan_start: List[float]
    plan_end: List[float]
    stalls: List[float]

    @property
    def total_stall(self) -> float:
        return sum(self.stalls)

    @property
    def stall_fraction(self) -> float:
        if not self.exec_end:
            return 0.0
        busy = sum(e - s for s, e in zip(self.exec_start, self.exec_end))
        return self.total_stall / (self.total_stall + busy)


def simulate_planning_overlap(
    plan_times: Sequence[float],
    exec_times: Sequence[float],
    num_machines: int = 1,
    cores_per_machine: int = 1,
    lookahead: int = 2,
) -> PlanningTimeline:
    """Replay the look-ahead planning pipeline against execution.

    Planning of iteration ``i`` runs on machine ``i % num_machines``,
    which processes at most ``cores_per_machine`` plans concurrently.
    Planning for an iteration may begin once the window allows it (the
    dataloader prefetches ``lookahead`` iterations beyond the one
    currently executing, so job ``i`` becomes available when iteration
    ``i - lookahead - 1`` starts executing; the first ``lookahead + 1``
    jobs are available at time zero).  Execution of iteration ``i``
    starts at ``max(end of i-1, plan i done)``; the difference is the
    stall the paper's design must avoid.
    """
    if len(plan_times) != len(exec_times):
        raise ValueError("need matching plan and exec time lists")
    if num_machines < 1 or cores_per_machine < 1:
        raise ValueError("need at least one machine and one core")
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")
    n = len(plan_times)
    if n == 0:
        return PlanningTimeline([], [], [], [], [])

    available = [0.0] * n  # when the job may start (window gate)
    plan_start = [0.0] * n
    plan_end = [0.0] * n
    exec_start = [0.0] * n
    exec_end = [0.0] * n
    stalls = [0.0] * n
    # Per-machine core free times.
    cores: List[List[float]] = [
        [0.0] * cores_per_machine for _ in range(num_machines)
    ]

    def run_plan(i: int) -> None:
        machine = cores[i % num_machines]
        core = min(range(len(machine)), key=machine.__getitem__)
        plan_start[i] = max(machine[core], available[i])
        plan_end[i] = plan_start[i] + plan_times[i]
        machine[core] = plan_end[i]

    for i in range(min(lookahead + 1, n)):
        available[i] = 0.0
        run_plan(i)

    for i in range(n):
        plan_ready = plan_end[i]
        prev_end = exec_end[i - 1] if i > 0 else 0.0
        exec_start[i] = max(prev_end, plan_ready)
        stalls[i] = exec_start[i] - prev_end
        exec_end[i] = exec_start[i] + exec_times[i]
        # Starting iteration i opens the window for job i + lookahead + 1.
        nxt = i + lookahead + 1
        if nxt < n:
            available[nxt] = exec_start[i]
            run_plan(nxt)

    return PlanningTimeline(
        exec_start=exec_start,
        exec_end=exec_end,
        plan_start=plan_start,
        plan_end=plan_end,
        stalls=stalls,
    )
