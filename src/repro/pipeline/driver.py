"""Drive the overlap pipeline through real or modelled execution.

The pipeline measures execution as "time the consumer spends between
yields"; this module supplies the consumers:

* :class:`PipelineRunner` — drains the pipeline through an execute
  callback, so the iteration records hold *measured* execution wall
  time against *measured* planning wall time — the §6.1 figure as an
  experiment rather than a simulation (with tracing on, the same
  intervals are the tracer's ``exec {i}`` / ``fetch {i}`` spans).
* :func:`cost_model_executor` — the execute callback that prices the
  plan with :func:`~repro.sim.e2e_iteration_time` and occupies exactly
  the (scaled) simulated iteration time.  This is how the overlap
  benchmark plays an 8B-GPT training loop in seconds instead of hours:
  the planner threads race against genuine wall time either way.
* :func:`replay` — the §6.1 model: the pipeline on virtual time over a
  per-iteration profile of plan and execution seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from ..scheduling import ExecutionPlan
from .backends import VirtualPlannerBackend
from .pipeline import OverlapStats, StreamingOverlapPipeline

__all__ = ["OverlapReport", "PipelineRunner", "cost_model_executor", "replay"]


@dataclass
class OverlapReport:
    """Everything one driven pipeline run measured."""

    stats: OverlapStats
    executions: List[dict] = field(default_factory=list)


class PipelineRunner:
    """Run every planned batch through an execute callback.

    Parameters
    ----------
    pipeline:
        The :class:`StreamingOverlapPipeline` to drain.
    execute:
        ``execute(local_data, plan) -> dict`` callback doing the
        iteration's work (e.g. :func:`cost_model_executor`).
    on_iteration:
        Optional ``on_iteration(index, info)`` callback invoked after
        each executed iteration — the hook through which streaming
        scenarios inject mid-run state (e.g. firing a
        :class:`~repro.sim.ClusterEventSource` device-removal at a
        chosen iteration, which the pipeline observes before its next
        yield).
    """

    def __init__(
        self,
        pipeline: StreamingOverlapPipeline,
        execute: Callable,
        on_iteration: Optional[Callable[[int, dict], None]] = None,
    ) -> None:
        self.pipeline = pipeline
        self.execute = execute
        self.on_iteration = on_iteration

    def run(self) -> OverlapReport:
        executions: List[dict] = []
        for local_data, plan in self.pipeline:
            info = self.execute(local_data, plan)
            executions.append(info or {})
            if self.on_iteration is not None:
                self.on_iteration(len(executions) - 1, executions[-1])
        return OverlapReport(
            stats=self.pipeline.stats(), executions=executions
        )


def cost_model_executor(time_scale: float = 1.0) -> Callable:
    """Execute callback that occupies the modelled iteration time.

    Prices each plan with :func:`~repro.sim.e2e_iteration_time` (itself
    real planner-free CPU work) and sleeps out the remainder of
    ``iteration_time * time_scale``, so background planning races
    against a faithful stand-in for model execution.
    """
    if time_scale < 0:
        raise ValueError("time_scale must be non-negative")

    def execute(local_data, plan) -> dict:
        from ..sim import e2e_iteration_time

        start = time.perf_counter()
        result = e2e_iteration_time(plan)
        budget = result.iteration_time * time_scale
        remaining = budget - (time.perf_counter() - start)
        if remaining > 0:
            time.sleep(remaining)
        return {
            "simulated_iteration_s": result.iteration_time,
            "executed_wall_s": time.perf_counter() - start,
            "time_scale": time_scale,
        }

    return execute


class _EmptyPlanner:
    """A replay's planner: its plans are empty, only their time counts."""

    def plan_batch(self, batch) -> ExecutionPlan:
        return ExecutionPlan(block_set=None, cluster=None, device_plans={})


def replay(plan_s: Sequence[float], exec_s: Sequence[float],
           max_workers: int, lookahead: int) -> OverlapStats:
    """Run the pipeline on virtual time over a measured profile.

    Job ``i`` plans for ``plan_s[i]`` seconds on ``max_workers`` virtual
    workers and iteration ``i`` executes for ``exec_s[i]``.  There is no
    cache, so a zero-second job (a measured cache hit, say) still waits
    for a free worker.  Leave tracing off: spans stamp ``perf_counter``.
    """
    if len(plan_s) != len(exec_s):
        raise ValueError(
            f"{len(plan_s)} plan times but {len(exec_s)} execution times"
        )
    planner = _EmptyPlanner()
    backend = VirtualPlannerBackend(planner, max_workers, plan_s)
    pipeline = StreamingOverlapPipeline(
        range(len(plan_s)), planner, lookahead=lookahead, backend=backend
    )
    for (_local_data, _plan), seconds in zip(pipeline, exec_s):
        backend.advance(seconds)
    return pipeline.stats()
