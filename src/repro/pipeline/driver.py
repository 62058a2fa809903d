"""Drive the overlap pipeline through real or modelled execution.

The pipeline measures execution as "time the consumer spends between
yields"; this module supplies the consumers:

* :class:`PipelineRunner` — drains the pipeline through an execute
  callback, so the per-iteration timeline records *measured* execution
  wall time against *measured* planning wall time — the §6.1 figure as
  an experiment rather than a simulation.
* :func:`cost_model_executor` — the execute callback that prices the
  plan with :func:`~repro.sim.e2e_iteration_time` and occupies exactly
  the (scaled) simulated iteration time.  This is how the overlap
  benchmark plays an 8B-GPT training loop in seconds instead of hours:
  the planner threads race against genuine wall time either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..core.pool import PlanningTimeline
from .pipeline import OverlapStats, StreamingOverlapPipeline

__all__ = ["OverlapReport", "PipelineRunner", "cost_model_executor"]


@dataclass
class OverlapReport:
    """Everything one driven pipeline run measured."""

    stats: OverlapStats
    timeline: PlanningTimeline
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

    def run(self, max_iterations: Optional[int] = None) -> OverlapReport:
        executions: List[dict] = []
        for local_data, plan in self.pipeline:
            info = self.execute(local_data, plan)
            executions.append(info or {})
            if self.on_iteration is not None:
                self.on_iteration(len(executions) - 1, executions[-1])
            if max_iterations is not None and len(executions) >= max_iterations:
                break
        stats = self.pipeline.stats()
        return OverlapReport(
            stats=stats, timeline=stats.timeline(), executions=executions
        )


def cost_model_executor(
    time_scale: float = 1.0,
    model=None,
) -> Callable:
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
        result = e2e_iteration_time(plan, model=model)
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
