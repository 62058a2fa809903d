"""Overlap pipeline: background planning hidden behind execution (§6.1).

The subsystem that turns the paper's "planning can perfectly overlap
model execution" claim from an analytic replay
(:func:`repro.core.pool.simulate_planning_overlap`) into a measurement:

* :class:`StreamingOverlapPipeline` — the one pipeline.  Plans batch
  ``i + kappa`` on background workers while batch ``i`` executes, over
  any batch iterable (a list is a finite stream; a packer still
  emitting is an unbounded one), consulting the thread-safe
  :class:`~repro.core.cache.PlanCache` (through exactly-one-owner
  reservations) before dispatching any worker, respawning workers that
  raise or hang, measuring per-iteration hidden vs exposed planning
  time, and re-planning the prefetch window by delta (reuse what the
  new shape can run, re-plan the rest warm) when a
  :class:`~repro.sim.ClusterEventSource` reports device add/remove
  events mid-stream (``events=None``: a cluster that never changes).
* :mod:`~repro.pipeline.backends` — where planning runs: thread-pool,
  process-pool or KV-store (:class:`KVPlannerBackend`: publish to a
  :class:`~repro.core.kvstore.KVStore`, every device pulls its own
  slice).
  Process workers return plans one way: columnar wire bytes
  (:mod:`repro.core.planwire`) deposited in a shared-memory
  :class:`~repro.pipeline.shm.PlanRing`, the same bytes over the result
  pipe when a plan cannot take the ring.
* :class:`~repro.pipeline.driver.PipelineRunner` — drains a pipeline
  through :class:`~repro.runtime.SimExecutor` (or a cost-model stand-in)
  and reports the measured :class:`OverlapStats` + timeline.

``repro.core.DCPDataloader`` is this package's pipeline class under the
paper's name, and ``repro.core.DistributedDataloader`` builds one over
the KV backend.
"""

from .backends import (
    KVPlannerBackend,
    PlanTicket,
    ProcessPlannerBackend,
    ThreadPlannerBackend,
)
from .driver import OverlapReport, PipelineRunner, cost_model_executor
from .pipeline import (
    ClusterPinnedPlanner,
    IterationRecord,
    OverlapStats,
    StreamingOverlapPipeline,
    plan_diff,
    plan_fingerprint,
)
from .shm import PlanRing, ShmUnavailable, leaked_maps

__all__ = [
    "StreamingOverlapPipeline",
    "ClusterPinnedPlanner",
    "OverlapStats",
    "IterationRecord",
    "plan_fingerprint",
    "plan_diff",
    "PlanTicket",
    "ThreadPlannerBackend",
    "ProcessPlannerBackend",
    "KVPlannerBackend",
    "PlanRing",
    "ShmUnavailable",
    "leaked_maps",
    "OverlapReport",
    "PipelineRunner",
    "cost_model_executor",
]
