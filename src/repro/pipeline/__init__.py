"""Overlap pipeline: background planning hidden behind execution (§6.1).

The subsystem behind the paper's "planning can perfectly overlap model
execution" claim, measured on wall time or replayed on virtual time by
the same code:

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
* :mod:`~repro.pipeline.backends` — where planning runs: a thread
  pool in this process (the default), the KV store
  (:class:`KVPlannerBackend`: publish to a
  :class:`~repro.core.kvstore.KVStore`, every device pulls its own
  slice), or a virtual clock (:class:`VirtualPlannerBackend`: given
  plan seconds per job, execution by ``advance``).  Each hands back a
  plain :class:`~concurrent.futures.Future` of ``(plan, start, end)``
  stamped by its ``clock``, the clock the pipeline reads.
* :class:`~repro.pipeline.shm.PlanRing` — a shared-memory plan ring no
  backend uses; it stays for the ledger's ``pipeline.ring_roundtrip_s``
  probe.
* :class:`~repro.pipeline.driver.PipelineRunner` — drains a pipeline
  through an execute callback (the cost-model stand-in
  :func:`~repro.pipeline.driver.cost_model_executor`, say) and reports
  the measured :class:`OverlapStats`;
  :func:`~repro.pipeline.driver.replay` runs a plan / execution
  profile through the pipeline on virtual time — the §6.1 model.

With tracing on (:func:`repro.obs.enable_tracing`) the run's timeline
is the tracer's: ``fetch {i}`` and ``exec {i}`` spans on the consumer
thread, ``plan_batch`` spans on the planner workers'.

``repro.core.DCPDataloader`` is this package's pipeline class under the
paper's name; pass ``backend=KVPlannerBackend(...)`` to plan over the
KV store.
"""

from .backends import KVPlannerBackend, ThreadPlannerBackend, VirtualPlannerBackend
from .driver import OverlapReport, PipelineRunner, cost_model_executor, replay
from .pipeline import (
    ClusterPinnedPlanner,
    IterationRecord,
    OverlapStats,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
from .shm import PlanRing, ShmUnavailable, leaked_maps

__all__ = [
    "StreamingOverlapPipeline",
    "ClusterPinnedPlanner",
    "OverlapStats",
    "IterationRecord",
    "plan_fingerprint",
    "ThreadPlannerBackend",
    "KVPlannerBackend",
    "VirtualPlannerBackend",
    "PlanRing",
    "ShmUnavailable",
    "leaked_maps",
    "OverlapReport",
    "PipelineRunner",
    "cost_model_executor",
    "replay",
]
