"""Planner-as-a-service: multi-tenant plan serving (§6.1 scaled out).

The paper's §6.1 deployment has one training job pulling plans from
one planner pool.  This package serves the same plans to *many*
tenants — training jobs, eval sweeps, autoscalers probing hypothetical
cluster shapes — from shared infrastructure:

* :class:`~repro.service.sharding.ShardedPlanStore` — a
  consistent-hash ring of per-shard KV stores (per-shard locks)
  holding encoded plans beyond the hot cache's LRU horizon.
* :class:`~repro.service.admission.FairScheduler` +
  :class:`~repro.service.admission.AdmissionController` — round-robin
  over per-tenant queues plus typed load shedding
  (:class:`~repro.service.admission.PlanRejected`).
* :class:`~repro.service.forecast.WorkloadForecast` — BRAD-style
  per-epoch arrival counts per signature, predicting the next epoch's
  hot set for pre-warming.
* :class:`~repro.service.service.PlanService` — the facade: demand
  requests and pre-warms both flow through
  :class:`~repro.core.cache.PlanCache` reservations, so every
  signature is planned at most once, served from hot cache, warm
  store, or a fair-queued planner worker.

Robustness (PR 9) adds the failure-handling layer:

* :mod:`~repro.service.errors` — one typed failure hierarchy with a
  retryable/non-retryable split (:func:`is_retryable`).
* R-way replication in the sharded store (writes to R successors,
  replica-fallback reads that skip a dead shard at once, write-repair
  + anti-entropy healing).
* :mod:`~repro.service.degraded` — deterministic zigzag fallback
  plans (tagged ``meta["degraded"]``) served on deadline miss, with
  background upgrade to the optimal plan.
"""

from .admission import AdmissionController, FairScheduler
from .degraded import degraded_plan, is_degraded
from .errors import (
    PlannerUnavailable,
    PlanRejected,
    PlanTimeout,
    ServiceError,
    ShardUnavailable,
    TransientServiceError,
    is_retryable,
)
from .forecast import WorkloadForecast
from .service import PREWARM_TENANT, UPGRADE_TENANT, PlanService, \
    signature_key
from .sharding import HashRing, ShardedPlanStore

__all__ = [
    "PlanService",
    "PlanRejected",
    "AdmissionController",
    "FairScheduler",
    "WorkloadForecast",
    "HashRing",
    "ShardedPlanStore",
    "PREWARM_TENANT",
    "UPGRADE_TENANT",
    "signature_key",
    "ServiceError",
    "TransientServiceError",
    "ShardUnavailable",
    "PlanTimeout",
    "PlannerUnavailable",
    "is_retryable",
    "degraded_plan",
    "is_degraded",
]
