"""Admission control + fair queueing for plan serving.

A multi-tenant planner is a classic shared-bottleneck: planning a
batch costs tens of milliseconds of CPU, and one chatty tenant can
starve everyone else if jobs run FIFO.  Two cooperating pieces fix
that:

* :class:`AdmissionController` — load shedding at the door.  Per-tenant
  queue-depth and in-flight caps plus a global queue bound; a request
  over any limit is rejected *typed* (:class:`PlanRejected`, carrying
  the reason and a retry-after hint) instead of silently queueing into
  a latency cliff.
* :class:`FairScheduler` — round-robin over per-tenant queues: each
  tenant with queued jobs gets one job per round, so a tenant's burst
  delays another tenant's job by at most one turn, and the burst can
  only consume its own queue depth — the isolation the per-tenant caps
  promise.

The scheduler is the only queue in the service: planner workers
``pop()`` from it, so fairness is enforced at dequeue time — exactly
where a shared worker pool decides whose job runs next.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry
from .errors import PlannerUnavailable, PlanRejected

__all__ = ["PlanRejected", "AdmissionController", "FairScheduler"]


class AdmissionController:
    """Load-shedding policy: per-tenant and global bounds.

    Pure policy, no state of its own — :class:`FairScheduler` presents
    the occupancy snapshot under its lock and this object decides.
    """

    #: Backoff hint (seconds) a shed request carries.
    RETRY_AFTER_S = 0.02

    def __init__(
        self,
        max_queued_per_tenant: int = 8,
        max_inflight_per_tenant: int = 4,
        max_queued_total: Optional[int] = None,
    ) -> None:
        if max_queued_per_tenant < 1 or max_inflight_per_tenant < 1:
            raise ValueError("per-tenant bounds must be positive")
        if max_queued_total is not None and max_queued_total < 1:
            raise ValueError("max_queued_total must be positive")
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.max_queued_total = max_queued_total

    def reject_reason(self, queued: int, inflight: int,
                      total_queued: int) -> Optional[str]:
        """Why this request must be shed, or ``None`` to admit.

        ``queued``/``inflight`` are the requesting tenant's occupancy,
        ``total_queued`` the whole scheduler's.  In-flight counts jobs
        a worker has dequeued but not finished: a tenant at its
        concurrency cap with an empty queue is still saturating its
        share of the workers.
        """
        if (self.max_queued_total is not None
                and total_queued >= self.max_queued_total):
            return "service_saturated"
        if queued >= self.max_queued_per_tenant:
            return "tenant_queue_full"
        if queued + inflight >= (self.max_queued_per_tenant
                                 + self.max_inflight_per_tenant):
            return "tenant_inflight"
        return None


class FairScheduler:
    """Round-robin over per-tenant job queues.

    ``submit`` enqueues (or sheds, via the admission policy) a job for
    a tenant; ``pop`` serves the head job of the first tenant in the
    round and sends that tenant to the back if it has jobs left.  Every
    job costs one turn, so each queued tenant is served once per round.
    """

    def __init__(
        self,
        admission: Optional[AdmissionController] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.admission = admission if admission is not None \
            else AdmissionController()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queues: Dict[str, deque] = {}
        self._inflight: Dict[str, int] = {}
        self._active: deque = deque()  # tenants with queued jobs, in turn
        self._total_queued = 0
        self._closed = False
        self._admitted = self.metrics.counter("service.admitted")
        self._rejected = self.metrics.counter("service.rejected")
        self._rejected_by: Dict[str, object] = {
            reason: self.metrics.counter(f"service.rejected_{reason}")
            for reason in ("tenant_queue_full", "tenant_inflight",
                           "service_saturated")
        }
        self._depth_gauge = self.metrics.gauge("service.queue_depth")
        self._served = self.metrics.counter("service.served")

    def submit(self, tenant: str, job) -> None:
        """Enqueue ``job`` for ``tenant``.

        Raises :class:`PlanRejected` when the admission policy sheds it
        and :class:`PlannerUnavailable` once the scheduler is closed.
        """
        with self._ready:
            if self._closed:
                raise PlannerUnavailable("scheduler is closed")
            queue = self._queues.get(tenant)
            queued = len(queue) if queue is not None else 0
            reason = self.admission.reject_reason(
                queued, self._inflight.get(tenant, 0), self._total_queued
            )
            if reason is not None:
                self._rejected.inc()
                self._rejected_by[reason].inc()
                raise PlanRejected(
                    tenant, reason,
                    retry_after_s=self.admission.RETRY_AFTER_S,
                )
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._active.append(tenant)
            queue.append(job)
            self._total_queued += 1
            self._admitted.inc()
            self._depth_gauge.set(self._total_queued)
            self._ready.notify()

    def pop(self, timeout: Optional[float] = None):
        """Next ``(tenant, job)`` in turn; ``None`` on close/timeout.

        The caller (a planner worker) owns the job until it calls
        :meth:`task_done` — the interval the in-flight cap counts.
        """
        with self._ready:
            while not self._total_queued:
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None
            tenant = self._active.popleft()
            queue = self._queues[tenant]
            job = queue.popleft()
            if queue:
                self._active.append(tenant)
            else:
                del self._queues[tenant]
            self._total_queued -= 1
            self._depth_gauge.set(self._total_queued)
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            self._served.inc()
            return tenant, job

    def task_done(self, tenant: str) -> None:
        with self._lock:
            count = self._inflight.get(tenant, 0) - 1
            if count > 0:
                self._inflight[tenant] = count
            else:
                self._inflight.pop(tenant, None)

    def close(self) -> None:
        """Wake every blocked :meth:`pop` with ``None``; no new submits."""
        with self._ready:
            self._closed = True
            self._ready.notify_all()
