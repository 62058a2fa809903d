"""Admission control + weighted fair queueing for plan serving.

A multi-tenant planner is a classic shared-bottleneck: planning a
batch costs tens of milliseconds of CPU, and one chatty tenant can
starve everyone else if jobs run FIFO.  Two cooperating pieces fix
that:

* :class:`AdmissionController` — load shedding at the door.  Per-tenant
  queue-depth and in-flight caps plus a global queue bound; a request
  over any limit is rejected *typed* (:class:`PlanRejected`, carrying
  the reason and a retry-after hint) instead of silently queueing into
  a latency cliff.
* :class:`FairScheduler` — weighted deficit round-robin over per-tenant
  queues.  Each tenant accumulates credit (its weight) when its turn
  comes around; a job is served when the tenant's deficit
  covers its cost.  Heavier weights drain proportionally faster, light
  tenants are never starved, and a tenant's burst can only consume its
  own queue depth — the isolation the per-tenant caps promise.

The scheduler is the only queue in the service: planner workers
``pop()`` from it, so fairness is enforced at dequeue time — exactly
where a shared worker pool decides whose job runs next.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry
from .errors import PlanRejected

__all__ = ["PlanRejected", "AdmissionController", "FairScheduler"]


class AdmissionController:
    """Load-shedding policy: per-tenant and global bounds.

    Pure policy, no state of its own — :class:`FairScheduler` presents
    the occupancy snapshot under its lock and this object decides.
    """

    def __init__(
        self,
        max_queued_per_tenant: int = 8,
        max_inflight_per_tenant: int = 4,
        max_queued_total: Optional[int] = None,
        retry_after_s: float = 0.02,
    ) -> None:
        if max_queued_per_tenant < 1 or max_inflight_per_tenant < 1:
            raise ValueError("per-tenant bounds must be positive")
        if max_queued_total is not None and max_queued_total < 1:
            raise ValueError("max_queued_total must be positive")
        self.max_queued_per_tenant = max_queued_per_tenant
        self.max_inflight_per_tenant = max_inflight_per_tenant
        self.max_queued_total = max_queued_total
        self.retry_after_s = retry_after_s

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
    """Weighted deficit round-robin over per-tenant job queues.

    ``submit`` enqueues (or sheds, via the admission policy) a
    ``(job, cost)`` for a tenant; ``pop`` serves the next job in WDRR
    order.  Deficit counters follow the classic scheme: when a tenant
    reaches the head of the active list its deficit grows by its
    weight (default 1); its head job is served once the deficit
    covers the job's cost, and the deficit resets when the tenant's
    queue empties (credit must not accumulate while idle — that would
    let a sleeping tenant burst past everyone on wake-up).
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
        self._weights: Dict[str, float] = {}
        self._deficit: Dict[str, float] = {}
        #: Tenants already granted their once-per-visit credit.
        self._topped: set = set()
        self._inflight: Dict[str, int] = {}
        self._active: deque = deque()  # tenants with queued jobs
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

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("tenant weight must be positive")
        with self._lock:
            self._weights[tenant] = float(weight)

    def submit(self, tenant: str, job, cost: float = 1.0) -> None:
        """Enqueue ``job`` for ``tenant`` or raise :class:`PlanRejected`."""
        if cost <= 0:
            raise ValueError("job cost must be positive")
        with self._ready:
            if self._closed:
                raise RuntimeError("scheduler is closed")
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
                    retry_after_s=self.admission.retry_after_s,
                )
            if queue is None:
                queue = self._queues[tenant] = deque()
            if not queue:
                self._active.append(tenant)
                self._deficit.setdefault(tenant, 0.0)
            queue.append((job, float(cost)))
            self._total_queued += 1
            self._admitted.inc()
            self._depth_gauge.set(self._total_queued)
            self._ready.notify()

    def pop(self, timeout: Optional[float] = None):
        """Next ``(tenant, job)`` in WDRR order; ``None`` on close/timeout.

        The caller (a planner worker) owns the job until it calls
        :meth:`task_done` — the interval the in-flight cap counts.
        """
        with self._ready:
            while True:
                if self._total_queued:
                    break
                if self._closed:
                    return None
                if not self._ready.wait(timeout=timeout):
                    return None
            # WDRR round: the head tenant's deficit is topped up by
            # its weight exactly once per visit; it keeps serving
            # (staying at the head across pops) while the credit covers
            # its head job, then yields the head to the next tenant.
            # Heavier weights drain proportionally more jobs per round;
            # progress is guaranteed because every full rotation grants
            # each queued tenant its weight > 0.
            while True:
                tenant = self._active[0]
                queue = self._queues[tenant]
                job, cost = queue[0]
                if tenant not in self._topped:
                    self._topped.add(tenant)
                    self._deficit[tenant] += self._weights.get(tenant, 1.0)
                if self._deficit[tenant] >= cost:
                    queue.popleft()
                    self._deficit[tenant] -= cost
                    self._total_queued -= 1
                    self._depth_gauge.set(self._total_queued)
                    if not queue:
                        self._active.popleft()
                        del self._queues[tenant]
                        # Idle tenants hold no credit into their next
                        # burst, and a fresh burst earns a fresh visit.
                        self._deficit.pop(tenant, None)
                        self._topped.discard(tenant)
                    self._inflight[tenant] = (
                        self._inflight.get(tenant, 0) + 1
                    )
                    self._served.inc()
                    return tenant, job
                # Visit over: spend-down exhausted the credit.
                self._topped.discard(tenant)
                self._active.rotate(-1)

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
