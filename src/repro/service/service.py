"""Planner-as-a-service: multi-tenant plan serving.

:class:`PlanService` composes the repo's existing planning stack into
one long-running server:

* the :class:`~repro.core.cache.PlanCache` stays the single
  exactly-once gate — every demand request and every pre-warm goes
  through :meth:`~repro.core.cache.PlanCache.reserve`, so one
  signature is planned by at most one worker no matter how many
  tenants (or the forecaster) race on it;
* a :class:`~repro.service.sharding.ShardedPlanStore` persists encoded
  plans (columnar wire bytes) beyond the cache's LRU horizon, so a
  signature evicted from the hot cache is *decoded*, not re-planned,
  on its next request;
* an :class:`~repro.service.admission.FairScheduler` (weighted deficit
  round-robin + typed load shedding) decides which tenant's planning
  job a worker runs next;
* a :class:`~repro.service.forecast.WorkloadForecast` tallies demand
  arrivals per epoch and pre-warms the predicted hot set through the
  same reservation path, so pre-warm and demand never double-plan.

Plans served through the service are fingerprint-identical to the
synchronous ``planner.plan_batch`` article: the cache holds the
planner's own object, and the store round-trips through the canonical
columnar encoding (:mod:`repro.core.planwire`).

Fault tolerance (the exception to that identity) is explicit and
tagged.  A fetch may carry a **deadline**; when the optimal plan
cannot be produced in time — planner pool saturated (admission shed
the dispatch), a worker hung, every warm-store replica dead — the
service synthesizes a deterministic *degraded* plan (cheap zigzag
placement, :mod:`repro.service.degraded`), tags it
``meta["degraded"] = True``, serves it immediately, and schedules a
**background upgrade**: the optimal plan is still computed and then
atomically swapped into the hot cache through the publication epoch
cursors, so the *next* fetch of the signature is optimal again.
Deadline-bearing store reads go replica by replica like every other
read (:meth:`~repro.service.sharding.ShardedPlanStore.try_get`): a
killed or breaker-open owner fails fast and costs no budget.  Planner
workers survive failing jobs.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from hashlib import blake2b
from typing import Dict, List, Optional

from ..blocks import BatchSpec
from ..core.cache import PlanAbandoned, PlanCache, batch_signature
from ..core.planwire import decode_plan, encode_plan
from ..obs.metrics import MetricsRegistry
from ..obs.trace import span as _span
from .admission import AdmissionController, FairScheduler, PlanRejected
from .degraded import degraded_plan, is_degraded
from .errors import (
    PlannerUnavailable,
    PlanTimeout,
    TransientServiceError,
)
from .forecast import WorkloadForecast
from .sharding import ShardedPlanStore

__all__ = ["PlanService"]

#: Tenant name pre-warm jobs run under: a real scheduler tenant (its
#: jobs are admission-controlled and fair-queued like anyone's) with a
#: light weight, so speculation never crowds out demand.
PREWARM_TENANT = "__prewarm__"
PREWARM_WEIGHT = 0.5

#: Tenant name background degraded-plan upgrades run under.  Like
#: pre-warm it is a real fair-queued tenant with a light weight: an
#: upgrade improves a plan someone already holds, so it must never
#: crowd out a tenant still waiting for its first plan.
UPGRADE_TENANT = "__upgrade__"
UPGRADE_WEIGHT = 0.5


def signature_key(signature) -> str:
    """Stable store key for a batch signature (shard-hash friendly)."""
    digest = blake2b(repr(signature).encode(), digest_size=16).hexdigest()
    return f"sig/{digest}"


class PlanService:
    """Multi-tenant plan serving over cache + sharded store + planner pool.

    Parameters
    ----------
    planner:
        Any ``plan_batch`` object; the single source of plan truth.
        Deadline fetches that degrade also read its ``cluster`` and
        ``config`` (see :func:`~repro.service.degraded.degraded_plan`).
    workers:
        Planner worker threads draining the fair scheduler.
    cache_capacity:
        Hot-cache entries (decoded plans, LRU).
    shards / replication:
        Warm-store geometry; see :class:`ShardedPlanStore`.
        ``replication`` > 1 survives shard loss with no lost plans.
    admission:
        Load-shedding policy; defaults mirror
        :class:`AdmissionController`.
    prewarm_top_k / epoch_requests:
        Forecast geometry: every ``epoch_requests`` demand requests the
        arrival epoch rolls and the top-``prewarm_top_k`` predicted
        signatures are pre-warmed.  ``epoch_requests=None`` disables
        auto-rolling (call :meth:`roll_epoch` yourself).
    fault_injector / anti_entropy_interval_s:
        Chaos/robustness wiring, passed to the store (and, for the
        injector, consulted by planner workers under ``worker:<i>``
        targets — an injected ``slow`` stalls the worker).
    """

    def __init__(
        self,
        planner,
        workers: int = 2,
        cache_capacity: int = 64,
        shards: int = 4,
        replication: int = 1,
        admission: Optional[AdmissionController] = None,
        prewarm_top_k: int = 8,
        epoch_requests: Optional[int] = None,
        fault_injector=None,
        anti_entropy_interval_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one planner worker")
        if prewarm_top_k < 1:
            raise ValueError("prewarm_top_k must be positive")
        if epoch_requests is not None and epoch_requests < 1:
            raise ValueError("epoch_requests must be positive")
        self.planner = planner
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._injector = fault_injector
        self.cache = PlanCache(
            planner, capacity=cache_capacity, metrics=self.metrics
        )
        self.store = ShardedPlanStore(
            shards=shards,
            replication=replication,
            metrics=self.metrics,
            fault_injector=fault_injector,
            anti_entropy_interval_s=anti_entropy_interval_s,
        )
        self.scheduler = FairScheduler(admission=admission, metrics=self.metrics)
        self.scheduler.set_weight(PREWARM_TENANT, PREWARM_WEIGHT)
        self.scheduler.set_weight(UPGRADE_TENANT, UPGRADE_WEIGHT)
        self.forecast = WorkloadForecast(metrics=self.metrics)
        self.prewarm_top_k = prewarm_top_k
        self.epoch_requests = epoch_requests
        self._requests = self.metrics.counter("service.requests")
        self._cache_hits = self.metrics.counter("service.cache_hits")
        self._store_hits = self.metrics.counter("service.store_hits")
        self._planned = self.metrics.counter("service.planned")
        self._prewarm_submitted = self.metrics.counter(
            "service.prewarm_submitted"
        )
        self._prewarm_promoted = self.metrics.counter(
            "service.prewarm_promoted"
        )
        self._prewarm_hits = self.metrics.counter("service.prewarm_hits")
        self._degraded_served = self.metrics.counter(
            "service.degraded_served"
        )
        self._upgrades = self.metrics.counter("service.plan_upgrades")
        self._upgrade_submitted = self.metrics.counter(
            "service.upgrade_submitted"
        )
        self._job_errors = self.metrics.counter(
            "service.worker_job_errors"
        )
        self._store_put_failures = self.metrics.counter(
            "service.store_put_failures"
        )
        self._fetch_s = self.metrics.histogram("service.fetch_s")
        self._plan_s = self.metrics.histogram("service.plan_s")
        self._busy_s = self.metrics.counter("service.worker_busy_s")
        self._lock = threading.Lock()
        #: Last-seen batch per signature — what pre-warm re-plans from
        #: (a signature alone cannot rebuild its BatchSpec).  Bounded:
        #: entries are only reachable through the forecast's hot set,
        #: and stale ones are pruned on epoch roll.
        self._exemplars: Dict[object, BatchSpec] = {}
        #: Signatures whose *cached* entry was produced by pre-warm and
        #: not (yet) re-planned by demand: a demand hit on one counts
        #: as a pre-warm hit.
        self._prewarmed: set = set()
        #: Degraded-serve ledger: signature -> "pending" (a degraded
        #: plan is out, its optimal upgrade is owed) or "done" (the
        #: optimal plan has been swapped in).
        self._degraded: Dict[object, str] = {}
        #: Signatures with an upgrade dispatch currently in flight —
        #: guards against stacking duplicate upgrade jobs.
        self._upgrading: set = set()
        self._demand_since_roll = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i,),
                name=f"plan-service-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- worker side -----------------------------------------------------

    def _worker_loop(self, index: int) -> None:
        """Drain the fair scheduler; survive failing jobs.

        A raising job has already released its reservation waiters
        (see :meth:`_plan_job`), so the worker records the error and
        moves on — one poisoned batch must not decommission a planner
        thread for the life of the service.  Each iteration honors an
        injected ``slow`` on ``worker:<index>``.
        """
        target = f"worker:{index}"
        while True:
            if self._injector is not None:
                delay = self._injector.delay_s(target)
                if delay > 0:
                    time.sleep(delay)
            item = self.scheduler.pop(timeout=1.0)
            if item is None:
                if self._closed:
                    return
                continue
            tenant, job = item
            start = time.perf_counter()
            try:
                job()
            except Exception:
                self._job_errors.inc()
            finally:
                self._busy_s.inc(time.perf_counter() - start)
                self.scheduler.task_done(tenant)

    def _plan_job(self, signature, batch: BatchSpec, epoch: int,
                  prewarm: bool):
        """The unit of work a planner worker runs for one signature."""

        def job() -> None:
            try:
                with _span("service.plan", "service",
                           prewarm=int(prewarm)):
                    start = time.perf_counter()
                    plan = self.planner.plan_batch(batch)
                    self._plan_s.observe(time.perf_counter() - start)
            except BaseException as exc:
                self.cache.abandon(signature, exc, epoch=epoch)
                raise
            # The plan exists: a warm-store outage must not turn it
            # into a failed fetch.  Serve from cache, heal the store
            # via read-repair/anti-entropy once it returns.
            try:
                self.store.put(
                    signature_key(signature), encode_plan(plan).to_bytes()
                )
            except TransientServiceError:
                self._store_put_failures.inc()
            self._publish(signature, plan, epoch, prewarm=prewarm)
            self._planned.inc()

        return job

    def _publish(self, signature, plan, epoch: int, prewarm: bool) -> None:
        """Insert into the hot cache + mark the entry's provenance.

        Publishing an *optimal* plan for a signature whose degraded
        fallback is still out is the atomic upgrade: the epoch-checked
        :meth:`~repro.core.cache.PlanCache.publish` swaps the cache
        entry in place and the ledger flips to ``"done"``.
        """
        upgraded = False
        with self._lock:
            if prewarm:
                self._prewarmed.add(signature)
            else:
                self._prewarmed.discard(signature)
            if (not is_degraded(plan)
                    and self._degraded.get(signature) == "pending"):
                self._degraded[signature] = "done"
                upgraded = True
        if upgraded:
            self._upgrades.inc()
        self.cache.publish(signature, plan, epoch)

    # -- demand path -----------------------------------------------------

    def fetch_plan(self, tenant: str, batch: BatchSpec,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None):
        """Serve ``tenant`` the plan for ``batch``.

        ``timeout`` bounds the wait for an in-flight plan; expiry (or
        an admission shed — including requests that joined a
        reservation whose owning dispatch was shed) raises typed
        errors (:class:`PlanTimeout`, :class:`PlanRejected`).

        ``deadline`` (seconds) changes the contract from *fail* to
        *degrade*: if no optimal plan materializes inside the budget —
        planner saturated, worker hung, every store replica down — a
        deterministic degraded plan (``meta["degraded"] = True``) is
        served immediately and the optimal plan is upgraded in the
        background.  A deadline-bearing fetch only raises when even
        the fallback cannot be built.
        """
        start = time.perf_counter()
        deadline_at = (
            time.monotonic() + deadline if deadline is not None else None
        )
        signature = batch_signature(batch)
        with _span("service.fetch", "service", tenant=tenant):
            self._requests.inc()
            self.forecast.record(signature)
            with self._lock:
                self._exemplars[signature] = batch
            status, payload, epoch = self.cache.reserve(signature)
            if status == "hit":
                self._cache_hits.inc()
                with self._lock:
                    if signature in self._prewarmed:
                        self._prewarm_hits.inc()
                plan = payload
                if is_degraded(plan):
                    # The hit is a fallback still owed its upgrade; if
                    # the earlier upgrade dispatch was shed, retry it.
                    self._ensure_upgrade(signature, batch)
            elif status == "wait":
                plan = self._await_shared(batch, payload, timeout,
                                          deadline_at)
            else:
                plan = self._serve_miss(tenant, signature, batch, payload,
                                        epoch, timeout, deadline_at)
            self._fetch_s.observe(time.perf_counter() - start)
        self._maybe_roll_epoch()
        return plan

    @staticmethod
    def _remaining(deadline_at: Optional[float]) -> Optional[float]:
        if deadline_at is None:
            return None
        return max(0.0, deadline_at - time.monotonic())

    def _await_shared(self, batch, future, timeout: Optional[float],
                      deadline_at: Optional[float]):
        """Waiter path: join someone else's in-flight reservation.

        With a deadline, a timed-out/failed wait degrades instead of
        raising; no upgrade is scheduled here — the reservation owner's
        dispatch is still in flight and its publication *is* the
        upgrade.
        """
        budget = (
            self._remaining(deadline_at) if deadline_at is not None
            else timeout
        )
        try:
            return future.result(timeout=budget)
        except FutureTimeout:
            if deadline_at is None:
                raise PlanTimeout(
                    timeout if timeout is not None else 0.0,
                    detail="in-flight plan not published in time",
                ) from None
        except (PlanRejected, PlanAbandoned, TransientServiceError):
            if deadline_at is None:
                raise
        return self._degrade(batch)

    def _planner_available(self) -> bool:
        return (not self._closed
                and any(t.is_alive() for t in self._workers))

    def _serve_miss(self, tenant: str, signature, batch, reservation,
                    epoch: int, timeout: Optional[float],
                    deadline_at: Optional[float]):
        """Owner path: store lookup first, else a fair-queued dispatch."""
        blob = self.store.try_get(signature_key(signature))
        if blob is not None:
            plan = decode_plan(blob)
            self._store_hits.inc()
            self._publish(signature, plan, epoch, prewarm=False)
            return plan
        if not self._planner_available():
            exc = PlannerUnavailable("no live planner workers")
            if deadline_at is not None:
                return self._degrade_owned(signature, batch, epoch,
                                           upgrade_inflight=False)
            self.cache.abandon(signature, exc, epoch=epoch)
            raise exc
        try:
            self.scheduler.submit(
                tenant, self._plan_job(signature, batch, epoch,
                                       prewarm=False),
            )
        except PlanRejected as exc:
            if deadline_at is not None:
                # Shed dispatch: serve the fallback now, queue the
                # optimal under the (light-weight) upgrade tenant.
                return self._degrade_owned(signature, batch, epoch,
                                           upgrade_inflight=False)
            # Release anyone who joined this reservation with the same
            # typed error, then surface it to the owner.
            self.cache.abandon(signature, exc, epoch=epoch)
            raise
        budget = (
            self._remaining(deadline_at) if deadline_at is not None
            else timeout
        )
        try:
            return reservation.result(timeout=budget)
        except FutureTimeout:
            if deadline_at is not None:
                # The dispatch is queued/running; its publication will
                # upgrade the degraded entry we are about to serve.
                return self._degrade_owned(signature, batch, epoch,
                                           upgrade_inflight=True)
            raise PlanTimeout(
                timeout if timeout is not None else 0.0,
                detail=f"signature {signature_key(signature)}",
            ) from None

    # -- degraded-mode serving ------------------------------------------

    def _degrade(self, batch):
        """Synthesize + account a degraded plan (no cache publication).

        ``batch`` is the one the fetch holds: the exemplar table is
        pruned by every epoch roll and cannot be trusted to still carry
        a waiting request's signature.
        """
        with _span("service.degrade", "service"):
            plan = degraded_plan(self.planner, batch)
        self._degraded_served.inc()
        return plan

    def _degrade_owned(self, signature, batch, epoch: int,
                       upgrade_inflight: bool):
        """Owner-side degraded serve: publish the fallback, owe the swap.

        Publishing pops our reservation, so every waiter is released
        with the same tagged fallback immediately.  The optimal plan
        arrives later — from the still-queued demand dispatch
        (``upgrade_inflight``) or a fresh background upgrade job — and
        its epoch-checked publication replaces the cache entry
        atomically.  If the fallback cannot be built, a reservation no
        dispatch owns is abandoned with the error before it propagates:
        otherwise every later fetch of the signature would wait on it.
        """
        try:
            plan = self._degrade(batch)
        except BaseException as exc:
            if not upgrade_inflight:
                self.cache.abandon(signature, exc, epoch=epoch)
            raise
        with self._lock:
            self._degraded[signature] = "pending"
        self.cache.publish(signature, plan, epoch)
        if not upgrade_inflight:
            self._ensure_upgrade(signature, batch)
        return plan

    def _ensure_upgrade(self, signature, batch) -> bool:
        """Queue a background optimal re-plan for a degraded entry.

        Idempotent: no-ops when the signature is no longer pending or
        an upgrade dispatch is already in flight.  A shed dispatch
        leaves the ledger ``"pending"`` so the next fetch of the
        degraded entry retries.  Returns whether a job was submitted.
        """
        with self._lock:
            if (self._degraded.get(signature) != "pending"
                    or signature in self._upgrading):
                return False
            self._upgrading.add(signature)

        def job() -> None:
            try:
                epoch = self.cache.epoch
                with _span("service.upgrade", "service"):
                    start = time.perf_counter()
                    plan = self.planner.plan_batch(batch)
                    self._plan_s.observe(time.perf_counter() - start)
                try:
                    self.store.put(
                        signature_key(signature),
                        encode_plan(plan).to_bytes(),
                    )
                except TransientServiceError:
                    self._store_put_failures.inc()
                self._publish(signature, plan, epoch, prewarm=False)
                self._planned.inc()
            finally:
                with self._lock:
                    self._upgrading.discard(signature)

        try:
            self.scheduler.submit(UPGRADE_TENANT, job)
        except (PlanRejected, RuntimeError):
            with self._lock:
                self._upgrading.discard(signature)
            return False
        self._upgrade_submitted.inc()
        return True

    def pending_upgrades(self) -> int:
        """Degraded-served signatures whose optimal swap is still owed."""
        with self._lock:
            return sum(
                1 for state in self._degraded.values()
                if state == "pending"
            )

    # -- forecast / pre-warm path ---------------------------------------

    def _maybe_roll_epoch(self) -> None:
        if self.epoch_requests is None:
            return
        with self._lock:
            self._demand_since_roll += 1
            if self._demand_since_roll < self.epoch_requests:
                return
            self._demand_since_roll = 0
        self.roll_epoch()

    def roll_epoch(self) -> int:
        """Close the arrival epoch and pre-warm the predicted hot set.

        Returns the number of pre-warm dispatches submitted.
        """
        self.forecast.roll_epoch()
        hot = self.forecast.predict(top_k=self.prewarm_top_k)
        with self._lock:
            # Exemplars only need to cover what pre-warm might plan.
            keep = set(hot)
            self._exemplars = {
                signature: batch
                for signature, batch in self._exemplars.items()
                if signature in keep
            }
        return self.prewarm(hot)

    def prewarm(self, signatures: List) -> int:
        """Pre-plan ``signatures`` through the reservation path.

        Signatures already cached, already in flight (someone is
        planning them right now), or without a recorded exemplar batch
        are skipped; the rest are promoted from the warm store when it
        still holds their bytes (``service.prewarm_promoted``) or
        dispatched to a planner under the pre-warm tenant
        (``service.prewarm_submitted``, the return value).  Pre-warm
        reservations do not count into cache hit/miss stats (they are
        speculation, not demand).
        """
        submitted = 0
        with _span("service.prewarm", "service", count=len(signatures)):
            for signature in signatures:
                with self._lock:
                    batch = self._exemplars.get(signature)
                if batch is None or self.cache.peek(signature) is not None:
                    continue
                status, _payload, epoch = self.cache.reserve(
                    signature, count=False
                )
                if status != "own":
                    continue  # cached or someone is already planning it
                try:
                    blob = self.store.try_get(signature_key(signature))
                except TransientServiceError:
                    blob = None
                if blob is not None:
                    # Warm store still holds it: promote without
                    # planning (still a pre-warmed cache entry).
                    self._publish(signature, decode_plan(blob), epoch,
                                  prewarm=True)
                    self._prewarm_promoted.inc()
                    continue
                try:
                    self.scheduler.submit(
                        PREWARM_TENANT,
                        self._plan_job(signature, batch, epoch,
                                       prewarm=True),
                    )
                    submitted += 1
                    self._prewarm_submitted.inc()
                except PlanRejected as exc:
                    # Speculation never fights demand for capacity.
                    self.cache.abandon(signature, exc, epoch=epoch)
        return submitted

    # -- reporting / lifecycle ------------------------------------------

    def stats(self) -> dict:
        """Service effectiveness counters (see also ``metrics``)."""
        requests = self._requests.value
        cache_hits = self._cache_hits.value
        return {
            "requests": requests,
            "cache_hits": cache_hits,
            "store_hits": self._store_hits.value,
            "planned": self._planned.value,
            "cache_hit_rate": cache_hits / requests if requests else 0.0,
            "prewarm_submitted": self._prewarm_submitted.value,
            "prewarm_promoted": self._prewarm_promoted.value,
            "prewarm_hits": self._prewarm_hits.value,
            "prewarm_hit_fraction": (
                self._prewarm_hits.value / requests if requests else 0.0
            ),
            "rejected": self.scheduler.metrics.counter(
                "service.rejected"
            ).value,
            "degraded_served": self._degraded_served.value,
            "plan_upgrades": self._upgrades.value,
            "pending_upgrades": self.pending_upgrades(),
            "worker_job_errors": self._job_errors.value,
            "store_put_failures": self._store_put_failures.value,
            "read_repairs": self.metrics.counter(
                "service.read_repairs"
            ).value,
            "worker_busy_s": self._busy_s.value,
            "workers": len(self._workers),
            "forecast_epoch": self.forecast.epoch,
            "store_shards": self.store.num_shards,
            "replication": self.store.replication,
        }

    def close(self) -> None:
        self._closed = True
        self.scheduler.close()
        for thread in self._workers:
            thread.join(timeout=5.0)
        self.store.close()

    def __enter__(self) -> "PlanService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
