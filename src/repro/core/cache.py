"""Thread-safe LRU plan cache keyed by batch shape.

Many training runs see repeated batch signatures (same sequence-length
multiset and masks), especially with bucketed batching; replanning is
pure waste since DCP's plan depends only on (lengths, masks, config,
cluster).  The cache is safe because all of those are immutable.

All bookkeeping is guarded by a lock so the cache can sit in front of
the overlap pipeline's concurrent planner workers
(:mod:`repro.pipeline`) and the plan service's tenants
(:mod:`repro.service`).  Planning itself is *not* serialized — an owner
plans with the lock released.

The cache has one protocol, *reservations* (:meth:`PlanCache.reserve`):
under one lock acquisition a caller learns whether the signature is
cached (``"hit"``), already being planned by someone else (``"wait"``,
with a future resolving to the plan), or its own to plan (``"own"``).
Exactly one caller per signature owns the dispatch, no matter how many
threads or pipelines race on it; owners publish through
:meth:`PlanCache.publish` or release waiters with
:meth:`PlanCache.abandon`, and streaming pipelines additionally
:meth:`PlanCache.invalidate` entries whose cluster shape went stale.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable, Optional, Tuple

from ..blocks import BatchSpec
from ..obs.metrics import MetricsRegistry
from .planner import DCPPlanner

__all__ = ["PlanCache", "PlanAbandoned", "batch_signature"]


class PlanAbandoned(RuntimeError):
    """Raised to waiters when an in-flight plan reservation is dropped."""


def batch_signature(batch: BatchSpec) -> Tuple:
    """Hashable identity of a batch for planning purposes."""
    return tuple((seq.seqlen, seq.mask) for seq in batch.sequences)


class PlanCache:
    """Least-recently-used cache in front of a :class:`DCPPlanner`."""

    def __init__(
        self,
        planner: DCPPlanner,
        capacity: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.planner = planner
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._inflight: dict = {}
        self._lock = threading.RLock()
        #: Accounting lives in a metrics registry (``cache.*``; one
        #: accounting truth, see ``repro.obs``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits")
        self._misses = self.metrics.counter("cache.misses")
        self._invalidations = self.metrics.counter("cache.invalidations")
        self._remapped = self.metrics.counter("cache.remapped")
        self._reserve_wait = self.metrics.counter("cache.reserve_wait")
        self._reserve_own = self.metrics.counter("cache.reserve_own")
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Monotonic invalidation counter; see :meth:`publish`."""
        with self._lock:
            return self._epoch

    def peek(self, key: Tuple):
        """Cached plan under ``key`` or ``None`` — no accounting.

        Neither hit/miss counters nor LRU recency move: the pre-warm
        path (:mod:`repro.service`) probes many predicted signatures
        per epoch, and letting those probes count would dilute the
        hit-rate the demand traffic actually experiences (and promote
        entries no client asked for).
        """
        with self._lock:
            return self._entries.get(key)

    def _insert(self, key: Tuple, plan) -> None:
        """Insert + refresh recency + evict the LRU tail (lock held)."""
        self._entries[key] = plan
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def reserve(self, key: Tuple, count: bool = True) -> Tuple[str, object, int]:
        """Atomically claim or join planning of ``key``.

        Returns ``(status, payload, epoch)`` where status is one of

        * ``"hit"`` — payload is the cached plan; counts a hit.
        * ``"wait"`` — someone else is planning it; payload is a future
          resolving to the plan.  Counts a miss.
        * ``"own"`` — the caller now owns the dispatch (payload is the
          reservation future) and must eventually :meth:`publish` or
          :meth:`abandon` it.  Counts a miss.

        ``count=False`` suppresses the hit/miss/reserve accounting (not
        the claim itself): pre-warm reservations are speculative work
        the service initiated, not demand traffic, and they must not
        skew the hit rate the real clients see.

        ``epoch`` is the invalidation epoch observed under the same
        lock acquisition — the value later publications/abandons must
        present.  Reading it separately would race: an invalidation
        landing between the read and the claim would stamp the
        reservation newer than the caller's epoch, and the caller's own
        publish/abandon would then refuse to touch it, stranding it
        forever.

        The check-cache / check-in-flight / claim sequence happens under
        one lock acquisition, so N threads reserving the same signature
        yield exactly one owner.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                if count:
                    self._hits.inc()
                return ("hit", cached, self._epoch)
            if count:
                self._misses.inc()
            reservation = self._inflight.get(key)
            if reservation is not None:
                if count:
                    self._reserve_wait.inc()
                return ("wait", reservation[0], self._epoch)
            future = Future()
            if count:
                self._reserve_own.inc()
            # Stamped with the creation epoch so late publications can
            # tell "my own cohort's reservation" from one re-claimed
            # after an invalidation (see :meth:`publish`).
            self._inflight[key] = (future, self._epoch)
            return ("own", future, self._epoch)

    def publish(self, key: Tuple, plan, epoch: int) -> bool:
        """Insert ``plan`` only if no invalidation happened since ``epoch``.

        The one publication primitive: an owner presents the epoch its
        :meth:`reserve` returned, and a plan (possibly computed across
        a worker respawn) may only enter the cache if no
        :meth:`invalidate`/:meth:`clear` ran in between — otherwise a
        stale-shape plan would resurrect behind the invalidation.

        One refinement keeps waiters live: if the key's reservation was
        created at or before ``epoch`` and is *still in flight* despite
        an epoch bump, the invalidations in between did not target this
        key (invalidation always pops matching reservations), so the
        plan is not stale for it and is published anyway — refusing
        would strand the waiters on a future nobody else will resolve.
        A reservation created *after* ``epoch`` belongs to a
        post-invalidation claimant and is never adopted, and an epoch
        mismatch with no surviving reservation is the genuine stale
        case; both publish nothing.
        """
        with self._lock:
            reservation = self._inflight.get(key)
            if reservation is not None:
                future, created = reservation
                if created > epoch:
                    return False  # a newer cohort owns this key now
                del self._inflight[key]
            else:
                future = None
                if epoch != self._epoch:
                    return False
            self._insert(key, plan)
        if future is not None and not future.done():
            future.set_result(plan)
        return True

    def abandon(
        self,
        key: Tuple,
        exc: Optional[BaseException] = None,
        epoch: Optional[int] = None,
    ) -> None:
        """Drop an owned reservation, releasing waiters with ``exc``.

        With ``epoch`` given, only a reservation created at or before
        it is dropped — a failed pre-invalidation worker must not shoot
        down the reservation a post-invalidation claimant now owns.
        """
        with self._lock:
            reservation = self._inflight.get(key)
            if reservation is None:
                return
            future, created = reservation
            if epoch is not None and created > epoch:
                return
            del self._inflight[key]
        if not future.done():
            future.set_exception(exc or PlanAbandoned(f"plan {key!r} abandoned"))

    def invalidate(
        self,
        predicate: Optional[Callable[[Tuple], bool]] = None,
        remap: Optional[Callable[[Tuple, object], Optional[Tuple]]] = None,
    ) -> int:
        """Drop entries (and in-flight reservations) matching ``predicate``.

        ``None`` drops everything.  Waiters on invalidated reservations
        are released with :class:`PlanAbandoned` so they can re-plan
        against the new state instead of deadlocking on a plan that will
        never be published.  Returns the number of cached entries
        dropped (in-flight drops are not counted: no plan existed yet).

        ``remap`` is the delta re-planner's rescue hook: called as
        ``remap(key, plan)`` for every matching cached entry, it may
        return ``(new_key, new_plan)`` to re-key the entry (re-inserted
        most-recently-used) instead of dropping it — how plans that
        survive a cluster-shape change keep serving recurring batch
        signatures.  A ``None`` return drops the entry as usual.  The
        hook runs under the cache lock and must not call back into the
        cache.  In-flight reservations are never remapped — no plan
        exists yet.
        """
        with self._lock:
            stale_keys = [
                key for key in self._entries
                if predicate is None or predicate(key)
            ]
            dropped = 0
            for key in stale_keys:
                remapped = (
                    remap(key, self._entries[key])
                    if remap is not None
                    else None
                )
                del self._entries[key]
                if remapped is not None:
                    new_key, new_plan = remapped
                    self._insert(new_key, new_plan)
                    self._remapped.inc()
                else:
                    dropped += 1
            stale_inflight = [
                (key, reservation[0])
                for key, reservation in self._inflight.items()
                if predicate is None or predicate(key)
            ]
            for key, _future in stale_inflight:
                del self._inflight[key]
            self._invalidations.inc(dropped)
            self._epoch += 1
        for key, future in stale_inflight:
            if not future.done():
                future.set_exception(
                    PlanAbandoned(f"plan {key!r} invalidated")
                )
        return dropped

    def stats(self) -> dict:
        """Cache effectiveness counters for benchmark reports.

        The streaming pipeline reports them as
        ``OverlapStats.plan_cache``.
        """
        with self._lock:
            hits = self._hits.value
            misses = self._misses.value
            lookups = hits + misses
            return {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / lookups if lookups else 0.0,
                "size": len(self._entries),
                "capacity": self.capacity,
                "invalidations": self._invalidations.value,
                "remapped": self._remapped.value,
            }
