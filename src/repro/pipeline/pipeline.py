"""Background planning pipeline that hides planner latency (§6.1).

:class:`StreamingOverlapPipeline` plans batch ``i + kappa`` on
background planner workers while batch ``i`` executes, and records what
fraction of planning time was hidden behind execution.  It reads time
from its backend's ``clock``: wall time on the thread and KV backends,
virtual time on :class:`~repro.pipeline.backends.VirtualPlannerBackend`,
where the same code is the §6.1 model (:func:`repro.pipeline.replay`).
It is the one pipeline: the batch source is any iterable — a
materialized list is a finite stream, a generator of specs off one of the
bounded-reordering-buffer streaming packers in
:data:`repro.data.STREAM_PACKERS` an unbounded one — and the cluster
shape is either fixed (``events=None``) or a live feed of device
add/remove events (:class:`~repro.sim.ClusterEventSource`).

Mechanics
---------
A bounded prefetch window of ``lookahead + 1`` planning jobs runs ahead
of the consumer, pulling the source lazily — an unbounded generator is
consumed exactly ``kappa + 1`` batches ahead of execution, so planning
overlaps both execution *and* the packer's own emission.  Each
iteration the pipeline

1. notes when the consumer comes back for the next batch (everything
   since the previous yield was *execution* time),
2. blocks on the head job — any wait here is *exposed* planning (a
   stall, exactly what §6.1's design must avoid),
3. refills the window and yields ``(local_data, plan)``.

Before any job is dispatched to a worker, the (thread-safe)
:class:`~repro.core.cache.PlanCache` is consulted through a
*reservation* (:meth:`~repro.core.cache.PlanCache.reserve`): a hit
bypasses the worker entirely, identical in-flight signatures — even
across pipelines and threads — join one job, and exactly one owner
dispatches.  A window slot holds a plain
:class:`~concurrent.futures.Future`: the backend's job, a resolved one
for a hit, or a join's reservation (the bare plan).  ``lookahead`` is at
least one; the unoverlapped route is ``DCPPlanner.plan_batch``.

Planner workers are not trusted to succeed: a job whose worker raises
(or, with ``plan_timeout`` set, hangs past the timeout) is respawned on
the backend up to ``MAX_PLAN_RETRIES`` times and then planned inline as
a last resort, so a flaky worker costs a stall, never a deadlocked
prefetch window.  Retries are counted in ``OverlapStats.plan_retries``.

The pipeline keeps one :class:`OverlapStats`, updated where each event
happens.  Every yielded plan carries ``plan.meta["overlap"]`` (the
iteration's record plus those aggregates under ``"running"``), and
:meth:`StreamingOverlapPipeline.stats` returns a copy carrying the
records; their ``plan_s`` / ``exec_s`` feed a virtual-time replay
(:func:`~repro.pipeline.driver.replay`) directly.  With
tracing on, the timeline is the tracer's: each iteration's ``fetch
{i}`` span (``[exec_start - stall, exec_start]``) and ``exec {i}`` span
(``[exec_start, exec_end]``) on the consumer thread, every
``plan_batch`` on the worker that ran it.

Cached plans are shared objects: when the same plan is yielded for
several iterations (cache hits, deduplicated signatures), its
``meta["overlap"]`` reflects the *latest* of those iterations.  The
authoritative per-iteration history is the records of
:meth:`StreamingOverlapPipeline.stats`, which hold every iteration
regardless of plan identity.

Cluster events
--------------
With an event source:

* Plan-cache signatures are extended with the cluster shape the plan
  targets, so a plan for yesterday's cluster can never satisfy today's
  lookup.  Without one the shape cannot change and the base keyspace is
  kept — a cache warmed through ``plan_batch`` keeps hitting.
* Between iterations the pipeline observes the event source.  On a
  shape change it invalidates every cached entry (and releases every
  in-flight reservation) for a stale shape and re-plans the prefetch
  window by delta (below).  Events are observed at iteration
  granularity — the §6.1 pipeline only ever consumes plans between
  iterations, so that is exactly when a shape change can take effect.
* Worker jobs (and inline fallbacks) ship a
  :class:`ClusterPinnedPlanner` so a re-planned job targets the event's
  shape even though the shared planner object keeps its configured
  cluster.  Re-planning therefore requires a planner whose
  ``plan_batch`` accepts a ``cluster`` keyword
  (:class:`~repro.core.planner.DCPPlanner` does); without an event
  source any ``plan_batch`` object works.

Delta re-planning
-----------------
Re-dispatching the *whole* prefetch window on every cluster event
breaks the §6.1 promise exactly when it matters: a device loss causes
``kappa + 1`` cold plans in a burst.  The pipeline instead classifies
every window job against the new shape:

* a job whose plan has already settled and is *compatible* with the
  new cluster (places nothing on vanished devices; see
  :func:`~repro.scheduling.plan_compatible`) is **reused**: the plan is
  rebound onto the new shape in O(devices) dictionary work
  (:func:`~repro.scheduling.rebind_plan`), its cache entry survives
  under the new-shape signature, and no planner runs at all
  (``OverlapStats.replan_jobs_reused``);
* any other job is re-dispatched (``OverlapStats.replans``): **warm**
  when its plan had settled — the previous placement labels ride along
  (``plan.meta["placement"]``) and the placement stage repairs + refines
  them instead of partitioning from scratch — and cold when it was
  still in flight (no settled plan to warm-start from).

The test suite's whole-window oracles (``tests/replan_oracles.py``)
re-dispatch every window job instead, warm or cold; delta runs must be
fingerprint-identical to the warm one, proving the reuse shortcut
sound, and the cold one is the cost baseline of the delta benchmark.
"""

from __future__ import annotations

import pickle
from collections import deque
from concurrent.futures import CancelledError, Future, wait
from dataclasses import dataclass, field, fields, replace
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.cache import PlanCache, batch_signature
from ..core.dataloader import LocalData, _local_data
from ..core.planwire import encode_device_payload
from ..obs.metrics import MetricsRegistry
from ..obs.trace import add_span as _add_span
from ..obs.trace import tracing_enabled as _tracing
from ..scheduling import plan_compatible, rebind_plan
from ..sim.cluster import ClusterEventSource, ClusterSpec
from .backends import ThreadPlannerBackend

__all__ = ["StreamingOverlapPipeline", "ClusterPinnedPlanner",
           "OverlapStats", "IterationRecord",
           "plan_fingerprint"]

#: Waits shorter than this (seconds) are queue bookkeeping, not stalls.
STALL_EPS = 1e-4

#: Worker respawns per planning job before the pipeline gives up on the
#: backend and plans the batch inline (read at run time).
MAX_PLAN_RETRIES = 2


@dataclass
class IterationRecord:
    """Measured timeline of one pipeline iteration (seconds from start)."""

    index: int
    plan_start: float
    plan_end: float
    exec_start: float
    exec_end: float
    stall: float
    queue_depth: int
    cache_hit: bool
    #: Re-dispatched after a mid-stream cluster-shape change.
    replanned: bool = False
    #: Survived a cluster-shape change unchanged: the delta re-planner
    #: proved the plan compatible and rebound it instead of re-planning.
    reused: bool = False

    @property
    def plan_s(self) -> float:
        """Planner seconds attributed to this iteration."""
        return self.plan_end - self.plan_start

    @property
    def exec_s(self) -> float:
        """Seconds the consumer held this iteration's plan."""
        return self.exec_end - self.exec_start

    def as_dict(self) -> dict:
        """The ``plan.meta["overlap"]`` view of this record."""
        return {
            "index": self.index,
            "plan_s": self.plan_s,
            "exec_s": self.exec_s,
            "stall_s": self.stall,
            "queue_depth": self.queue_depth,
            "cache_hit": self.cache_hit,
            "replanned": self.replanned,
            "reused": self.reused,
        }


@dataclass
class OverlapStats:
    """Aggregate measurement of one pipeline run.

    ``hidden_fraction`` is the §6.1 headline: the share of total
    planner-worker time that execution absorbed (1.0 = planning fully
    hidden).  The ``steady_*`` variants skip the first iteration, which
    always waits for its own plan from a cold pipeline — the paper's
    claim is about steady state.

    A cluster-shape event splits the prefetch window in two:
    ``replans`` counts the jobs re-dispatched because the event touched
    their plans, ``replan_jobs_reused`` the jobs whose plans survived
    it and were rebound without any planner work, and
    ``replan_plan_s`` the planner seconds spent on re-dispatched jobs —
    the quantity the delta-vs-whole-window benchmark compares.
    ``cluster_events`` counts the events themselves and
    ``plan_retries`` the worker respawns after failures or hangs.
    """

    iterations: int = 0
    total_plan_s: float = 0.0
    total_exec_s: float = 0.0
    total_stall_s: float = 0.0
    stall_count: int = 0
    steady_plan_s: float = 0.0
    steady_stall_s: float = 0.0
    steady_stall_count: int = 0
    queue_depth_mean: float = 0.0
    queue_depth_max: int = 0
    cache_hits: int = 0
    wall_s: float = 0.0
    replans: int = 0
    cluster_events: int = 0
    plan_retries: int = 0
    replan_jobs_reused: int = 0
    replan_plan_s: float = 0.0
    plan_cache: Optional[dict] = None
    records: List[IterationRecord] = field(default_factory=list)

    @property
    def hidden_fraction(self) -> float:
        """Share of planner time execution absorbed (1.0: all hidden)."""
        if self.total_plan_s <= 0.0:
            return 1.0
        return max(1.0 - self.total_stall_s / self.total_plan_s, 0.0)

    @property
    def steady_hidden_fraction(self) -> float:
        """:attr:`hidden_fraction` without the cold first iteration."""
        if self.steady_plan_s <= 0.0:
            return 1.0
        return max(1.0 - self.steady_stall_s / self.steady_plan_s, 0.0)

    @property
    def stall_fraction(self) -> float:
        """Share of the consumer's time spent stalled, not executing."""
        busy = self.total_stall_s + self.total_exec_s
        return self.total_stall_s / busy if busy > 0.0 else 0.0

    def as_dict(self) -> dict:
        """JSON-ready aggregates: no per-iteration records, and the
        steady sums only through ``steady_hidden_fraction``."""
        skip = ("records", "steady_plan_s", "steady_stall_s")
        return {
            **{f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in skip},
            "hidden_fraction": self.hidden_fraction,
            "steady_hidden_fraction": self.steady_hidden_fraction,
        }


@dataclass
class _Pending:
    """One batch in the prefetch window."""

    index: int
    batch: object
    #: Resolves to ``(plan, start, end)`` in absolute seconds of the
    #: backend's clock; a joined item's is the reservation's, resolving
    #: to the bare plan.
    future: Future
    signature: Optional[Tuple]
    cache_hit: bool
    #: Joined onto an identical in-flight job (no worker dispatched);
    #: its planning time is attributed to the originating iteration.
    joined: bool = False
    #: Re-dispatched after a cluster-shape event.
    replanned: bool = False
    #: Plan survived a cluster-shape event via a delta-re-plan rebind.
    reused: bool = False
    #: Cache epoch captured before reserving; late publications (the
    #: retry path) are rejected if an invalidation bumped it since.
    epoch: int = 0
    #: ``future``'s result when the plan was in hand at submission (a
    #: hit, a rebound plan): taking the future's lock after an executed
    #: iteration cost ~15 µs a hit, half the stream ledger's wait p50.
    settled: Optional[Tuple] = None


@dataclass(frozen=True)
class ClusterPinnedPlanner:
    """Planner façade that targets one specific cluster shape.

    Shipped with worker jobs so that plans dispatched after a cluster
    event target the event's shape while the wrapped planner keeps its
    own configured cluster.
    ``warm`` optionally carries the previous placement's
    ``(slice_device, comp_device)`` labels: re-planned jobs start from
    the placement they had before the event instead of partitioning
    from scratch.
    """

    planner: object
    cluster: ClusterSpec
    warm: Optional[Tuple] = field(default=None, compare=False)

    def plan_batch(self, batch):
        """Plan ``batch`` against the pinned cluster (warm if labels ride)."""
        if self.warm is not None:
            return self.planner.plan_batch(
                batch, cluster=self.cluster, warm=self.warm
            )
        return self.planner.plan_batch(batch, cluster=self.cluster)


class StreamingOverlapPipeline:
    """Iterate ``(local_data, plan)`` with background look-ahead planning.

    Parameters
    ----------
    batches:
        Iterable of :class:`~repro.blocks.BatchSpec` — materialized or
        a generator; the prefetch window pulls lazily, so an unbounded
        stream is fine.
    planner:
        Any object with ``plan_batch(batch) -> ExecutionPlan``.
    lookahead:
        The paper's ``kappa``: planning jobs kept in flight beyond the
        executing batch, at least one (the unoverlapped route is
        ``DCPPlanner.plan_batch``); values larger than the batch count
        simply leave the window partially filled.
    max_workers:
        Planner threads of the default backend.
    backend:
        ``None`` (default): a
        :class:`~repro.pipeline.backends.ThreadPlannerBackend` of
        ``max_workers`` threads; or a backend object such as
        :class:`~repro.pipeline.backends.KVPlannerBackend` or
        :class:`~repro.pipeline.backends.VirtualPlannerBackend`.  The
        pipeline stamps its records with the backend's ``clock``.
    cache:
        Optional :class:`~repro.core.cache.PlanCache` consulted before
        any worker is dispatched; planned misses are inserted back.
        The cache's planner is ignored — supply the same planner here.
    events:
        Optional :class:`~repro.sim.ClusterEventSource`.  When given,
        the pipeline observes it between iterations; device add/remove
        events invalidate stale :class:`~repro.core.cache.PlanCache`
        entries and re-plan the prefetch window against the new shape
        by delta: compatible plans are reused, the rest re-dispatched
        warm from their previous placement.
    plan_timeout:
        Seconds to wait on a single planning attempt before treating
        the worker as hung and respawning the job (``None``: wait
        forever, the historical behavior).  After ``MAX_PLAN_RETRIES``
        respawns the pipeline gives up on the backend and plans the
        batch inline.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        the pipeline's plan-fetch latency histograms
        (``pipeline.plan_fetch_hit_s`` for cache hits,
        ``pipeline.plan_fetch_dispatch_s`` for planner dispatches) and
        iteration counters; a fresh per-pipeline registry by default.
    """

    def __init__(
        self,
        batches: Iterable,
        planner,
        *,
        lookahead: int = 2,
        max_workers: int = 2,
        backend=None,
        cache: Optional[PlanCache] = None,
        events: Optional[ClusterEventSource] = None,
        plan_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        """See the class docstring for every parameter."""
        if lookahead < 1:
            raise ValueError(
                f"lookahead must be at least 1, not {lookahead}; plan "
                "without overlap through DCPPlanner.plan_batch"
            )
        self.planner = planner
        self.lookahead = lookahead
        self.cache = cache
        self.events = events
        self.plan_timeout = plan_timeout
        self._cluster: Optional[ClusterSpec] = (
            events.current if events is not None else None
        )
        self._events_seen = events.version if events is not None else 0
        self._batches = iter(batches)
        if backend is not None and not hasattr(backend, "submit"):
            raise ValueError(
                f"backend {backend!r} is not a planner backend; pass None "
                "(a thread pool) or a backend object such as "
                "KVPlannerBackend"
            )
        if backend is None:
            backend = ThreadPlannerBackend(planner, max_workers=max_workers)
        self._backend = backend
        self._clock = backend.clock
        self._pending: Deque[_Pending] = deque()
        #: Backend jobs still running that the pipeline has not given
        #: up on as hung; :meth:`close` joins them.
        self._jobs: Set[Future] = set()
        self._exhausted = False
        self._started = False
        self._closed = False
        self._origin: Optional[float] = None
        #: The run's aggregates, updated in place as events happen, so
        #: an iteration's running summary costs no pass over records.
        self._stats = OverlapStats()
        #: Plan-fetch latency — how long the consumer blocked for the
        #: next plan — split by serving path: cache hit vs planner
        #: dispatch (joined/waited dispatches count as dispatch).  The
        #: planner-as-a-service p50/p99 baseline (``repro.obs``).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._fetch_hit_s = self.metrics.histogram("pipeline.plan_fetch_hit_s")
        self._fetch_dispatch_s = self.metrics.histogram(
            "pipeline.plan_fetch_dispatch_s"
        )
        self._iter_count = self.metrics.counter("pipeline.iterations")
        self._stall_counter = self.metrics.counter("pipeline.stalls")

    # -- submission --------------------------------------------------------

    def _cache_key(self, batch) -> Tuple:
        """Cache identity of ``batch`` for this pipeline's plans."""
        base = batch_signature(batch)
        if self.events is None:
            # Without an event source the shape cannot change, so keep
            # the base keyspace — a cache warmed through plan_batch or
            # shared with another event-less pipeline keeps hitting.
            return base
        return (self._cluster, base)

    def _pinned(self, warm=None) -> Optional[ClusterPinnedPlanner]:
        """Planner shipped with jobs: pinned to the live cluster shape
        under an event source, ``None`` (the backend's own) without."""
        if self.events is None:
            return None
        return ClusterPinnedPlanner(self.planner, self._cluster, warm=warm)

    def _resolved(self, plan) -> Future:
        """A settled job: ``plan`` with a zero-width interval now."""
        future: Future = Future()
        stamp = self._clock()
        future.set_result((plan, stamp, stamp))
        return future

    def _submit(
        self,
        index: int,
        batch,
        redispatch: bool = False,
        planner=None,
    ) -> _Pending:
        """Reserve/dispatch planning of ``batch`` for window slot ``index``.

        ``planner`` overrides :meth:`_pinned` for this dispatch only —
        the delta re-planner ships re-dispatched jobs a cluster-pinned
        planner carrying the previous placement as a warm start.
        """
        signature = None
        epoch = 0
        if self.cache is not None:
            signature = self._cache_key(batch)
            # The epoch comes from the same lock acquisition as the
            # claim, so this cohort's publish/abandon always matches.
            status, payload, epoch = self.cache.reserve(signature)
            if status == "hit":
                # Futures carry absolute clock stamps (workers can't
                # see the pipeline origin); _resolve rebases them.
                future = self._resolved(payload)
                return _Pending(index, batch, future, signature, True,
                                epoch=epoch, settled=future.result())
            if status == "wait":
                return _Pending(index, batch, payload, signature, False,
                                joined=True, epoch=epoch)
            # "own": this pipeline dispatches; the reservation is
            # published (or released) by the job's done callback.
        # A re-dispatch must *supersede* the job the backend already
        # runs for this index (the KV backend publishes by iteration),
        # or the stale in-flight plan would be served right back.
        dispatch = (
            self._backend.resubmit if redispatch else self._backend.submit
        )
        job_planner = planner if planner is not None else self._pinned()
        future = self._track(dispatch(index, batch, planner=job_planner))
        if signature is not None:
            self._bridge_reservation(future, signature, epoch)
        return _Pending(index, batch, future, signature, False, epoch=epoch)

    def _track(self, job: Future) -> Future:
        """Count ``job`` among the running jobs until it settles."""
        self._jobs.add(job)
        job.add_done_callback(self._jobs.discard)
        return job

    def _bridge_reservation(
        self, job: Future, signature: Tuple, epoch: int
    ) -> None:
        """Publish the owned cache reservation when the job settles.

        Both directions are epoch-guarded: a worker that settles after
        an invalidation (and a possible re-claim of the signature by a
        newer cohort) must neither publish its stale plan nor shoot
        down the new claimant's reservation.
        """
        cache = self.cache

        def _done(future) -> None:
            try:
                plan, _start, _end = future.result()
            except BaseException as exc:
                cache.abandon(signature, exc, epoch=epoch)
            else:
                cache.publish(signature, plan, epoch)

        job.add_done_callback(_done)

    def _refill(self) -> None:
        window = self.lookahead + 1
        while not self._exhausted and len(self._pending) < window:
            try:
                batch = next(self._batches)
            except StopIteration:
                self._exhausted = True
                return
            self._pending.append(self._submit(self._next_index, batch))
            self._next_index += 1

    def _resolve(self, item: _Pending) -> Tuple:
        """Block for the item's plan; returns (plan, start, end) rel. s."""
        attempts = 0
        while True:
            try:
                result = item.settled or item.future.result(
                    timeout=self.plan_timeout
                )
                break
            except (Exception, CancelledError):
                # The worker raised, was cancelled (CancelledError is a
                # BaseException: e.g. another pipeline closing shared
                # infrastructure) — or, with plan_timeout set, hung.
                attempts += 1
                self._stats.plan_retries += 1
                # A hung job plans on unwatched: close() won't join it.
                self._jobs.discard(item.future)
                if attempts <= MAX_PLAN_RETRIES:
                    item.future = self._track(self._backend.resubmit(
                        item.index, item.batch, planner=self._pinned()
                    ))
                    item.joined = False
                    continue
                # Last resort: plan inline.  A failure here is genuine
                # and propagates — the planner itself is broken.  The
                # interval below is real blocking work even if the item
                # had joined someone else's (now failed) job.
                item.joined = False
                start = self._clock()
                plan = (self._pinned() or self.planner).plan_batch(item.batch)
                result = plan, start, self._clock()
                break
        if item.joined:
            # The reservation's bare plan: the worker interval already
            # belongs to the iteration that dispatched the job, so this
            # one got the plan free.
            plan, start = result, self._now()
            end = start
        else:
            plan, start, end = result
            start -= self._origin
            end -= self._origin
        if item.signature is not None and not item.cache_hit:
            # Normally a no-op (the reservation's done callback already
            # published); needed after retries, whose fresh jobs are
            # not bridged to the original reservation.  Epoch-guarded:
            # waiters blocked on a reservation whose original worker is
            # still hung wake up now, but a plan that crossed an
            # invalidation must not resurrect behind it.
            self.cache.publish(item.signature, plan, item.epoch)
        return plan, start, end

    # -- cluster events ----------------------------------------------------

    def _observe_events(self) -> None:
        """Apply shape changes the event source reported since last look."""
        if self.events is None:
            return
        # Observe via the version cursor, not the destructive poll():
        # several pipelines may share one event source, and each must
        # see every shape change.
        version = self.events.version
        if version == self._events_seen:
            return
        self._stats.cluster_events += version - self._events_seen
        self._events_seen = version
        current = self.events.current
        if current == self._cluster:
            return  # net no-op (e.g. an add immediately undone)
        self._cluster = current
        if self.cache is not None:
            self.cache.invalidate(
                self._is_stale_key, remap=self._remap_cached_plan
            )
        for item in self._pending:
            self._retarget(item)

    def _retarget(self, item: _Pending) -> None:
        """Move one window job onto the new shape: reuse its settled
        plan if the new shape can run it, else re-dispatch the job warm
        from that plan's placement (cold when nothing settled)."""
        plan = self._settled_plan(item)
        if plan is not None and plan_compatible(plan, self._cluster):
            self._reuse(item, plan)
        else:
            self._redispatch(item, warm=self._warm_labels(plan))

    def _is_stale_key(self, key) -> bool:
        """Cache keys carrying any cluster shape but the current one."""
        return (
            isinstance(key, tuple)
            and len(key) == 2
            and isinstance(key[0], ClusterSpec)
            and key[0] != self._cluster
        )

    def _remap_cached_plan(self, key, plan):
        """Rescue a stale-shape cache entry whose plan survives the event.

        Recurring batch signatures are the cache's whole value; delta
        re-planning extends the same reasoning to invalidation — an
        entry compatible with the new shape is rebound and re-keyed
        instead of dropped, so post-event repeats still hit.
        """
        if not plan_compatible(plan, self._cluster):
            return None
        return (self._cluster, key[1]), rebind_plan(plan, self._cluster)

    def _settled_plan(self, item: _Pending):
        """The item's plan if its job already finished, else ``None``.

        Classification never blocks: an unfinished (or failed) job has
        nothing to classify or warm-start from and is re-dispatched
        cold.
        """
        if not item.future.done():
            return None
        try:
            result = item.future.result(timeout=0)
        except BaseException:
            return None
        return result if item.joined else result[0]

    def _warm_labels(self, plan) -> Optional[Tuple]:
        """Previous placement labels to warm-start a re-plan from.

        Labels are device ids, and their meaning depends on the
        device -> machine map: after a ``devices_per_machine`` change
        every device is remapped (``ClusterSpec.affected_devices``
        names them all), so the old placement is not a valid start —
        adopting it verbatim would pin a layout optimized for the
        wrong topology.  Those re-plans go cold instead.
        """
        if plan is None:
            return None
        if (
            plan.cluster.devices_per_machine
            != self._cluster.devices_per_machine
        ):
            return None
        return plan.meta.get("placement")

    def _reuse(self, item: _Pending, plan) -> None:
        """Keep a window job's plan across the event: rebind, no planner.

        The rebound plan is handed back through a resolved future
        (zero-width planning interval — no planner ran) and published
        under the new-shape signature via the normal resolve path, so
        concurrent pipelines sharing the cache see it immediately.
        """
        self._stats.replan_jobs_reused += 1
        item.future = self._resolved(rebind_plan(plan, self._cluster))
        item.settled = item.future.result()
        item.joined = False
        item.cache_hit = False
        item.replanned = False
        item.reused = True
        if self.cache is not None:
            item.signature = self._cache_key(item.batch)
            item.epoch = self.cache.epoch

    def _redispatch(self, item: _Pending, warm=None) -> None:
        """Replace a window entry's job with one targeting the new shape.

        The superseded job is left to finish in the background (workers
        cannot be preempted; :meth:`close` joins it); its reservation
        was already released by the invalidation above, so nothing
        stale is ever published.
        ``warm`` carries the previous placement labels when the old
        plan had settled — the re-plan then repairs that placement for
        the new shape instead of partitioning from scratch.
        """
        self._stats.replans += 1
        fresh = self._submit(
            item.index,
            item.batch,
            redispatch=True,
            planner=self._pinned(warm=warm),
        )
        item.future = fresh.future
        item.settled = fresh.settled
        item.signature = fresh.signature
        item.cache_hit = fresh.cache_hit
        item.joined = fresh.joined
        item.epoch = fresh.epoch  # post-invalidation: publications valid
        item.replanned = True
        item.reused = False

    # -- iteration ---------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._origin

    def __iter__(self) -> Iterator[Tuple[Dict[int, LocalData], object]]:
        """Yield ``(local_data, plan)`` per batch, planning ahead."""
        if self._started:
            return iter(())  # single-use, like any dataloader iterator
        self._started = True
        return self._run()

    def _account_record(self, record: IterationRecord) -> None:
        """Fold a fresh record into the stats (exec time is folded
        separately, once its interval is finalized)."""
        stats = self._stats
        stalled = record.stall > STALL_EPS
        if stats.records:  # not the first iteration ever
            stats.steady_plan_s += record.plan_s
            stats.steady_stall_s += record.stall
            stats.steady_stall_count += stalled
        stats.records.append(record)
        stats.iterations += 1
        stats.total_plan_s += record.plan_s
        stats.total_stall_s += record.stall
        stats.stall_count += stalled
        if record.replanned:
            stats.replan_plan_s += record.plan_s
        stats.cache_hits += record.cache_hit
        stats.queue_depth_mean += (
            record.queue_depth - stats.queue_depth_mean
        ) / stats.iterations
        stats.queue_depth_max = max(stats.queue_depth_max, record.queue_depth)
        stats.wall_s = record.exec_start

    def _finalize_exec(self, record: IterationRecord, end: float) -> None:
        record.exec_end = end
        self._stats.total_exec_s += record.exec_s
        if _tracing():
            _add_span(
                f"exec {record.index}",
                "pipeline",
                self._origin + record.exec_start,
                self._origin + end,
            )

    def _run(self) -> Iterator[Tuple[Dict[int, LocalData], object]]:
        self._origin = self._clock()
        self._next_index = 0
        previous: Optional[IterationRecord] = None
        try:
            self._refill()
            while self._pending:
                self._observe_events()
                item = self._pending.popleft()
                requested = self._now()
                if previous is not None:
                    self._finalize_exec(previous, requested)
                depth = sum(
                    p.settled is not None or p.future.done()
                    for p in (item, *self._pending)
                )
                plan, plan_start, plan_end = self._resolve(item)
                ready = self._now()
                fetch_s = max(ready - requested, 0.0)
                if item.cache_hit:
                    self._fetch_hit_s.observe(fetch_s)
                else:
                    self._fetch_dispatch_s.observe(fetch_s)
                self._iter_count.inc()
                if fetch_s > STALL_EPS:
                    self._stall_counter.inc()
                if _tracing():
                    _add_span(
                        f"fetch {item.index}",
                        "pipeline",
                        self._origin + requested,
                        self._origin + ready,
                        args={"cache_hit": item.cache_hit},
                    )
                record = IterationRecord(
                    index=item.index,
                    plan_start=plan_start,
                    plan_end=plan_end,
                    exec_start=ready,
                    exec_end=ready,
                    stall=fetch_s,
                    queue_depth=depth,
                    cache_hit=item.cache_hit,
                    replanned=item.replanned,
                    reused=item.reused,
                )
                self._account_record(record)
                previous = record
                self._refill()
                plan.meta["overlap"] = self._meta(record)
                yield _local_data(plan), plan
        finally:
            end = self._now()
            if previous is not None and previous.exec_end <= previous.exec_start:
                self._finalize_exec(previous, end)
            self._stats.wall_s = end
            self.close()

    # -- reporting ---------------------------------------------------------

    def _meta(self, record: IterationRecord) -> dict:
        running = self._stats.as_dict()
        del running["plan_cache"]
        return {**record.as_dict(), "running": running}

    def stats(self) -> OverlapStats:
        """Aggregate :class:`OverlapStats` over the iterations so far.

        The returned object is a snapshot: records are copied, so a
        stats object captured mid-run keeps its values when later
        iterations update the live records (the trailing record's
        ``exec_end`` is finalized by the *next* request).
        """
        return replace(
            self._stats,
            records=[replace(record) for record in self._stats.records],
            plan_cache=self.cache.stats() if self.cache is not None else None,
        )

    def close(self) -> None:
        """Shut the backend down and join the jobs still planning.

        A queued job the backend cancels releases its cache reservation
        through the job's done callback.  A running one is waited for,
        so no worker outlives the pipeline to plan (and record
        ``plan_batch`` spans) during whatever runs next; superseded
        jobs are joined too.  A job already given up as hung is not,
        and ``plan_timeout`` bounds the wait, so a hung worker costs
        ``close()`` at most that, never the length of the hang.
        """
        if self._closed:
            return
        self._closed = True
        self._backend.close()
        wait(self._jobs.copy(), timeout=self.plan_timeout)

    def __enter__(self) -> "StreamingOverlapPipeline":
        """Context manager: :meth:`close` on exit."""
        return self

    def __exit__(self, *exc) -> None:
        """Close the pipeline (see :meth:`close`)."""
        self.close()


def plan_fingerprint(plan) -> bytes:
    """Byte identity of a plan's executable content.

    Pickles everything the executor consumes — per-device instruction
    streams, buffer sizes, slot maps and local slices — and nothing
    incidental (``plan.meta`` holds wall-clock stats that differ run to
    run).  Two plans with equal fingerprints execute identically; the
    determinism tests use this to prove the pipeline yields exactly the
    synchronous planner's plans, and the delta re-planning tests to
    prove a delta re-plan equals a whole-window re-plan.
    """
    payload = [
        encode_device_payload(device, dp)
        for device, dp in sorted(plan.device_plans.items())
    ]
    return pickle.dumps(payload, protocol=4)
