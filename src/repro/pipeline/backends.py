"""Planner-worker backends for the overlap pipeline.

A backend turns ``(iteration index, batch)`` into a :class:`PlanTicket`
whose :meth:`~PlanTicket.result` eventually yields ``(plan, start,
end)`` — the plan plus the wall-clock interval the planner actually
spent on it (``time.perf_counter`` stamps; on Linux the monotonic clock
is shared across processes, so process-worker stamps compose with the
parent's).  Three implementations:

* :class:`ThreadPlannerBackend` — planner workers on a thread pool in
  this process.  The planner releases the GIL inside numpy, so real
  overlap with (simulated) execution is achieved in practice; this is
  the default.
* :class:`ProcessPlannerBackend` — planner workers in separate
  processes, the paper's "parallelized with more than 10 CPU cores"
  configuration.  The planner ships to each worker once (fork
  inheritance or the pool initializer), never per job, and finished
  plans return through a zero-copy shared-memory ring in the columnar
  wire format (:mod:`repro.core.planwire`), falling back per plan to
  the same bytes over the result pipe.
* :class:`KVPlannerBackend` — planning through a
  :class:`~repro.core.pool.PlannerPool`: jobs fan out round-robin
  across (simulated) machines and plans return via the KV store,
  the paper's full §6.1 distribution path.  With ``per_device_fetch``
  the consumer side pulls per-device plan slices (skeleton + own
  instruction stream) instead of re-reading whole plans, and the wire
  bytes it would move accumulate in ``consumer_wire_bytes``.

All backends accept a per-job ``planner`` override on
:meth:`submit`/:meth:`resubmit` — the streaming pipeline pins a cluster
shape onto re-planned jobs this way — and ``resubmit`` is the
retry/respawn entry point for jobs whose worker raised or hung.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Optional, Tuple

from ..core.planwire import decode_plan, encode_plan
from ..obs.metrics import MetricsRegistry
from ..obs.trace import add_span as _add_span
from ..obs.trace import tracing_enabled as _tracing
from .shm import DEFAULT_SLOT_BYTES, PlanRing, ShmUnavailable

__all__ = [
    "PlanTicket",
    "CompletedTicket",
    "SharedPlanTicket",
    "ThreadPlannerBackend",
    "ProcessPlannerBackend",
    "KVPlannerBackend",
    "ServicePlannerBackend",
    "make_backend",
]


class PlanTicket:
    """Handle for one in-flight planning job."""

    def __init__(self, future: Future) -> None:
        self._future = future

    def ready(self) -> bool:
        return self._future.done()

    def result(self, timeout: Optional[float] = None) -> Tuple:
        """Block for ``(plan, plan_start, plan_end)``."""
        return self._future.result(timeout=timeout)

    def add_done_callback(self, fn: Callable[[Future], None]) -> None:
        """Run ``fn(future)`` when the job completes (or is cancelled)."""
        self._future.add_done_callback(fn)


class CompletedTicket(PlanTicket):
    """An already-available plan (cache hit): zero planning time."""

    def __init__(self, plan, stamp: float) -> None:
        self._payload = (plan, stamp, stamp)

    def ready(self) -> bool:
        return True

    def result(self, timeout: Optional[float] = None) -> Tuple:
        return self._payload

    def add_done_callback(self, fn) -> None:  # already done: nothing owed
        pass


class SharedPlanTicket(PlanTicket):
    """Joins a plan someone else is computing (an in-flight signature).

    Wraps a :class:`~repro.core.cache.PlanCache` reservation future that
    resolves to the bare plan; the worker interval belongs to the
    iteration that dispatched the job, so this ticket reports a
    zero-width interval at resolution time.
    """

    def __init__(self, future: Future) -> None:
        self._future = future

    def result(self, timeout: Optional[float] = None) -> Tuple:
        plan = self._future.result(timeout=timeout)
        now = time.perf_counter()
        return plan, now, now


def _timed_plan(planner, batch) -> Tuple:
    start = time.perf_counter()
    plan = planner.plan_batch(batch)
    return plan, start, time.perf_counter()


class ThreadPlannerBackend:
    """Planner workers on an in-process thread pool."""

    def __init__(self, planner, max_workers: int = 2) -> None:
        if max_workers < 1:
            raise ValueError("need at least one planner worker")
        self.planner = planner
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="dcp-plan"
        )

    def submit(self, index: int, batch, planner=None) -> PlanTicket:
        job_planner = planner if planner is not None else self.planner
        return PlanTicket(self._pool.submit(_timed_plan, job_planner, batch))

    def resubmit(self, index: int, batch, planner=None) -> PlanTicket:
        """Respawn a job whose previous worker raised or hung.

        Runs on a dedicated daemon thread rather than the pool: a hung
        worker cannot be killed, so it permanently occupies its pool
        thread — a respawn queued behind it would hang exactly the same
        way.  The escape thread bypasses the pool, so recovery works
        even with every pool worker wedged.
        """
        job_planner = planner if planner is not None else self.planner
        future: Future = Future()

        def run() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                future.set_result(_timed_plan(job_planner, batch))
            except BaseException as exc:
                future.set_exception(exc)

        threading.Thread(
            target=run, name="dcp-plan-respawn", daemon=True
        ).start()
        return PlanTicket(future)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


#: Per-worker state installed by :func:`_plan_worker_init`: the planner
#: (shipped once per worker, never per job) and the attached plan ring
#: (``None`` when shared memory is unavailable).
_WORKER_STATE: dict = {}


def _plan_worker_init(planner, ring_spec) -> None:
    _WORKER_STATE["planner"] = planner
    ring = None
    if ring_spec is not None:
        try:
            ring = PlanRing.attach(ring_spec)
        except Exception:
            ring = None  # ring gone or unmappable: pipe fallback
    _WORKER_STATE["ring"] = ring


def _transport_plan(batch, slot, override=None) -> Tuple:
    """Worker-side job: plan, encode, move the bytes by the cheapest path.

    Returns ``(kind, payload, start, end, encode_s, write_s, nbytes)``
    where ``kind`` is ``"shm"`` (the bytes sit in ring slot ``slot``;
    payload is ``None``) or ``"wire"`` (payload = the columnar bytes,
    travelling over the result pipe).  ``start``/``end`` bracket pure
    planning time only, so plan intervals stay comparable across both
    routes.
    """
    planner = override if override is not None else _WORKER_STATE["planner"]
    start = time.perf_counter()
    plan = planner.plan_batch(batch)
    end = time.perf_counter()
    blob = encode_plan(plan).to_bytes()
    encode_s = time.perf_counter() - end
    ring = _WORKER_STATE.get("ring")
    if slot is not None and ring is not None:
        stamp = time.perf_counter()
        if ring.write(slot, blob):
            write_s = time.perf_counter() - stamp
            return "shm", None, start, end, encode_s, write_s, len(blob)
    return "wire", blob, start, end, encode_s, 0.0, len(blob)


class ProcessPlannerBackend:
    """Planner workers in separate processes (no GIL sharing at all).

    The planner ships to each worker exactly once — inherited by
    ``fork`` where the platform has it (planners defined anywhere, in
    tests or scripts, keep working), pickled through the pool
    initializer under ``spawn`` otherwise — so a job carries only its
    batch (plus a slot index); :attr:`last_job_payload_bytes` tracks
    that and the regression tests pin it.

    Finished plans come back one way: columnar wire bytes
    (:mod:`repro.core.planwire`) deposited in a
    :class:`~repro.pipeline.shm.PlanRing` slot reserved by the parent
    at submit time; the parent decodes straight out of shared memory.
    The same bytes travel over the result pipe instead (one extra copy)
    when shared memory is unavailable, the ring is full at submit time,
    or a plan outgrows its slot.

    Per-plan payload bytes and encode/write/decode seconds accumulate
    in ``transport.*`` registry counters (:attr:`metrics`:
    ``plans``, ``shm_plans``, ``wire_plans``, ``payload_bytes``,
    ``encode_s``, ``write_s``, ``decode_s``) — the transport-overhead
    numbers the ``--transport`` benchmark cell and its floor gate.
    With tracing enabled the encode/write/decode intervals also land on
    the Perfetto timeline: decode is measured in the parent,
    encode/write are synthesized from the worker-reported durations
    anchored at the plan-end stamp (``perf_counter`` is process-shared
    on Linux, which the transport's latency stamps already rely on).
    """

    def __init__(
        self,
        planner,
        max_workers: int = 2,
        ring_slots: Optional[int] = None,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("need at least one planner worker")
        self.planner = planner
        self._ring: Optional[PlanRing] = None
        try:
            self._ring = PlanRing.create(
                slots=ring_slots or max(2 * max_workers + 2, 4),
                slot_bytes=slot_bytes,
            )
        except ShmUnavailable:
            pass  # every plan takes the pipe route
        try:
            #: One-time cost of shipping the planner (what the old
            #: backend paid per job; ``fork`` does not even pay it once).
            self.planner_payload_bytes = len(pickle.dumps(planner))
        except Exception:
            self.planner_payload_bytes = 0
        #: Pickled size of the most recent job's arguments — the bytes
        #: that actually cross the pipe per job now that the planner
        #: does not.
        self.last_job_payload_bytes = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._transport_counters = {
            key: self.metrics.counter(f"transport.{key}")
            for key in (
                "plans",
                "shm_plans",
                "wire_plans",
                "payload_bytes",
                "encode_s",
                "write_s",
                "decode_s",
            )
        }
        methods = multiprocessing.get_all_start_methods()
        self._pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            ),
            initializer=_plan_worker_init,
            initargs=(
                planner,
                self._ring.spec() if self._ring is not None else None,
            ),
        )

    def _account_submit(self, batch, slot, override) -> None:
        try:
            self.last_job_payload_bytes = len(
                pickle.dumps((batch, slot, override), protocol=4)
            )
        except Exception:
            self.last_job_payload_bytes = 0

    def _wrap(self, inner: Future, slot: Optional[int]) -> Future:
        """Decode the worker's transport result into ``(plan, t0, t1)``."""
        wrapper: Future = Future()

        def relay(done: Future) -> None:
            try:
                kind, payload, start, end, encode_s, write_s, nbytes = (
                    done.result()
                )
                decode_start = time.perf_counter()
                if kind == "shm":
                    view = self._ring.read(slot)
                    try:
                        plan = decode_plan(view)
                    finally:
                        view.release()
                else:
                    plan = decode_plan(payload)
                decode_s = time.perf_counter() - decode_start
            except BaseException as exc:
                wrapper.set_exception(exc)
                return
            finally:
                # Whatever happened — worker raised, torn read, decode
                # error — the slot goes back, or it is lost for the life
                # of the backend.
                if slot is not None:
                    self._ring.free(slot)
            counters = self._transport_counters
            counters["plans"].inc()
            counters[f"{kind}_plans"].inc()
            counters["payload_bytes"].inc(nbytes)
            counters["encode_s"].inc(encode_s)
            counters["write_s"].inc(write_s)
            counters["decode_s"].inc(decode_s)
            if _tracing():
                # Worker-side encode/write happen back-to-back right
                # after planning ends; synthesize their spans from the
                # relayed durations anchored at the plan-end stamp.
                if encode_s > 0.0:
                    _add_span(
                        "transport.encode", "transport", end,
                        end + encode_s, args={"bytes": nbytes},
                    )
                if write_s > 0.0:
                    _add_span(
                        "transport.write", "transport", end + encode_s,
                        end + encode_s + write_s, args={"bytes": nbytes},
                    )
                if decode_s > 0.0:
                    _add_span(
                        "transport.decode", "transport", decode_start,
                        decode_start + decode_s,
                        args={"bytes": nbytes, "kind": kind},
                    )
            wrapper.set_result((plan, start, end))

        inner.add_done_callback(relay)
        return wrapper

    def submit(self, index: int, batch, planner=None) -> PlanTicket:
        slot = self._ring.reserve() if self._ring is not None else None
        try:
            inner = self._pool.submit(_transport_plan, batch, slot, planner)
        except BaseException:
            if slot is not None:
                self._ring.free(slot)  # broken/closed pool: no job owns it
            raise
        self._account_submit(batch, slot, planner)
        return PlanTicket(self._wrap(inner, slot))

    def resubmit(self, index: int, batch, planner=None) -> PlanTicket:
        """Respawn a job whose previous worker raised or hung."""
        return self.submit(index, batch, planner=planner)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)
        if self._ring is not None:
            self._ring.close()


class KVPlannerBackend:
    """Planning via a :class:`~repro.core.pool.PlannerPool` + KV store.

    The pool publishes each plan under ``plan/<iteration>``;
    :meth:`PlanTicket.result` re-reads it from the store so the yielded
    plan is the genuine round-tripped article every device would see.

    With ``per_device_fetch=True`` the consumer side instead simulates
    every device pulling its own slice (skeleton + instruction stream
    when the pool publishes partial plans, the whole plan otherwise)
    and accumulates the §6.1 consumer wire bytes in
    :attr:`consumer_wire_bytes`.
    """

    #: Per-iteration consumer fetch cursors retained for delta
    #: re-fetches.  A re-dispatched job re-publishes its iteration and
    #: the consumer pulls again; with the previous pull's cursors only
    #: the changed per-device slices move.  Each cursor pins the full
    #: per-device payloads of its iteration (that is what a cursor hit
    #: reuses), so the bound is kept tight: re-plans only ever target
    #: the live prefetch window (``lookahead + 1``, typically 2-5
    #: iterations), and older cursors can never be re-pulled.
    MAX_FETCH_CURSORS = 8

    def __init__(
        self,
        pool,
        own_pool: bool = False,
        per_device_fetch: bool = False,
    ) -> None:
        self.pool = pool
        self.own_pool = own_pool
        self.per_device_fetch = per_device_fetch
        self.consumer_wire_bytes = 0
        self._latest: dict = {}
        self._fetched: "OrderedDict[int, dict]" = OrderedDict()
        self._lock = threading.Lock()

    def _ticket(self, inner: Future, index: int) -> PlanTicket:
        pool = self.pool
        wrapper: Future = Future()
        with self._lock:
            self._latest[index] = inner

        def _relay(done: Future) -> None:
            with self._lock:
                superseded = self._latest.get(index) is not inner
            if superseded:
                # A resubmission replaced this job; its (orphaned)
                # wrapper is never consumed, and accounting a consumer
                # pull for a plan nobody consumes would inflate the
                # §6.1 wire bytes.
                wrapper.cancel()
                return
            try:
                done.result()
                if self.per_device_fetch:
                    with self._lock:
                        known = self._fetched.get(index)
                    plan, wire_bytes, fetched = pool.device_pull(
                        index, known=known
                    )
                    with self._lock:
                        self.consumer_wire_bytes += wire_bytes
                        self._fetched[index] = fetched
                        self._fetched.move_to_end(index)
                        while len(self._fetched) > self.MAX_FETCH_CURSORS:
                            self._fetched.popitem(last=False)
                else:
                    plan = pool.fetch(index)
                start, end = pool.plan_interval(index)
                # Consumed: drop the per-iteration bookkeeping (and the
                # future pinning the plan) so unbounded streams run in
                # O(1) backend/pool memory.
                self._prune(index, inner)
                wrapper.set_result((plan, start, end))
            except BaseException as exc:
                # Failure path prunes too: a permanently failed job that
                # ends in the pipeline's inline fallback would otherwise
                # leak its bookkeeping forever.  A subsequent resubmit
                # recreates fresh entries (replace starts a new
                # generation regardless).
                self._prune(index, inner)
                wrapper.set_exception(exc)

        inner.add_done_callback(_relay)
        return PlanTicket(wrapper)

    def _prune(self, index: int, inner: Future) -> None:
        with self._lock:
            if self._latest.get(index) is not inner:
                # Superseded while this relay ran: the replacement owns
                # the bookkeeping now and will prune it itself.
                return
            del self._latest[index]
        self.pool.release(index)

    def submit(self, index: int, batch, planner=None) -> PlanTicket:
        inner = self.pool.submit(index, batch, planner=planner)
        return self._ticket(inner, index)

    def resubmit(self, index: int, batch, planner=None) -> PlanTicket:
        """Respawn: replace the pool's memoized job for this iteration."""
        with self._lock:
            # Supersede the old job *before* the replacement exists, so
            # a late relay firing in the submission window cannot pass
            # the _latest identity checks and release the replacement's
            # bookkeeping.
            self._latest[index] = None
        inner = self.pool.submit(index, batch, planner=planner, replace=True)
        return self._ticket(inner, index)

    def close(self) -> None:
        if self.own_pool:
            self.pool.shutdown()


class ServicePlannerBackend:
    """Planning through a shared :class:`~repro.service.PlanService`.

    The pipeline becomes one tenant of a multi-tenant plan server: each
    job is a ``fetch_plan`` under this backend's ``tenant`` name, so
    the pipeline's traffic is admission-controlled and fair-queued
    against every other tenant, and it transparently benefits from the
    service's hot cache, warm sharded store and pre-warming.

    The reported plan interval brackets the whole fetch — queueing,
    cache/store lookups, planning — because that *is* the latency this
    consumer stalls on; a cache hit reports near-zero width, exactly
    like :class:`CompletedTicket`.

    A per-job ``planner`` override (the streaming pipeline's pinned
    cluster shape) bypasses the service: a pinned shape is a private
    what-if, not the shared workload, and publishing it would poison
    other tenants' cache entries for the same signature.
    """

    def __init__(self, service, tenant: str = "pipeline",
                 max_workers: int = 2) -> None:
        if max_workers < 1:
            raise ValueError("need at least one fetch worker")
        self.service = service
        self.tenant = tenant
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="dcp-svc-fetch"
        )

    def _job(self, batch, planner) -> Tuple:
        if planner is not None:
            return _timed_plan(planner, batch)
        start = time.perf_counter()
        plan = self.service.fetch_plan(self.tenant, batch)
        return plan, start, time.perf_counter()

    def submit(self, index: int, batch, planner=None) -> PlanTicket:
        return PlanTicket(self._pool.submit(self._job, batch, planner))

    def resubmit(self, index: int, batch, planner=None) -> PlanTicket:
        return self.submit(index, batch, planner=planner)

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


def make_backend(backend, planner, max_workers: int = 2):
    """Resolve a backend spec: a name, a backend object, or ``None``."""
    if backend is None or not isinstance(backend, str):
        return backend
    if backend == "thread":
        return ThreadPlannerBackend(planner, max_workers=max_workers)
    if backend == "process":
        return ProcessPlannerBackend(planner, max_workers=max_workers)
    raise ValueError(
        f"unknown backend {backend!r}; use 'thread', 'process', or a "
        "backend object (e.g. KVPlannerBackend)"
    )
