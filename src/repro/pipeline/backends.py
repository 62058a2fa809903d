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
* :class:`KVPlannerBackend` — the paper's full §6.1 distribution
  route: jobs fan out round-robin across (simulated) machines, each
  plan is published to a :class:`~repro.core.kvstore.KVStore` as a
  skeleton plus one columnar entry per device, and every device pulls
  its own slice back; the wire bytes the consumers would move
  accumulate in ``consumer_wire_bytes``.

All backends accept a per-job ``planner`` override on
:meth:`submit`/:meth:`resubmit` — the streaming pipeline pins a cluster
shape onto re-planned jobs this way — and ``resubmit`` is the
retry/respawn entry point for jobs whose worker raised or hung.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import threading
import time
from concurrent.futures import (
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, Dict, Optional, Tuple

from ..core.planwire import PlanWire, decode_plan, encode_plan
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


def skeleton_key(iteration: int) -> str:
    """Store key of an iteration's shared plan context."""
    return f"plan/{iteration}/skeleton"


def device_key(iteration: int, device: int) -> str:
    """Store key of one device's instruction stream."""
    return f"plan/{iteration}/device/{device}"


class KVPlannerBackend:
    """The §6.1 distribution route: plan on a machine, publish, pull.

    Iteration ``i`` plans on machine ``i % num_machines`` (the paper
    assigns different iterations to different machines), each machine
    running at most ``cores_per_machine`` planner instances, and one
    job carries a dispatch the whole way: plan → publish to the
    :class:`~repro.core.kvstore.KVStore` → every device pulls its slice
    → ``(plan, start, end)``.  The yielded plan is reassembled from
    exactly the fetched bytes, so it is the genuine round-tripped
    article every device would see.

    **Stored layout.**  The plan is encoded once
    (:func:`~repro.core.planwire.encode_plan`) and published as a
    skeleton entry — ``plan/<i>/skeleton``: the
    :class:`~repro.core.planwire.PlanWire` header and context with an
    empty payload, whose span table *is* the device list — plus one
    entry per device (``plan/<i>/device/<d>``:
    ``PlanWire.device_bytes(d)``).  Device entries are conditional
    writes: a re-plan that leaves a device's stream byte-identical
    rewrites nothing for it and keeps its version
    (``pool.device_entries_written`` / ``pool.device_entries_unchanged``
    in :attr:`metrics`); the canonical columnar encoding makes that
    byte-compare identity-exact.

    **Fetch.**  Each device, from its own machine, reads the skeleton
    and its own entry.  Reads by a device on the store's host machine
    are local and free; every other read charges ``len`` of the bytes
    it returned (raw columnar bytes: the stored payload exactly) to
    :attr:`consumer_wire_bytes`.  The pull of a re-dispatched iteration presents the previous pull's version
    cursors, so streams the re-plan left untouched do not move again
    (``pool.refetch_saved_bytes``).

    **Supersession.**  Every dispatch takes a fresh generation for its
    iteration.  A job whose generation is no longer current — a
    :meth:`resubmit` replaced it while its worker ran or hung — never
    publishes over the replacement and accounts no pull; its ticket
    (which nobody consumes) is cancelled.

    **Retention.**  Re-plans only ever target the live prefetch window,
    so published iterations more than :attr:`MAX_FETCH_CURSORS` behind
    the newest are reclaimed — store keys and fetch cursors together
    (``pool.pruned_iterations``) — and an unbounded stream holds
    O(window) plans no matter their size.
    """

    #: Published iterations kept resident (store entries plus the
    #: consumer's fetch cursors, which pin the per-device payloads a
    #: cursor hit reuses).  Kept tight: re-plans target the live
    #: prefetch window (``lookahead + 1``, typically 2-5 iterations)
    #: and nothing older is ever pulled again.
    MAX_FETCH_CURSORS = 8

    #: How long a consumer waits for a published entry.  The job
    #: publishes before it pulls, so only a store that lost the entry
    #: under the pull (a foreign delete) ever waits this out.
    FETCH_TIMEOUT_S = 60.0

    def __init__(
        self,
        planner,
        store,
        num_machines: int = 1,
        cores_per_machine: int = 2,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if num_machines < 1 or cores_per_machine < 1:
            raise ValueError("need at least one machine and one core")
        self.planner = planner
        self.store = store
        self.num_machines = num_machines
        self._executors = [
            ThreadPoolExecutor(
                max_workers=cores_per_machine,
                thread_name_prefix=f"dcp-kv-m{m}",
            )
            for m in range(num_machines)
        ]
        # Every job of an iteration runs on the same machine, so one
        # publication at a time per machine orders a superseded job
        # against its replacement while machines still publish in
        # parallel.
        self._publishing = [threading.Lock() for _ in range(num_machines)]
        self.consumer_wire_bytes = 0
        self._dispatches = itertools.count(1)
        #: iteration -> generation of its in-flight job (empty once
        #: every dispatched job settled).
        self._generation: Dict[int, int] = {}
        #: iteration -> {device: (version, payload)} of its last pull;
        #: exactly the iterations resident in the store.
        self._cursors: Dict[int, Dict[int, Tuple[int, bytes]]] = {}
        self._lock = threading.Lock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries_written = self.metrics.counter(
            "pool.device_entries_written"
        )
        self._entries_unchanged = self.metrics.counter(
            "pool.device_entries_unchanged"
        )
        self._refetch_saved = self.metrics.counter("pool.refetch_saved_bytes")
        self._pruned = self.metrics.counter("pool.pruned_iterations")

    def submit(self, index: int, batch, planner=None) -> PlanTicket:
        """Dispatch iteration ``index`` on its machine.

        The dispatch supersedes any earlier job for the iteration;
        ``planner`` overrides the backend's planner for this job only.
        """
        with self._lock:
            generation = next(self._dispatches)
            self._generation[index] = generation
        return PlanTicket(
            self._executors[index % self.num_machines].submit(
                self._job,
                index,
                batch,
                planner if planner is not None else self.planner,
                generation,
            )
        )

    def resubmit(self, index: int, batch, planner=None) -> PlanTicket:
        """Respawn: the new generation supersedes the old job."""
        return self.submit(index, batch, planner=planner)

    def _job(self, index: int, batch, planner, generation: int) -> Tuple:
        machine = index % self.num_machines
        try:
            start = time.perf_counter()
            plan = planner.plan_batch(batch)
            end = time.perf_counter()
            with self._publishing[machine]:
                with self._lock:
                    if self._generation.get(index) != generation:
                        raise CancelledError()
                self._publish(index, plan)
            served, wire_bytes, cursors = self._pull(index, plan.cluster)
            with self._lock:
                if self._generation.get(index) != generation:
                    raise CancelledError()  # superseded while it pulled
                del self._generation[index]  # settled: reclaimable now
                self.consumer_wire_bytes += wire_bytes
                self._cursors[index] = cursors
                self._reclaim()
            return served, start, end
        finally:
            # However the job ends, its in-flight entry goes with it: a
            # failed job that ends in the pipeline's inline fallback
            # would otherwise leak the entry forever.
            with self._lock:
                if self._generation.get(index) == generation:
                    del self._generation[index]

    def _publish(self, index: int, plan) -> None:
        wire = encode_plan(plan)
        self.store.put(
            skeleton_key(index),
            PlanWire(wire.context, wire.spans, b"").to_bytes(),
        )
        written = 0
        for device in wire.spans:
            _version, changed = self.store.put_if_changed(
                device_key(index, device), wire.device_bytes(device)
            )
            written += changed
        self._entries_written.inc(written)
        self._entries_unchanged.inc(len(wire.spans) - written)

    def _pull(self, index: int, cluster) -> Tuple:
        """Every device pulls its slice: ``(plan, wire_bytes, cursors)``.

        ``cluster`` places each device on its machine; everything else
        comes out of the store.  Devices whose entry still carries the
        version of the previous pull's cursor are not re-read — their
        cached payload is reused and the bytes that did not cross a
        NIC count into ``pool.refetch_saved_bytes``.
        """
        timeout = self.FETCH_TIMEOUT_S
        with self._lock:
            known = self._cursors.get(index, {})
        # Uncharged probe for the device list; every device below
        # re-reads the skeleton from its own machine.
        skeleton = PlanWire.from_bytes(
            self.store.get(skeleton_key(index), timeout=timeout)
        )
        cursors: Dict[int, Tuple[int, bytes]] = {}
        spans: Dict[int, Tuple[int, int]] = {}
        offset = saved = wire_bytes = 0
        for device in sorted(skeleton.spans):
            own_skeleton = self.store.get(skeleton_key(index), timeout=timeout)
            version, payload = known.get(device, (None, None))
            value, version, fetched = self.store.get_unless(
                device_key(index, device), version=version, timeout=timeout
            )
            if fetched:
                payload = value
            if cluster.machine_of(device) != self.store.host_machine:
                wire_bytes += len(own_skeleton)
                if fetched:
                    wire_bytes += len(payload)
                else:
                    saved += len(payload)
            cursors[device] = (version, payload)
            spans[device] = (offset, len(payload))
            offset += len(payload)
        self._refetch_saved.inc(saved)
        plan = decode_plan(PlanWire(
            skeleton.context,
            spans,
            b"".join(payload for _version, payload in cursors.values()),
        ))
        return plan, wire_bytes, cursors

    def _reclaim(self) -> None:
        """Drop iterations behind the retention horizon (lock held).

        An iteration with a job in flight is being republished and
        stays; once that job settles a later horizon sweeps it out, as
        it does a straggler that published out of order.
        """
        horizon = max(self._cursors) - self.MAX_FETCH_CURSORS
        stale = [
            i for i in self._cursors
            if i <= horizon and i not in self._generation
        ]
        for iteration in stale:
            del self._cursors[iteration]
            for key in self.store.keys(prefix=f"plan/{iteration}/"):
                self.store.delete(key)
        self._pruned.inc(len(stale))

    def close(self) -> None:
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)


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
