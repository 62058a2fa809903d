"""Planner-worker backends for the overlap pipeline.

A backend turns ``(iteration index, batch)`` into a
:class:`~concurrent.futures.Future` that eventually yields ``(plan,
start, end)`` — the plan plus the wall-clock interval the planner actually
spent on it (``time.perf_counter`` stamps).  Two implementations:

* :class:`ThreadPlannerBackend` — planner workers on a thread pool in
  this process.  The planner releases the GIL inside numpy, so real
  overlap with (simulated) execution is achieved in practice; this is
  the default.
* :class:`KVPlannerBackend` — the paper's full §6.1 distribution
  route: jobs fan out round-robin across (simulated) machines, each
  plan is published to a :class:`~repro.core.kvstore.KVStore` as a
  skeleton plus one columnar entry per device, and every device pulls
  its own slice back; the wire bytes the consumers would move
  accumulate in ``consumer_wire_bytes``.

Both run their planners on threads of this process, so every
``plan_batch`` span and planner counter lands in this process's tracer
and registry.

Both backends accept a per-job ``planner`` override on
:meth:`submit`/:meth:`resubmit` — the streaming pipeline pins a cluster
shape onto re-planned jobs this way — and ``resubmit`` is the
retry/respawn entry point for jobs whose worker raised or hung.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from typing import Dict, Tuple

from ..core.planwire import PlanWire, decode_plan, encode_plan
from ..obs.metrics import MetricsRegistry

__all__ = ["ThreadPlannerBackend", "KVPlannerBackend"]


def _timed_plan(planner, batch) -> Tuple:
    start = time.perf_counter()
    plan = planner.plan_batch(batch)
    return plan, start, time.perf_counter()


class ThreadPlannerBackend:
    """Planner workers on an in-process thread pool."""

    def __init__(self, planner, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("need at least one planner worker")
        self.planner = planner
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="dcp-plan"
        )

    def submit(self, index: int, batch, planner=None) -> Future:
        job_planner = planner if planner is not None else self.planner
        return self._pool.submit(_timed_plan, job_planner, batch)

    def resubmit(self, index: int, batch, planner=None) -> Future:
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
        return future

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


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
    publishes over the replacement and accounts no pull; its future
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
        self.metrics = MetricsRegistry()
        self._entries_written = self.metrics.counter(
            "pool.device_entries_written"
        )
        self._entries_unchanged = self.metrics.counter(
            "pool.device_entries_unchanged"
        )
        self._refetch_saved = self.metrics.counter("pool.refetch_saved_bytes")
        self._pruned = self.metrics.counter("pool.pruned_iterations")

    def submit(self, index: int, batch, planner=None) -> Future:
        """Dispatch iteration ``index`` on its machine.

        The dispatch supersedes any earlier job for the iteration;
        ``planner`` overrides the backend's planner for this job only.
        """
        with self._lock:
            generation = next(self._dispatches)
            self._generation[index] = generation
        return self._executors[index % self.num_machines].submit(
            self._job,
            index,
            batch,
            planner if planner is not None else self.planner,
            generation,
        )

    def resubmit(self, index: int, batch, planner=None) -> Future:
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

