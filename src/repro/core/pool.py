"""Distributed look-ahead planning (paper §6.1).

Two complementary pieces:

* :class:`PlannerPool` — working plumbing: planning jobs for upcoming
  iterations are assigned round-robin to machines, run on a bounded
  worker pool per machine, and published to the cluster through a
  :class:`~repro.core.kvstore.KVStore` exactly as the paper distributes
  plans via Redis.  :func:`~repro.core.dataloader.DistributedDataloader`
  iterates ``(local_data, plan)`` pairs against the store.

* :func:`simulate_planning_overlap` — the analytic model behind the
  paper's Fig. 18 claim: planning of up to 10 s per batch "can
  perfectly overlap model execution time (> 1 second per iteration)
  ... if planning is parallelized with more than 10 CPU cores".  Given
  per-iteration planning and execution times, machine count and
  cores per machine, it replays the §6.1 pipeline and reports the
  execution stalls caused by late plans.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..blocks import BatchSpec
from ..obs.metrics import MetricsRegistry
from ..scheduling import ExecutionPlan
from .kvstore import KVClient, KVStore
from .planner import DCPPlanner
from .planwire import decode_device_payload, encode_device_payload

__all__ = [
    "PlannerPool",
    "PlanningTimeline",
    "simulate_planning_overlap",
    "min_cores_to_hide_planning",
]


def plan_key(iteration: int) -> str:
    return f"plan/{iteration}"


def skeleton_key(iteration: int) -> str:
    """Shared plan context minus the per-device streams (partial mode)."""
    return f"plan/{iteration}/skeleton"


def device_key(iteration: int, device: int) -> str:
    """One device's instruction stream (partial mode)."""
    return f"plan/{iteration}/device/{device}"


def _device_value(value):
    """Decode a fetched per-device entry (a columnar wire payload)."""
    return decode_device_payload(value)[1]


class PlannerPool:
    """Parallel planning across machines, publishing to a KV store.

    Parameters
    ----------
    planner:
        The planner used for every iteration (any ``plan_batch`` object).
    store:
        Shared KV store; plans land under ``plan/<iteration>``.
    num_machines:
        Planning machines; iteration ``i`` plans on ``i % num_machines``
        (the paper assigns different iterations to different machines).
    cores_per_machine:
        Parallel planner instances per machine.
    partial_plans:
        Publish each plan as a shared skeleton plus one entry per
        device instead of a single monolithic value, so a consumer can
        pull only its own instruction stream (§6.1 wire accounting:
        every device must receive its plan; per-device fetches charge
        ``skeleton + own stream`` rather than the whole plan).  The
        per-device streams are stored as columnar wire payloads
        (:mod:`repro.core.planwire`) — fewer bytes per stream than a
        pickled :class:`~repro.scheduling.DevicePlan`, and the
        canonical encoding makes the store's byte-compare delta
        detection identity-exact; the monolithic layout keeps the
        historical pickle.
    retain_iterations:
        Keep at most this many published iterations resident in the
        store: publishing iteration ``i`` deletes every key of
        iterations ``<= i - retain_iterations``.  ``None`` (default)
        keeps the historical grow-forever behavior.  Must exceed the
        consumer's prefetch window plus any re-fetch horizon
        (:attr:`~repro.pipeline.backends.KVPlannerBackend.MAX_FETCH_CURSORS`)
        or a slow consumer finds its plan reclaimed; the unbounded
        growth this bounds is the same disease
        :class:`~repro.core.kvstore.KVStore` ``max_bytes`` treats —
        this variant prunes by pipeline position instead of bytes, so
        an unbounded stream holds O(window) plans no matter their size.
    """

    def __init__(
        self,
        planner: DCPPlanner,
        store: KVStore,
        num_machines: int = 1,
        cores_per_machine: int = 2,
        partial_plans: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        retain_iterations: Optional[int] = None,
    ) -> None:
        if num_machines < 1 or cores_per_machine < 1:
            raise ValueError("need at least one machine and one core")
        if retain_iterations is not None and retain_iterations < 1:
            raise ValueError("retain_iterations must be >= 1 (or None)")
        self.retain_iterations = retain_iterations
        self.planner = planner
        self.store = store
        self.num_machines = num_machines
        self.partial_plans = partial_plans
        self.clients = [
            KVClient(store=store, machine=m) for m in range(num_machines)
        ]
        self._pools = [
            ThreadPoolExecutor(max_workers=cores_per_machine)
            for _ in range(num_machines)
        ]
        self._submitted: Dict[int, Future] = {}
        self._intervals: Dict[int, Tuple[float, float]] = {}
        self._generations: Dict[int, int] = {}
        self._publish_locks: Dict[int, threading.Lock] = {}
        self._published: set = set()
        self._lock = threading.Lock()
        #: Accounting lives in a metrics registry (``pool.*``); the
        #: historical attributes below are read-only views over it.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries_written = self.metrics.counter(
            "pool.device_entries_written"
        )
        self._entries_unchanged = self.metrics.counter(
            "pool.device_entries_unchanged"
        )
        self._refetch_saved = self.metrics.counter("pool.refetch_saved_bytes")
        self._pruned = self.metrics.counter("pool.pruned_iterations")

    @property
    def device_entries_written(self) -> int:
        """Partial-mode publication accounting: device entries written
        vs skipped (:attr:`device_entries_unchanged`) because the
        republished stream was byte-identical — a delta re-plan that
        left that device's schedule untouched."""
        return self._entries_written.value

    @property
    def device_entries_unchanged(self) -> int:
        return self._entries_unchanged.value

    @property
    def refetch_saved_bytes(self) -> int:
        """Consumer-side bytes *not* moved because a re-fetch presented
        a current version cursor for an unchanged per-device slice."""
        return self._refetch_saved.value

    @property
    def pruned_iterations(self) -> int:
        """Published iterations whose store keys ``retain_iterations``
        reclaimed (monolithic value and any partial-mode entries)."""
        return self._pruned.value

    def submit(
        self,
        iteration: int,
        batch: BatchSpec,
        planner=None,
        replace: bool = False,
    ) -> Future:
        """Queue planning of ``iteration`` on its assigned machine.

        ``planner`` overrides the pool's planner for this job only (the
        streaming pipeline pins a cluster shape this way); ``replace``
        drops any memoized job for the iteration and dispatches a fresh
        one — the respawn path when a planner worker raised or hung.
        """
        machine = iteration % self.num_machines
        client = self.clients[machine]
        job_planner = planner if planner is not None else self.planner

        def job(generation):
            start = time.perf_counter()
            plan = job_planner.plan_batch(batch)
            end = time.perf_counter()
            with self._lock:
                if self._generations.get(iteration) != generation:
                    # Superseded by a replace-resubmission while this
                    # worker ran: a stale plan must not overwrite the
                    # replacement's published bytes.
                    return plan
                publish_lock = self._publish_locks.setdefault(
                    iteration, threading.Lock()
                )
            # Publishing pickles a multi-megabyte plan — keep it off
            # the pool-wide lock so machines publish in parallel.  The
            # per-iteration lock orders this job against any
            # replacement; re-checking the generation under it makes a
            # superseded job refuse even if it lost the race above.
            with publish_lock:
                with self._lock:
                    if self._generations.get(iteration) != generation:
                        return plan
                    self._intervals[iteration] = (start, end)
                self._publish(client, iteration, plan)
            self._prune(iteration)
            return plan

        with self._lock:
            if not replace and iteration in self._submitted:
                return self._submitted[iteration]
            generation = self._generations.get(iteration, 0) + 1
            self._generations[iteration] = generation
            future = self._pools[machine].submit(job, generation)
            self._submitted[iteration] = future
            return future

    def _publish(self, client: KVClient, iteration: int, plan) -> None:
        if not self.partial_plans:
            client.put(plan_key(iteration), plan)
            return
        skeleton = ExecutionPlan(
            block_set=plan.block_set,
            cluster=plan.cluster,
            device_plans={},
            meta={**plan.meta, "devices": sorted(plan.device_plans)},
        )
        client.put(skeleton_key(iteration), skeleton)
        # Conditional per-device writes: a republication (the delta
        # re-plan path) only moves the streams the re-plan changed;
        # untouched devices keep their version, so consumers holding a
        # cursor skip them on re-fetch too.  The stored value is the
        # canonical columnar payload, so the store's byte-compare sees
        # exactly what plan_diff sees.
        written = unchanged = 0
        for device, device_plan in plan.device_plans.items():
            _version, changed = client.put_if_changed(
                device_key(iteration, device),
                encode_device_payload(device, device_plan),
            )
            written += int(changed)
            unchanged += int(not changed)
        self._entries_written.inc(written)
        self._entries_unchanged.inc(unchanged)

    def _prune(self, iteration: int) -> None:
        """Reclaim store keys of iterations behind the retention window.

        Out-of-order publication (iterations land on different
        machines) is handled by pruning from the set of *published*
        iterations: a straggler that has not published yet cannot be
        reclaimed, and once it lands a later iteration's horizon sweeps
        it out.
        """
        if self.retain_iterations is None:
            return
        horizon = iteration - self.retain_iterations
        with self._lock:
            self._published.add(iteration)
            stale = sorted(j for j in self._published if j <= horizon)
            for j in stale:
                self._published.discard(j)
        for j in stale:
            self.store.delete(plan_key(j))
            for key in self.store.keys(prefix=f"plan/{j}/"):
                self.store.delete(key)
            self._pruned.inc()

    def fetch(self, iteration: int, machine: int = 0, timeout: float = 60.0):
        """A device-side read of the published plan.

        In partial mode the plan is reassembled from the skeleton plus
        every per-device stream — the full article, for consumers (like
        the pipeline's executor) that need all devices.
        """
        client = self.clients[machine % self.num_machines]
        if not self.partial_plans:
            return client.get(plan_key(iteration), timeout=timeout)
        skeleton = client.get(skeleton_key(iteration), timeout=timeout)
        device_plans = {
            device: _device_value(
                client.get(device_key(iteration, device), timeout=timeout)
            )
            for device in skeleton.meta["devices"]
        }
        return self._assemble(skeleton, device_plans)

    @staticmethod
    def _assemble(skeleton, device_plans) -> ExecutionPlan:
        meta = {k: v for k, v in skeleton.meta.items() if k != "devices"}
        return ExecutionPlan(
            block_set=skeleton.block_set,
            cluster=skeleton.cluster,
            device_plans=device_plans,
            meta=meta,
        )

    def fetch_device(
        self, iteration: int, device: int, timeout: float = 60.0
    ):
        """Only ``device``'s instruction stream (partial mode only)."""
        if not self.partial_plans:
            raise ValueError(
                "per-device fetches need a PlannerPool(partial_plans=True)"
            )
        skeleton = self.clients[0].get(skeleton_key(iteration), timeout=timeout)
        machine = skeleton.cluster.machine_of(device)
        client = self.clients[machine % self.num_machines]
        return _device_value(
            client.get(device_key(iteration, device), timeout=timeout)
        )

    def device_pull(
        self,
        iteration: int,
        timeout: float = 60.0,
        known: Optional[Dict[int, Tuple[int, object]]] = None,
    ) -> Tuple[ExecutionPlan, int, Dict[int, Tuple[int, object]]]:
        """Every device pulls its iteration plan.

        Returns ``(plan, wire_bytes, fetched)`` where ``fetched`` maps
        each device to its ``(version, device_plan)`` — the cursor a
        later re-fetch presents as ``known``.

        Models the §6.1 consumer side: each device, from its own
        machine, reads what it needs from the store — the whole plan in
        monolithic mode, or the shared skeleton plus its own stream in
        partial mode.  Wire bytes follow the :class:`KVClient`
        convention (host-machine reads are local and free); the plan
        returned is assembled from exactly the fetched pieces, so it is
        the genuine round-tripped article.

        ``known`` (partial mode) carries the versions and payloads of a
        previous pull of the same iteration: devices whose published
        stream is unchanged — a delta re-plan republished only what it
        touched — are *not* re-read, their cached payload is reused and
        the bytes that did not move accumulate in
        :attr:`refetch_saved_bytes`.
        """
        # Metadata probe (not charged: the consumers below re-read what
        # they need through accounted per-machine clients).  In partial
        # mode the skeleton alone carries the device list and cluster,
        # so the probe does not touch the per-device streams.
        if self.partial_plans:
            probe = self.clients[0].get(skeleton_key(iteration),
                                        timeout=timeout)
            devices = list(probe.meta["devices"])
        else:
            probe = self.fetch(iteration, timeout=timeout)
            devices = sorted(probe.device_plans)
        cluster = probe.cluster
        consumers: Dict[int, KVClient] = {}

        def client_for(device: int) -> KVClient:
            machine = cluster.machine_of(device)
            if machine not in consumers:
                consumers[machine] = KVClient(store=self.store, machine=machine)
            return consumers[machine]

        fetched: Dict[int, Tuple[int, object]] = {}
        saved = 0
        if not self.partial_plans:
            plan = probe
            for device in devices:
                plan = client_for(device).get(
                    plan_key(iteration), timeout=timeout
                )
        else:
            device_plans = {}
            for device in devices:
                client = client_for(device)
                skeleton = client.get(skeleton_key(iteration), timeout=timeout)
                cursor = (known or {}).get(device)
                value, version, was_fetched = client.get_unless(
                    device_key(iteration, device),
                    version=cursor[0] if cursor is not None else None,
                    timeout=timeout,
                )
                if not was_fetched:
                    # Unchanged since the previous pull: reuse the
                    # cached payload; count what a full re-read would
                    # have moved over this consumer's NIC.
                    value = cursor[1]
                    if not client.is_local:
                        entry = self.store.entry_bytes(
                            device_key(iteration, device)
                        )
                        saved += entry or 0
                else:
                    value = _device_value(value)
                device_plans[device] = value
                fetched[device] = (version, value)
            plan = self._assemble(
                skeleton if devices else probe, device_plans
            )
        if saved:
            self._refetch_saved.inc(saved)
        wire_bytes = sum(c.wire_bytes() for c in consumers.values())
        return plan, wire_bytes, fetched

    def plan_interval(self, iteration: int) -> Tuple[float, float]:
        """(start, end) ``perf_counter`` stamps of a finished plan job."""
        with self._lock:
            interval = self._intervals.get(iteration)
        if interval is None:
            now = time.perf_counter()
            return (now, now)
        return interval

    def release(self, iteration: int) -> None:
        """Drop the per-iteration bookkeeping once the plan is consumed.

        The published plan itself stays in the store; only the futures
        (which pin whole plans), generation counters, publish locks and
        interval stamps are pruned, so an unbounded stream of
        iterations runs in O(1) pool memory.  A superseded worker still
        racing for this iteration refuses to publish regardless: its
        generation no longer matches the (now absent) entry.
        """
        with self._lock:
            self._submitted.pop(iteration, None)
            self._generations.pop(iteration, None)
            self._publish_locks.pop(iteration, None)
            self._intervals.pop(iteration, None)

    def shutdown(self) -> None:
        for pool in self._pools:
            pool.shutdown(wait=True)

    def __enter__(self) -> "PlannerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# -- analytic overlap model ---------------------------------------------------


@dataclass
class PlanningTimeline:
    """Result of replaying the §6.1 planning/execution pipeline."""

    exec_start: List[float]
    exec_end: List[float]
    plan_start: List[float]
    plan_end: List[float]
    stalls: List[float]

    @property
    def total_stall(self) -> float:
        return sum(self.stalls)

    @property
    def total_time(self) -> float:
        return self.exec_end[-1] if self.exec_end else 0.0

    @property
    def stall_fraction(self) -> float:
        if not self.exec_end:
            return 0.0
        busy = sum(e - s for s, e in zip(self.exec_start, self.exec_end))
        return self.total_stall / (self.total_stall + busy)

    def planning_hidden(self, tolerance: float = 1e-9,
                        warmup: int = 1) -> bool:
        """True if no execution stall beyond the first ``warmup``
        iterations.

        Iteration 0 always waits for its own plan, and a cold planner
        pool takes several iterations to fill its pipeline; the paper's
        claim is about steady state.  ``warmup`` controls how much
        ramp-up to forgive (at least 1).
        """
        warmup = max(warmup, 1)
        return all(stall <= tolerance for stall in self.stalls[warmup:])


def simulate_planning_overlap(
    plan_times: Sequence[float],
    exec_times: Sequence[float],
    num_machines: int = 1,
    cores_per_machine: int = 1,
    lookahead: int = 2,
) -> PlanningTimeline:
    """Replay the look-ahead planning pipeline against execution.

    Planning of iteration ``i`` runs on machine ``i % num_machines``,
    which processes at most ``cores_per_machine`` plans concurrently.
    Planning for an iteration may begin once the window allows it (the
    dataloader prefetches ``lookahead`` iterations beyond the one
    currently executing, so job ``i`` becomes available when iteration
    ``i - lookahead - 1`` starts executing; the first ``lookahead + 1``
    jobs are available at time zero).  Execution of iteration ``i``
    starts at ``max(end of i-1, plan i done)``; the difference is the
    stall the paper's design must avoid.
    """
    if len(plan_times) != len(exec_times):
        raise ValueError("need matching plan and exec time lists")
    if num_machines < 1 or cores_per_machine < 1:
        raise ValueError("need at least one machine and one core")
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")
    n = len(plan_times)
    if n == 0:
        return PlanningTimeline([], [], [], [], [])

    available = [0.0] * n  # when the job may start (window gate)
    plan_start = [0.0] * n
    plan_end = [0.0] * n
    exec_start = [0.0] * n
    exec_end = [0.0] * n
    stalls = [0.0] * n
    # Per-machine core free times.
    cores: List[List[float]] = [
        [0.0] * cores_per_machine for _ in range(num_machines)
    ]

    def run_plan(i: int) -> None:
        machine = cores[i % num_machines]
        core = min(range(len(machine)), key=machine.__getitem__)
        plan_start[i] = max(machine[core], available[i])
        plan_end[i] = plan_start[i] + plan_times[i]
        machine[core] = plan_end[i]

    for i in range(min(lookahead + 1, n)):
        available[i] = 0.0
        run_plan(i)

    for i in range(n):
        plan_ready = plan_end[i]
        prev_end = exec_end[i - 1] if i > 0 else 0.0
        exec_start[i] = max(prev_end, plan_ready)
        stalls[i] = exec_start[i] - prev_end
        exec_end[i] = exec_start[i] + exec_times[i]
        # Starting iteration i opens the window for job i + lookahead + 1.
        nxt = i + lookahead + 1
        if nxt < n:
            available[nxt] = exec_start[i]
            run_plan(nxt)

    return PlanningTimeline(
        exec_start=exec_start,
        exec_end=exec_end,
        plan_start=plan_start,
        plan_end=plan_end,
        stalls=stalls,
    )


def min_cores_to_hide_planning(
    plan_times: Sequence[float],
    exec_times: Sequence[float],
    num_machines: int = 1,
    lookahead: int = 2,
    max_cores: int = 128,
    warmup: Optional[int] = None,
) -> Optional[int]:
    """Smallest cores-per-machine hiding all steady-state planning.

    ``warmup`` iterations of ramp-up stall are forgiven (default:
    ``2 * (lookahead + 1)``, enough for the pipeline to fill from a
    cold start).  Returns ``None`` if even ``max_cores`` cannot hide it
    (planning of a single batch longer than ``lookahead`` iterations of
    execution can never be hidden, no matter the parallelism).
    """
    if warmup is None:
        warmup = 2 * (lookahead + 1)
    for cores in itertools.takewhile(
        lambda c: c <= max_cores, itertools.count(1)
    ):
        timeline = simulate_planning_overlap(
            plan_times,
            exec_times,
            num_machines=num_machines,
            cores_per_machine=cores,
            lookahead=lookahead,
        )
        if timeline.planning_hidden(warmup=warmup):
            return cores
    return None
