"""Tests for failure handling in the plan service: typed errors,
degraded-mode serving with background upgrade, a KV distribution
route that surfaces store errors, and shm leak reclamation."""

import threading
import time

import pytest

from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.core import batch_signature
from repro.core.kvstore import KVStore
from repro.faults import FaultInjector
from repro.pipeline import (
    KVPlannerBackend,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
from repro.pipeline import shm as shm_mod
from repro.pipeline.shm import PlanRing, ShmUnavailable
from repro.placement import PlacementConfig
from repro.service import (
    AdmissionController,
    PlanRejected,
    PlanService,
    degraded_plan,
    is_degraded,
    signature_key,
)
from repro.service.errors import (
    PlannerUnavailable,
    PlanTimeout,
    ServiceError,
    ShardUnavailable,
    TransientServiceError,
    is_retryable,
)


def make_planner():
    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16,
                                placement=PlacementConfig(restarts=1)))


def batch(seqlens):
    return BatchSpec.build(list(seqlens), make_mask("causal"))


class GatedPlanner:
    """Planner that blocks on a gate, for saturating the worker pool."""

    def __init__(self, planner=None):
        self.planner = planner if planner is not None else make_planner()
        self.gate = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    @property
    def cluster(self):
        return self.planner.cluster

    @property
    def attention(self):
        return self.planner.attention

    @property
    def config(self):
        return self.planner.config

    def plan_batch(self, spec):
        with self._lock:
            self.calls += 1
        assert self.gate.wait(timeout=30.0)
        return self.planner.plan_batch(spec)


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- typed error hierarchy ----------------------------------------------------


class TestErrorHierarchy:
    def test_retryable_classification(self):
        assert is_retryable(PlanRejected("t", "tenant_queue_full"))
        assert is_retryable(ShardUnavailable("shard0"))
        assert is_retryable(PlanTimeout(0.1))
        assert not is_retryable(PlannerUnavailable("pool dead"))
        assert not is_retryable(ValueError("not a service error"))

    def test_one_hierarchy(self):
        for exc in (PlanRejected("t", "r"), ShardUnavailable("s"),
                    PlanTimeout(0.1)):
            assert isinstance(exc, TransientServiceError)
            assert isinstance(exc, ServiceError)
            assert isinstance(exc, RuntimeError)
        assert isinstance(PlannerUnavailable("x"), ServiceError)

    def test_plan_rejected_carries_backoff_hint(self):
        exc = PlanRejected("tenant", "service_saturated",
                           retry_after_s=0.05)
        assert exc.tenant == "tenant"
        assert exc.reason == "service_saturated"
        assert exc.retry_after_s == pytest.approx(0.05)


# -- the KV route surfaces store errors ---------------------------------------


class FailingStore:
    """KV store whose matching public ops raise ``exc`` unapplied.

    The first ``after`` calls to an op in ``ops`` go through; the next
    ``fails`` raise.  Everything else reaches the wrapped store.
    """

    def __init__(self, fails, exc=None,
                 ops=("put", "put_if_changed", "get", "get_unless"),
                 after=0):
        self.store = KVStore()
        self.remaining = fails
        self.exc = exc if exc is not None else ShardUnavailable("flaky")
        self.ops = ops
        self.after = after
        self.calls = 0

    def _call(self, op, *args, **kwargs):
        if op in self.ops:
            self.calls += 1
            if self.calls > self.after and self.remaining > 0:
                self.remaining -= 1
                raise self.exc
        return getattr(self.store, op)(*args, **kwargs)

    def put(self, key, value):
        return self._call("put", key, value)

    def put_if_changed(self, key, value):
        return self._call("put_if_changed", key, value)

    def get(self, key, timeout=None):
        return self._call("get", key, timeout=timeout)

    def get_unless(self, key, version=None, timeout=None):
        return self._call("get_unless", key, version=version, timeout=timeout)

    def __getattr__(self, name):
        return getattr(self.store, name)


def remote_planner():
    """Device 1 sits off the store's host machine, so its reads cost."""
    cluster = ClusterSpec(num_machines=2, devices_per_machine=1)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16,
                                placement=PlacementConfig(restarts=1)))


@pytest.fixture
def kv_backend():
    """``KVPlannerBackend`` over a store; closes what it built."""
    built = []

    def factory(store, planner=None):
        backend = KVPlannerBackend(
            planner if planner is not None else remote_planner(), store
        )
        built.append(backend)
        return backend

    yield factory
    for backend in built:
        backend.close()


def served(future):
    plan, _start, _end = future.result(timeout=30.0)
    return plan


def written(backend):
    return backend.metrics.counter("pool.device_entries_written").value


class TestKVBackendStoreErrors:
    def test_put_error_fails_the_ticket_on_first_attempt(self, kv_backend):
        store = FailingStore(fails=1)
        backend = kv_backend(store)
        spec = batch([48, 32])
        with pytest.raises(ShardUnavailable):
            served(backend.submit(0, spec))
        assert store.calls == 1  # no hidden retry
        assert backend.consumer_wire_bytes == 0
        assert store.keys() == []  # the failed put left nothing
        plan = served(backend.resubmit(0, spec))
        assert plan_fingerprint(plan) == plan_fingerprint(
            remote_planner().plan_batch(spec)
        )
        assert backend.consumer_wire_bytes > 0

    def test_get_error_fails_the_ticket(self, kv_backend):
        store = FailingStore(fails=1, ops=("get",),
                             exc=ShardUnavailable("shard0"))
        backend = kv_backend(store)
        spec = batch([48, 32])
        with pytest.raises(ShardUnavailable):
            served(backend.submit(0, spec))
        assert backend.consumer_wire_bytes == 0
        assert written(backend) == 2  # the publish landed
        plan = served(backend.resubmit(0, spec))
        assert written(backend) == 2  # republished unchanged
        assert plan_fingerprint(plan) == plan_fingerprint(
            remote_planner().plan_batch(spec)
        )

    def test_non_retryable_error_surfaces_unchanged(self, kv_backend):
        bug = ValueError("bug")
        backend = kv_backend(FailingStore(fails=1, exc=bug))
        with pytest.raises(ValueError) as info:
            served(backend.submit(0, batch([48, 32])))
        assert info.value is bug

    def test_mid_pull_error_charges_no_wire_bytes(self, kv_backend):
        """Device 0's reads went through before device 1's failed: the
        job accounts nothing, and the retry charges one whole pull."""
        store = FailingStore(fails=1, ops=("get_unless",), after=1)
        backend = kv_backend(store)
        spec = batch([48, 32])
        with pytest.raises(ShardUnavailable):
            served(backend.submit(0, spec))
        assert backend.consumer_wire_bytes == 0
        assert backend._cursors == {}
        served(backend.resubmit(0, spec))
        remote = (len(store.get("plan/0/skeleton"))
                  + len(store.get("plan/0/device/1")))
        assert backend.consumer_wire_bytes == remote

    def test_conditional_write_error_fails_the_ticket(self, kv_backend):
        store = FailingStore(fails=1, ops=("put_if_changed",))
        backend = kv_backend(store)
        spec = batch([48, 32])
        with pytest.raises(ShardUnavailable):
            served(backend.submit(0, spec))
        assert store.calls == 1
        assert backend.consumer_wire_bytes == 0
        served(backend.resubmit(0, spec))
        assert written(backend) == 2

    def test_pipeline_retry_serves_the_plan(self):
        planner = remote_planner()
        specs = [batch([48, 32]), batch([64, 16])]
        store = FailingStore(fails=1)
        pipeline = StreamingOverlapPipeline(
            iter(specs), planner, lookahead=1,
            backend=KVPlannerBackend(planner, store),
        )
        with pipeline:
            plans = [plan for _, plan in pipeline]
        assert [plan_fingerprint(p) for p in plans] == [
            plan_fingerprint(planner.plan_batch(spec)) for spec in specs
        ]
        assert pipeline.stats().plan_retries == 1


# -- degraded plans -----------------------------------------------------------


class TestDegradedPlan:
    def test_tagged_valid_and_deterministic(self):
        planner = make_planner()
        spec = batch([64, 48])
        fallback = degraded_plan(planner, spec)
        assert is_degraded(fallback)
        assert fallback.meta["degraded_source"] == "zigzag"
        again = degraded_plan(planner, spec)
        assert plan_fingerprint(fallback) == plan_fingerprint(again)
        # Same executable geometry as the optimal plan, worse placement.
        optimal = planner.plan_batch(spec)
        assert not is_degraded(optimal)
        assert set(fallback.device_plans) == set(optimal.device_plans)


class TestDeadlineDegradedServing:
    def test_deadline_miss_serves_degraded_then_upgrades(self):
        planner = GatedPlanner()
        with PlanService(planner, workers=1, replication=2) as service:
            spec = batch([64, 48])
            served = service.fetch_plan("t", spec, deadline=0.3)
            assert is_degraded(served)
            stats = service.stats()
            assert stats["degraded_served"] == 1
            assert stats["pending_upgrades"] == 1
            # A second fetch hits the degraded cache entry immediately.
            assert is_degraded(service.fetch_plan("t", spec, deadline=0.3))
            planner.gate.set()  # let the queued demand dispatch finish
            signature = batch_signature(spec)
            assert wait_until(
                lambda: not is_degraded(service.cache.peek(signature))
            )
            upgraded = service.fetch_plan("t", spec, deadline=0.3)
            assert not is_degraded(upgraded)
            assert plan_fingerprint(upgraded) == \
                plan_fingerprint(make_planner().plan_batch(spec))
            stats = service.stats()
            assert stats["plan_upgrades"] == 1
            assert stats["pending_upgrades"] == 0

    def test_shed_dispatch_degrades_and_background_upgrades(self):
        planner = GatedPlanner()
        admission = AdmissionController(max_queued_per_tenant=1,
                                        max_inflight_per_tenant=1)
        with PlanService(planner, workers=1,
                         admission=admission) as service:
            filler = batch([32, 32])
            hot = batch([64, 48])
            # Saturate: one job in flight on the only worker, one queued.
            worker = threading.Thread(
                target=lambda: service.fetch_plan("t", filler, timeout=30.0)
            )
            worker.start()
            assert wait_until(lambda: planner.calls == 1)
            service.scheduler.submit("t", lambda: None)  # fills the queue
            start = time.monotonic()
            served = service.fetch_plan("t", hot, deadline=5.0)
            # Shed dispatch degrades immediately, not after the deadline.
            assert time.monotonic() - start < 2.0
            assert is_degraded(served)
            planner.gate.set()
            worker.join(timeout=30.0)
            signature = batch_signature(hot)
            assert wait_until(
                lambda: not is_degraded(service.cache.peek(signature))
            )
            assert service.stats()["plan_upgrades"] == 1

    def test_failed_fallback_releases_its_reservation(self):
        """A planner exposing only ``plan_batch`` cannot build the
        degraded fallback.  A shed deadline fetch then raises, but it
        must not leave its signature's reservation in flight: a later
        fetch with every worker idle plans it instead of timing out."""

        class BarePlanner:
            def __init__(self):
                self.inner = GatedPlanner()
                self.gate = self.inner.gate

            def plan_batch(self, spec):
                return self.inner.plan_batch(spec)

        planner = BarePlanner()
        admission = AdmissionController(1, 1, 1)
        with PlanService(planner, workers=1,
                         admission=admission) as service:
            filler = batch([32, 32])
            hot = batch([64, 48])
            # Two fetches in flight: one on the only worker, one queued.
            fetchers = [
                threading.Thread(
                    target=lambda spec=spec: service.fetch_plan(
                        "t", spec, timeout=30.0
                    )
                )
                for spec in (filler, batch([96, 16]))
            ]
            fetchers[0].start()
            assert wait_until(lambda: planner.inner.calls == 1)
            fetchers[1].start()
            assert wait_until(
                lambda: service.scheduler._total_queued == 1
            )
            with pytest.raises(AttributeError):
                service.fetch_plan("t", hot, deadline=5.0)
            planner.gate.set()
            for fetcher in fetchers:
                fetcher.join(timeout=30.0)
            plan = service.fetch_plan("t", hot, timeout=1.0)
            assert plan_fingerprint(plan) == \
                plan_fingerprint(make_planner().plan_batch(hot))

    def test_waiters_behind_reservation_get_degraded_too(self):
        planner = GatedPlanner()
        with PlanService(planner, workers=1) as service:
            spec = batch([64, 48])
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        service.fetch_plan("t", spec, deadline=0.5)
                    )
                )
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            planner.gate.set()
            assert len(results) == 3
            assert all(is_degraded(plan) for plan in results)
            # Exactly one degraded synthesis was published; the others
            # joined it (reservation waiters) or hit the cached entry.
            assert service.stats()["requests"] == 3

    def test_deadline_degrades_after_epoch_roll_pruned_the_exemplar(self):
        """A cold signature's deadline expiring after another tenant's
        traffic rolled the epoch (pruning exemplars to the hot set)
        must still degrade from the batch the fetch holds, not raise
        ``KeyError`` from the exemplar table."""
        entered = threading.Event()

        class SignallingPlanner(GatedPlanner):
            def plan_batch(self, spec):
                entered.set()
                return super().plan_batch(spec)

        planner = SignallingPlanner()
        with PlanService(planner, workers=1, prewarm_top_k=2) as service:
            cold = batch([64, 48])
            outcome = []

            def fetch():
                try:
                    outcome.append(
                        service.fetch_plan("cold", cold, deadline=0.5)
                    )
                except BaseException as exc:
                    outcome.append(exc)

            fetcher = threading.Thread(target=fetch)
            fetcher.start()
            assert entered.wait(timeout=30.0)  # the fetch now waits
            for hot in (batch([32, 32]), batch([96, 16])):
                for _ in range(5):
                    service.forecast.record(batch_signature(hot))
            service.roll_epoch()
            assert batch_signature(cold) not in service._exemplars
            fetcher.join(timeout=30.0)
            assert not fetcher.is_alive()
            planner.gate.set()
            assert len(outcome) == 1 and is_degraded(outcome[0])

    def test_fast_path_with_deadline_stays_optimal(self):
        with PlanService(make_planner(), workers=2,
                         replication=2) as service:
            spec = batch([64, 48])
            plan = service.fetch_plan("t", spec, deadline=30.0)
            assert not is_degraded(plan)
            assert service.stats()["degraded_served"] == 0

    def test_deadline_store_read_passes_a_killed_primary(self):
        """A deadline fetch whose plan lives only in the warm store
        reads past its killed primary to the replica: a store hit, the
        optimal plan, nothing degraded."""
        injector = FaultInjector()
        planner = make_planner()
        with PlanService(planner, workers=1, replication=2,
                         fault_injector=injector) as service:
            spec = batch([64, 48])
            service.fetch_plan("t", spec, timeout=30.0)
            service.cache.invalidate()
            key = signature_key(batch_signature(spec))
            injector.kill(f"shard:{service.store.owners_for(key)[0]}")
            store_hits = service.stats()["store_hits"]
            plan = service.fetch_plan("t", spec, deadline=0.5)
            assert not is_degraded(plan)
            assert plan_fingerprint(plan) == \
                plan_fingerprint(planner.plan_batch(spec))
            stats = service.stats()
            assert stats["store_hits"] == store_hits + 1
            assert stats["degraded_served"] == 0

    def test_timeout_without_deadline_raises_typed(self):
        planner = GatedPlanner()
        service = PlanService(planner, workers=1)
        try:
            with pytest.raises(PlanTimeout) as excinfo:
                service.fetch_plan("t", batch([64, 48]), timeout=0.1)
            assert is_retryable(excinfo.value)
        finally:
            planner.gate.set()
            service.close()


class TestWorkerRobustness:
    def test_worker_survives_poison_job(self):
        class PoisonedPlanner:
            def __init__(self):
                self.planner = make_planner()
                self.cluster = self.planner.cluster
                self.attention = self.planner.attention
                self.config = self.planner.config

            def plan_batch(self, spec):
                if len(spec.sequences) == 1:
                    raise RuntimeError("poison batch")
                return self.planner.plan_batch(spec)

        with PlanService(PoisonedPlanner(), workers=1) as service:
            with pytest.raises(RuntimeError, match="poison"):
                service.fetch_plan("t", batch([64]), timeout=30.0)
            # The single worker survived and keeps serving other batches.
            plan = service.fetch_plan("t", batch([64, 48]), timeout=30.0)
            assert not is_degraded(plan)
            assert service.stats()["worker_job_errors"] == 1

    def test_store_outage_does_not_fail_the_fetch(self):
        injector = FaultInjector()
        with PlanService(make_planner(), workers=1, shards=2,
                         fault_injector=injector) as service:
            injector.kill("shard:shard0")
            injector.kill("shard:shard1")
            plan = service.fetch_plan("t", batch([64, 48]), timeout=30.0)
            assert not is_degraded(plan)  # planned + cache-served
            assert service.stats()["store_put_failures"] == 1


class TestClosedScheduler:
    """A dispatch the closed scheduler refuses gives its signature's
    reservation back: the next request of the signature owns it rather
    than waiting on a job nobody will run."""

    def test_demand_miss_raises_typed_then_degrades(self, monkeypatch):
        service = PlanService(make_planner(), workers=1)
        service.close()
        # The scheduler closes between the liveness check and submit.
        monkeypatch.setattr(service, "_planner_available", lambda: True)
        spec = batch([64, 48])
        with pytest.raises(PlannerUnavailable):
            service.fetch_plan("t", spec, timeout=1.0)
        start = time.monotonic()
        plan = service.fetch_plan("t", spec, deadline=5.0)
        assert is_degraded(plan)
        assert time.monotonic() - start < 2.5  # served, not waited out

    def test_deadline_miss_degrades_without_waiting(self, monkeypatch):
        service = PlanService(make_planner(), workers=1)
        service.close()
        monkeypatch.setattr(service, "_planner_available", lambda: True)
        spec = batch([64, 48])
        start = time.monotonic()
        plan = service.fetch_plan("t", spec, deadline=5.0)
        assert is_degraded(plan)
        # The fallback was published in place of the reservation, so the
        # next fetch is a cache hit, not a wait on a job nobody runs.
        assert is_degraded(service.fetch_plan("t", spec, deadline=5.0))
        assert time.monotonic() - start < 2.5

    def test_prewarm_abandons_its_reservation(self):
        service = PlanService(make_planner(), workers=1)
        service.close()
        spec = batch([64, 48])
        with pytest.raises(PlannerUnavailable):
            service.fetch_plan("t", spec)  # records the exemplar
        assert service.prewarm([batch_signature(spec)]) == 0
        status, _payload, _epoch = service.cache.reserve(
            batch_signature(spec)
        )
        assert status == "own"


# -- shm leak reclamation -----------------------------------------------------


class TestShmLeakReclaim:
    def _ring(self):
        try:
            return PlanRing.create(slots=2, slot_bytes=4096)
        except ShmUnavailable:
            pytest.skip("shared memory unavailable on this host")

    def test_leaked_map_reclaimed_after_view_release(self):
        ring = self._ring()
        slot = ring.reserve()
        assert ring.write(slot, b"payload")
        view = ring.read(slot)
        before = shm_mod.leaked_maps()
        ring.close()  # exported view still alive -> both segments leak
        leaked = shm_mod.leaked_maps() - before
        assert leaked > 0
        view.release()
        assert shm_mod.reclaim_leaked() == leaked
        assert shm_mod.leaked_maps() == before

    def test_next_ring_operation_reclaims(self):
        ring = self._ring()
        slot = ring.reserve()
        assert ring.write(slot, b"payload")
        view = ring.read(slot)
        before = shm_mod.leaked_maps()
        ring.close()
        assert shm_mod.leaked_maps() > before
        view.release()
        other = self._ring()
        try:
            other.reserve()  # ring traffic triggers deferred reclaim
            assert shm_mod.leaked_maps() == before
        finally:
            other.close()

    def test_unreleasable_view_stays_queued(self):
        ring = self._ring()
        slot = ring.reserve()
        assert ring.write(slot, b"payload")
        view = ring.read(slot)
        before = shm_mod.leaked_maps()
        ring.close()
        leaked = shm_mod.leaked_maps() - before
        assert shm_mod.reclaim_leaked() == 0  # view still alive
        assert shm_mod.leaked_maps() == before + leaked
        view.release()
        assert shm_mod.reclaim_leaked() == leaked
