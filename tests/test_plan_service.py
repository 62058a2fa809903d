"""Tests for the multi-tenant plan service (repro.service)."""

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
from repro.pipeline import plan_fingerprint
from repro.service import (
    AdmissionController,
    FairScheduler,
    HashRing,
    PlanRejected,
    PlanService,
    ShardedPlanStore,
    WorkloadForecast,
    signature_key,
)


def make_planner():
    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, attention,
                      DCPConfig(block_size=16, restarts=1))


def batch(seqlens):
    return BatchSpec.build(list(seqlens), make_mask("causal"))


class CountingPlanner:
    """Wraps a planner, counting plan_batch dispatches (thread-safe)."""

    def __init__(self, planner=None, delay_s=0.0, gate=None):
        self.planner = planner if planner is not None else make_planner()
        self.delay_s = delay_s
        self.gate = gate
        self.calls = 0
        self._lock = threading.Lock()

    def plan_batch(self, spec):
        with self._lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0)
        if self.delay_s:
            time.sleep(self.delay_s)
        return self.planner.plan_batch(spec)


# -- consistent hashing / sharded store ---------------------------------------


class TestHashRing:
    def test_deterministic_assignment(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key{i}" for i in range(100)]
        first = [ring.nodes_for(key)[0] for key in keys]
        assert first == [ring.nodes_for(key)[0] for key in keys]
        assert set(first) == {"a", "b", "c"}  # all nodes take traffic

    def test_add_node_moves_only_a_fraction(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"key{i}" for i in range(400)]
        before = {key: ring.nodes_for(key)[0] for key in keys}
        ring.add("d")
        moved = sum(1 for key in keys if ring.nodes_for(key)[0] != before[key])
        # Consistency: only keys now owned by d moved, roughly 1/4.
        assert 0 < moved < len(keys) // 2
        for key in keys:
            if ring.nodes_for(key)[0] != before[key]:
                assert ring.nodes_for(key)[0] == "d"

    def test_duplicate_node_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")


class TestShardedPlanStore:
    def test_round_trip_spreads_across_shards(self):
        store = ShardedPlanStore(shards=4)
        for i in range(64):
            store.put(f"sig/{i:04x}", bytes([i]) * 8)
        assert store.try_get("sig/0001") == b"\x01" * 8
        assert store.try_get("sig/ffff") is None
        sizes = {
            name: shard.size_bytes() for name, shard in store._stores.items()
        }
        assert len(sizes) == 4
        assert sum(1 for size in sizes.values() if size > 0) >= 2

    def test_ring_is_fixed_at_construction(self):
        first = ShardedPlanStore(shards=3, replication=2)
        second = ShardedPlanStore(shards=3, replication=2)
        assert list(first._stores) == ["shard0", "shard1", "shard2"]
        assert first.num_shards == 3
        keys = [f"sig/{i:04x}" for i in range(64)]
        # Placement is a pure function of the key and the shard names.
        assert [first.owners_for(k) for k in keys] == \
            [second.owners_for(k) for k in keys]
        for key in keys:
            first.put(key, b"v")
        assert [first.owners_for(k) for k in keys] == \
            [second.owners_for(k) for k in keys]

    def test_shard_sizes_count_every_replica(self):
        store = ShardedPlanStore(shards=3, replication=2)
        payloads = {f"sig/{i:04x}": b"x" * (i + 1) for i in range(32)}
        for key, value in payloads.items():
            store.put(key, value)
        resident = 2 * sum(len(value) for value in payloads.values())
        assert sum(
            shard.size_bytes() for shard in store._stores.values()
        ) == resident
        assert store.keys() == sorted(payloads)  # replicas deduplicated

    @pytest.mark.parametrize("replication", [1, 2])
    def test_blocking_get_waits_for_a_late_put(self, replication):
        """Replication 1 waits on the owner shard's own blocking get;
        more replicas poll them all."""
        store = ShardedPlanStore(shards=2, replication=replication)
        timer = threading.Timer(0.05, store.put, args=("sig/late", b"v"))
        timer.start()
        try:
            assert store.get("sig/late", timeout=5.0) == b"v"
        finally:
            timer.join()
        with pytest.raises(KeyError):
            store.get("sig/never", timeout=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedPlanStore(shards=0)
        with pytest.raises(ValueError):
            ShardedPlanStore(anti_entropy_interval_s=0.0)


# -- admission + fair queueing ------------------------------------------------


class TestFairScheduler:
    def test_wdrr_serves_proportionally_to_weight(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=64)
        )
        scheduler.set_weight("heavy", 4.0)
        scheduler.set_weight("light", 1.0)
        for i in range(40):
            scheduler.submit("heavy", ("h", i))
            scheduler.submit("light", ("l", i))
        served = [scheduler.pop(timeout=1.0)[0] for _ in range(30)]
        heavy = served.count("heavy")
        light = served.count("light")
        # 4:1 credit per round -> heavy drains ~4x light's jobs.
        assert heavy == 24 and light == 6

    def test_fifo_within_a_tenant(self):
        scheduler = FairScheduler()
        for i in range(5):
            scheduler.submit("t", i)
        order = [scheduler.pop(timeout=1.0)[1] for _ in range(5)]
        assert order == [0, 1, 2, 3, 4]

    def test_rejects_on_tenant_queue_depth(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=2,
                                          retry_after_s=0.03)
        )
        scheduler.submit("t", 1)
        scheduler.submit("t", 2)
        with pytest.raises(PlanRejected) as info:
            scheduler.submit("t", 3)
        assert info.value.reason == "tenant_queue_full"
        assert info.value.tenant == "t"
        assert info.value.retry_after_s == pytest.approx(0.03)
        # Another tenant is unaffected: caps are per-tenant.
        scheduler.submit("other", 1)

    def test_rejects_on_global_saturation(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=8,
                                          max_queued_total=3)
        )
        for who in ("a", "b", "c"):
            scheduler.submit(who, 0)
        with pytest.raises(PlanRejected) as info:
            scheduler.submit("d", 0)
        assert info.value.reason == "service_saturated"

    def test_backoff_retry_succeeds_after_drain(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=1,
                                          retry_after_s=0.01)
        )
        scheduler.submit("t", "first")
        deadline = time.time() + 5.0
        while True:
            try:
                scheduler.submit("t", "second")
                break
            except PlanRejected as exc:
                assert time.time() < deadline, "backoff never admitted"
                # Drain one job like a worker would, then honor the hint.
                popped = scheduler.pop(timeout=1.0)
                if popped is not None:
                    scheduler.task_done(popped[0])
                time.sleep(exc.retry_after_s)

    def test_close_wakes_blocked_pop(self):
        scheduler = FairScheduler()
        results = []

        def popper():
            results.append(scheduler.pop(timeout=10.0))

        thread = threading.Thread(target=popper)
        thread.start()
        time.sleep(0.05)
        scheduler.close()
        thread.join(timeout=5.0)
        assert results == [None]

    def test_rejection_metrics(self):
        scheduler = FairScheduler(
            admission=AdmissionController(max_queued_per_tenant=1)
        )
        scheduler.submit("t", 1)
        for _ in range(3):
            with pytest.raises(PlanRejected):
                scheduler.submit("t", 2)
        snapshot = scheduler.metrics.snapshot()
        assert snapshot["service.rejected"]["value"] == 3
        assert snapshot["service.rejected_tenant_queue_full"]["value"] == 3
        assert snapshot["service.admitted"]["value"] == 1


# -- workload forecasting -----------------------------------------------------


class TestWorkloadForecast:
    def test_predicts_hottest_signatures_first(self):
        forecast = WorkloadForecast()
        for _ in range(5):
            forecast.record("hot")
        for _ in range(2):
            forecast.record("warm")
        forecast.record("cold")
        forecast.roll_epoch()
        assert forecast.predict(top_k=2) == ["hot", "warm"]

    def test_decay_prefers_recent_epochs(self):
        forecast = WorkloadForecast(decay=0.5)
        forecast.record("old", count=3)
        forecast.roll_epoch()
        forecast.record("new", count=2)
        forecast.roll_epoch()
        # new scores 2.0, old scores 3 * 0.5 = 1.5.
        assert forecast.predict(top_k=2) == ["new", "old"]

    def test_history_bound(self):
        forecast = WorkloadForecast(history=2)
        forecast.record("ancient", count=100)
        forecast.roll_epoch()
        forecast.roll_epoch()
        forecast.roll_epoch()  # ancient's epoch fell out of the window
        assert forecast.scores() == {}


# -- the service facade -------------------------------------------------------


class TestPlanService:
    def test_concurrent_tenants_one_signature_one_dispatch(self):
        planner = CountingPlanner()
        spec = batch([48, 32])
        with PlanService(planner, workers=2) as service:
            plans = [None] * 8
            errors = []

            def client(who):
                try:
                    plans[who] = service.fetch_plan(
                        f"tenant{who}", spec, timeout=30.0
                    )
                except BaseException as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(who,))
                for who in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
        assert planner.calls == 1  # exactly one dispatch for 8 tenants
        assert all(plan is plans[0] for plan in plans)

    def test_fingerprint_identical_to_synchronous(self):
        spec = batch([64, 32])
        reference = make_planner().plan_batch(spec)
        with PlanService(make_planner(), workers=1) as service:
            served = service.fetch_plan("t", spec, timeout=30.0)
            assert plan_fingerprint(served) == plan_fingerprint(reference)
            # And again after a cache-eviction round trip through the
            # sharded store's wire encoding.
            service.cache.invalidate()
            decoded = service.fetch_plan("t", spec, timeout=30.0)
            assert plan_fingerprint(decoded) == plan_fingerprint(reference)

    def test_store_hit_skips_replanning(self):
        planner = CountingPlanner()
        spec = batch([48, 16])
        with PlanService(planner, workers=1) as service:
            service.fetch_plan("t", spec, timeout=30.0)
            assert planner.calls == 1
            service.cache.invalidate()  # evict from the hot cache only
            service.fetch_plan("t", spec, timeout=30.0)
            assert planner.calls == 1  # decoded from the store
            assert service.stats()["store_hits"] == 1

    def test_rejection_is_typed_and_not_sticky(self):
        gate = threading.Event()
        planner = CountingPlanner(gate=gate)
        with PlanService(
            planner,
            workers=1,
            admission=AdmissionController(max_queued_per_tenant=1,
                                          max_inflight_per_tenant=1,
                                          retry_after_s=0.01),
        ) as service:
            fetches = []

            def background(spec):
                thread = threading.Thread(
                    target=lambda: fetches.append(
                        service.fetch_plan("t", spec, timeout=30.0)
                    )
                )
                thread.start()
                return thread

            first = background(batch([32]))   # worker picks it up, blocks
            deadline = time.time() + 5.0
            while planner.calls < 1 and time.time() < deadline:
                time.sleep(0.005)
            second = background(batch([48]))  # sits in t's queue
            deadline = time.time() + 5.0
            while service.scheduler._total_queued < 1 \
                    and time.time() < deadline:
                time.sleep(0.005)
            rejected = batch([64])
            with pytest.raises(PlanRejected) as info:
                service.fetch_plan("t", rejected, timeout=30.0)
            assert info.value.reason == "tenant_queue_full"
            assert info.value.retry_after_s > 0
            gate.set()
            first.join(timeout=30.0)
            second.join(timeout=30.0)
            # The shed reservation was abandoned, not stranded: the
            # same signature plans fine on retry.
            plan = service.fetch_plan("t", rejected, timeout=30.0)
            assert plan is not None
            assert len(fetches) == 2

    def test_prewarm_and_demand_never_double_plan(self):
        planner = CountingPlanner()
        hot, warm = batch([32, 16]), batch([48, 16])
        fillers = [batch([64 + 16 * i]) for i in range(6)]
        with PlanService(planner, workers=2, cache_capacity=6,
                         prewarm_top_k=16) as service:
            for _ in range(3):
                service.fetch_plan("t", hot, timeout=30.0)
            for _ in range(2):
                service.fetch_plan("t", warm, timeout=30.0)
            planned_once = planner.calls
            assert planned_once == 2
            assert service.roll_epoch() == 0  # hot set fully cached
            # Churn hot+warm out of the 6-entry cache with fillers.
            for filler in fillers:
                service.fetch_plan("t", filler, timeout=30.0)
            assert planner.calls == planned_once + len(fillers)
            assert service.cache.peek(batch_signature(hot)) is None
            # Epoch roll: forecast still ranks hot/warm from history;
            # pre-warm promotes them from the store without planning.
            service.roll_epoch()
            assert planner.calls == planned_once + len(fillers)
            assert service.cache.peek(batch_signature(hot)) is not None
            # The next demand fetch is a pre-warm hit.
            service.fetch_plan("t", hot, timeout=30.0)
            stats = service.stats()
            assert stats["prewarm_hits"] == 1
            # A pre-warm hit has a pre-warm behind it — here a promotion
            # from the store, not a planner dispatch.
            assert stats["prewarm_submitted"] + stats["prewarm_promoted"] >= 1
            assert stats["prewarm_submitted"] == 0
            assert planner.calls == planned_once + len(fillers)

    def test_prewarm_reservations_do_not_skew_demand_hit_rate(self):
        planner = CountingPlanner()
        spec = batch([32, 32])
        with PlanService(planner, workers=1) as service:
            service.fetch_plan("t", spec, timeout=30.0)
            before = service.cache.stats()
            service.prewarm([batch_signature(spec)])
            after = service.cache.stats()
            assert (after["hits"], after["misses"]) == (
                before["hits"], before["misses"]
            )

    def test_signature_key_stable_and_shard_friendly(self):
        a = signature_key(batch_signature(batch([32, 16])))
        b = signature_key(batch_signature(batch([32, 16])))
        c = signature_key(batch_signature(batch([16, 32])))
        assert a == b and a != c and a.startswith("sig/")

