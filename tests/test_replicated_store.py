"""Tests for R-way replication in the sharded plan store."""

import time

import pytest

from repro.faults import FaultInjector
from repro.service import HashRing, ShardedPlanStore
from repro.service.errors import ShardUnavailable
from repro.service.health import OPEN


def holders(store, key):
    """Shard names whose *backing store* holds ``key`` (ground truth)."""
    return [
        name for name, shard in store._stores.items() if shard.contains(key)
    ]


def make_store(**kwargs):
    kwargs.setdefault("shards", 3)
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("breaker_reset_s", 0.01)
    return ShardedPlanStore(**kwargs)


class TestRingReplicaSets:
    def test_nodes_for_distinct_and_prefix_consistent(self):
        ring = HashRing(["a", "b", "c", "d"])
        for i in range(50):
            key = f"key{i}"
            owners = ring.nodes_for(key, 3)
            assert len(owners) == len(set(owners)) == 3
            assert owners[0] == ring.nodes_for(key)[0]
            assert ring.nodes_for(key, 2) == owners[:2]

    def test_count_clamped_to_population(self):
        ring = HashRing(["a", "b"])
        assert sorted(ring.nodes_for("k", 5)) == ["a", "b"]


class TestReplicatedWrites:
    def test_put_lands_on_replication_owners(self):
        store = make_store()
        for i in range(24):
            store.put(f"sig/{i:04x}", bytes([i]) * 8)
        for i in range(24):
            key = f"sig/{i:04x}"
            assert holders(store, key) and \
                sorted(holders(store, key)) == sorted(store.owners_for(key))
            assert len(holders(store, key)) == 2

    def test_write_survives_one_dead_owner(self):
        injector = FaultInjector()
        store = make_store(fault_injector=injector)
        key = "sig/abcd"
        injector.kill(f"shard:{store.owners_for(key)[0]}")
        store.put(key, b"payload")
        assert store.try_get(key) == b"payload"
        assert store.metrics.counter(
            "service.replica_write_failures"
        ).value >= 1

    def test_write_fails_only_when_all_owners_dead(self):
        injector = FaultInjector()
        store = make_store(fault_injector=injector)
        key = "sig/abcd"
        for name in store.owners_for(key):
            injector.kill(f"shard:{name}")
        with pytest.raises(ShardUnavailable):
            store.put(key, b"payload")


class TestReplicatedReads:
    def test_no_lost_keys_after_single_shard_kill(self):
        injector = FaultInjector()
        store = make_store(shards=4, fault_injector=injector)
        payloads = {f"sig/{i:04x}": bytes([i % 251]) * 16 for i in range(64)}
        for key, value in payloads.items():
            store.put(key, value)
        injector.kill("shard:shard1")
        for key, value in payloads.items():
            assert store.try_get(key) == value  # replica serves every key

    def test_read_repair_reheals_a_wiped_primary(self):
        injector = FaultInjector()
        store = make_store(shards=4, fault_injector=injector)
        # Find a key whose primary is shard1 so the read path probes the
        # wiped shard first and repairs it from the surviving replica.
        key = next(
            f"sig/{i:04x}" for i in range(4096)
            if store.owners_for(f"sig/{i:04x}")[0] == "shard1"
        )
        store.put(key, b"payload")
        injector.kill("shard:shard1")
        injector.restart("shard:shard1")  # restart wipes the shard
        time.sleep(0.02)  # let the breaker's reset window elapse
        assert store.try_get(key) == b"payload"
        assert store._stores["shard1"].contains(key)  # repaired in place
        assert store.metrics.counter("service.read_repairs").value >= 1

    def test_restart_realizes_data_loss(self):
        injector = FaultInjector()
        store = make_store(shards=2, replication=1,
                           fault_injector=injector)
        store.put("sig/0001", b"v")
        name = store.owners_for("sig/0001")[0]
        injector.kill(f"shard:{name}")
        injector.restart(f"shard:{name}")
        time.sleep(0.02)
        # With replication=1 nothing can heal it: the key is gone, which
        # is exactly the failure replication exists to prevent.
        assert store.try_get("sig/0001") is None
        assert store.metrics.counter(
            "service.shard_restarts_seen"
        ).value == 1

    def test_circuit_breaker_fast_fails_dead_shard(self):
        injector = FaultInjector()
        store = make_store(shards=4, breaker_failures=2,
                           breaker_reset_s=30.0, fault_injector=injector)
        payloads = {f"sig/{i:04x}": b"x" * 8 for i in range(32)}
        for key, value in payloads.items():
            store.put(key, value)
        injector.kill("shard:shard0")
        for key, value in payloads.items():
            assert store.try_get(key) == value
        assert store.health.breaker("shard0")._state == OPEN
        assert store.metrics.counter("health.fast_fails").value > 0

    def test_blocking_get_polls_across_replicas(self):
        injector = FaultInjector()
        store = make_store(fault_injector=injector)
        store.put("sig/0001", b"v")
        injector.kill(f"shard:{store.owners_for('sig/0001')[0]}")
        assert store.get("sig/0001", timeout=1.0) == b"v"
        with pytest.raises(KeyError):
            store.get("sig/miss", timeout=0.05)


class TestReplicaOrderReads:
    """Reads walk the owners in ring order, one at a time: a fast-failing
    primary costs nothing, a slow one is waited out."""

    def test_slow_primary_is_waited_out(self):
        injector = FaultInjector()
        store = make_store(fault_injector=injector)
        key = "sig/abcd"
        store.put(key, b"payload")
        injector.slow(f"shard:{store.owners_for(key)[0]}", 0.05)
        start = time.monotonic()
        assert store.try_get(key) == b"payload"
        assert time.monotonic() - start >= 0.05
        assert store.metrics.counter("service.read_repairs").value == 0

    def test_breaker_open_primary_costs_no_delay(self):
        injector = FaultInjector()
        store = make_store(fault_injector=injector, breaker_reset_s=30.0)
        key = "sig/abcd"
        store.put(key, b"payload")
        primary = store.owners_for(key)[0]
        injector.slow(f"shard:{primary}", 1.0)
        for _ in range(store.health.failure_threshold):
            store.health.record_failure(primary)
        start = time.monotonic()
        assert store.try_get(key) == b"payload"
        assert time.monotonic() - start < 0.5  # the stall was never paid
        assert store.metrics.counter("health.fast_fails").value == 1

    def test_replica_hit_repairs_a_primary_that_missed_the_write(self):
        store = make_store()
        key = "sig/abcd"
        primary, replica = store.owners_for(key)
        store._stores[replica].put(key, b"payload")
        assert store.try_get(key) == b"payload"
        assert store._stores[primary].try_get(key) == b"payload"
        assert store.metrics.counter("service.read_repairs").value == 1

    def test_miss_asks_every_owner_once(self):
        store = make_store()
        assert store.try_get("sig/miss") is None
        assert store.metrics.counter("kv.get_misses").value == 2
        assert store.metrics.counter("service.read_repairs").value == 0


class TestAntiEntropy:
    def test_sync_heals_wiped_shard_to_full_replication(self):
        injector = FaultInjector()
        store = make_store(shards=4, fault_injector=injector)
        payloads = {f"sig/{i:04x}": bytes([i % 251]) * 8 for i in range(48)}
        for key, value in payloads.items():
            store.put(key, value)
        injector.kill("shard:shard2")
        injector.restart("shard:shard2")
        time.sleep(0.02)
        store.try_get(next(iter(payloads)))  # realize the wipe
        assert store.missing_replicas() > 0
        repaired = store.sync()
        assert repaired > 0
        assert store.missing_replicas() == 0
        for key, value in payloads.items():
            assert sorted(holders(store, key)) == \
                sorted(store.owners_for(key))

    def test_background_anti_entropy_thread(self):
        injector = FaultInjector()
        store = make_store(shards=3, fault_injector=injector,
                           anti_entropy_interval_s=0.02)
        try:
            for i in range(24):
                store.put(f"sig/{i:04x}", b"x" * 8)
            injector.kill("shard:shard0")
            injector.restart("shard:shard0")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if store.missing_replicas() == 0:
                    break
                time.sleep(0.02)
            assert store.missing_replicas() == 0
        finally:
            store.close()


class TestTopologyWithReplication:
    def test_replication_clamped_to_shard_count(self):
        store = ShardedPlanStore(shards=2, replication=5)
        assert store.replication == 2
        with pytest.raises(ValueError):
            ShardedPlanStore(shards=2, replication=0)
