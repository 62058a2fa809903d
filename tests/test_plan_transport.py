"""Plan byte transport: the shm ring and the KV store's accounting."""

import hashlib
import os
import pickle
import threading

import numpy as np
import pytest

from repro.blocks import BatchSpec
from repro.core import DCPConfig, DCPPlanner, KVStore
from repro.masks import make_mask
from repro.pipeline import KVPlannerBackend
from repro.pipeline import shm as shm_mod
from repro.pipeline.shm import PlanRing, ShmUnavailable
from repro.sim import ClusterSpec

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)


def make_planner():
    return DCPPlanner(CLUSTER, config=DCPConfig(block_size=256))


def make_batches(n=3, base=1024):
    return [
        BatchSpec.build([base + 256 * i, 512], [make_mask("causal")] * 2)
        for i in range(n)
    ]


# -- shm ring ----------------------------------------------------------------


def free_slots(ring) -> int:
    """Slots of ``ring`` no writer holds."""
    return sum(
        1 for slot in range(ring.slots)
        if ring._header(slot)[0] == shm_mod._FREE
    )


class TestPlanRing:
    def test_roundtrip(self):
        with PlanRing.create(slots=2, slot_bytes=1024) as ring:
            slot = ring.reserve()
            assert slot is not None
            assert ring.write(slot, b"hello plan")
            view = ring.read(slot)
            assert bytes(view) == b"hello plan"
            view.release()
            ring.free(slot)
            assert free_slots(ring) == 2

    def test_reserve_exhaustion_and_free(self):
        with PlanRing.create(slots=2, slot_bytes=64) as ring:
            a, b = ring.reserve(), ring.reserve()
            assert {a, b} == {0, 1}
            assert ring.reserve() is None  # full: caller falls back
            ring.free(a)
            assert ring.reserve() == a

    def test_write_too_big_falls_back(self):
        with PlanRing.create(slots=1, slot_bytes=8) as ring:
            slot = ring.reserve()
            assert ring.write(slot, b"x" * 9) is False
            # Slot still reserved and usable for a fitting payload.
            assert ring.write(slot, b"x" * 8) is True
            view = ring.read(slot)
            assert bytes(view) == b"x" * 8
            view.release()

    def test_read_unready_slot_raises(self):
        with PlanRing.create(slots=1, slot_bytes=64) as ring:
            slot = ring.reserve()
            with pytest.raises(RuntimeError):
                ring.read(slot)

    def test_write_unreserved_slot_raises(self):
        with PlanRing.create(slots=1, slot_bytes=64) as ring:
            with pytest.raises(RuntimeError):
                ring.write(0, b"nope")

    def test_wraparound_many_cycles(self):
        """Slots recycle cleanly for many more plans than slots."""
        with PlanRing.create(slots=3, slot_bytes=256) as ring:
            for i in range(50):
                slot = ring.reserve()
                assert slot is not None
                payload = f"plan-{i}".encode() * 7
                assert ring.write(slot, payload)
                view = ring.read(slot)
                assert bytes(view) == payload
                view.release()
                ring.free(slot)
            assert free_slots(ring) == 3

    def test_concurrent_producers_stress(self):
        """Many writer threads, wraparound, checksummed payloads."""
        ring = PlanRing.create(slots=4, slot_bytes=4096)
        results = []
        errors = []
        lock = threading.Lock()
        rng = np.random.default_rng(0)
        payloads = [rng.bytes(rng.integers(100, 4000)) for _ in range(60)]

        def producer(chunk):
            try:
                for payload in chunk:
                    slot = None
                    while slot is None:
                        slot = ring.reserve()
                    assert ring.write(slot, payload)
                    with lock:
                        results.append((slot, hashlib.sha1(payload).digest()))
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        def consumer():
            seen = 0
            try:
                while seen < len(payloads):
                    with lock:
                        item = results.pop(0) if results else None
                    if item is None:
                        continue
                    slot, digest = item
                    view = ring.read(slot)
                    assert hashlib.sha1(bytes(view)).digest() == digest
                    view.release()
                    ring.free(slot)
                    seen += 1
            except BaseException as exc:  # pragma: no cover - debug aid
                errors.append(exc)

        chunks = [payloads[i::3] for i in range(3)]
        threads = [threading.Thread(target=producer, args=(c,))
                   for c in chunks]
        drain = threading.Thread(target=consumer)
        for t in threads:
            t.start()
        drain.start()
        for t in threads:
            t.join(timeout=30)
        drain.join(timeout=30)
        ring.close()
        assert not errors
        assert not any(t.is_alive() for t in threads + [drain])

    def test_create_cleans_up_segments(self):
        ring = PlanRing.create(slots=1, slot_bytes=32)
        names = [n for n in os.listdir("/dev/shm")
                 if n.startswith("planring-")]
        assert names
        ring.close()
        leftovers = [n for n in os.listdir("/dev/shm")
                     if n.startswith("planring-")]
        assert not leftovers

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PlanRing.create(slots=0)
        with pytest.raises(ValueError):
            PlanRing.create(slots=1, slot_bytes=0)


class _CountingValue:
    """Counts how many times it gets pickled."""

    pickles = 0

    def __init__(self, blob):
        self.blob = blob

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountingValue, (self.blob,))


def _kv(store, name):
    return store.metrics.counter(f"kv.{name}").value


class TestKVAccounting:
    def test_put_pickles_exactly_once(self):
        store = KVStore()
        _CountingValue.pickles = 0
        store.put("k", _CountingValue(b"x" * 100))
        assert _CountingValue.pickles == 1

    def test_put_if_changed_pickles_exactly_once(self):
        store = KVStore()
        _CountingValue.pickles = 0
        store.put_if_changed("k", _CountingValue(b"x" * 100))
        assert _CountingValue.pickles == 1

    def test_get_does_not_reserialize(self):
        store = KVStore()
        store.put("k", _CountingValue(b"x" * 100))
        _CountingValue.pickles = 0
        store.get("k")
        assert _CountingValue.pickles == 0
        assert _kv(store, "bytes_out") == _kv(store, "bytes_in")

    def test_counters_match_stored_payload(self):
        store = KVStore()
        value = {"payload": list(range(500))}
        store.put("k", value)
        assert _kv(store, "bytes_in") == store.size_bytes()
        assert store.size_bytes() == len(pickle.dumps(value))
        store.get("k")
        assert _kv(store, "bytes_out") == store.size_bytes()

    def test_raw_bytes_path_has_no_pickle_framing(self):
        store = KVStore()
        payload = b"\x00" * 1000
        store.put("k", payload)
        assert store.size_bytes() == len(payload)
        assert store.size_bytes() < len(pickle.dumps(payload))
        assert store.get("k") == payload
        assert _kv(store, "bytes_in") == len(payload)

    def test_raw_bytes_roundtrip_via_get_unless(self):
        store = KVStore()
        store.put("k", b"columnar")
        value, version, fetched = store.get_unless("k")
        assert (value, fetched) == (b"columnar", True)
        moved = _kv(store, "bytes_out")
        value, _, fetched = store.get_unless("k", version=version)
        assert (value, fetched) == (None, False)
        assert _kv(store, "bytes_out") == moved

    def test_memoryview_values_stored_as_bytes(self):
        store = KVStore()
        store.put("k", memoryview(b"viewed"))
        assert store.get("k") == b"viewed"

    def test_kv_route_stores_raw_payloads(self):
        """The KV route publishes raw columnar bytes, so the payload a
        remote device is charged for carries no pickle framing."""
        store = KVStore()
        backend = KVPlannerBackend(make_planner(), store, num_machines=2)
        try:
            backend.submit(0, make_batches(1)[0]).result(timeout=60.0)
        finally:
            backend.close()
        entries = [store.get(key) for key in store.keys()]
        assert all(isinstance(blob, bytes) for blob in entries)
        assert store.size_bytes() == sum(map(len, entries))


class TestLeakAccounting:
    def test_buffer_error_on_close_is_counted_and_logged(self, caplog):
        """A stray exported view at close used to leak the mapping
        silently; now it lands in shm.leaked_maps plus one warning."""
        import logging

        from repro.pipeline import leaked_maps

        try:
            ring = PlanRing.create(slots=1, slot_bytes=64)
        except ShmUnavailable:
            pytest.skip("no shared memory on this host")
        slot = ring.reserve()
        assert ring.write(slot, b"payload")
        view = ring.read(slot)  # deliberately not released
        before = leaked_maps()
        with caplog.at_level(logging.WARNING, logger="repro.pipeline.shm"):
            ring.close()
        assert leaked_maps() == before + 1
        assert any(
            "leaked" in record.message for record in caplog.records
        )
        view.release()

    def test_clean_close_leaks_nothing(self):
        from repro.pipeline import leaked_maps

        try:
            ring = PlanRing.create(slots=1, slot_bytes=64)
        except ShmUnavailable:
            pytest.skip("no shared memory on this host")
        slot = ring.reserve()
        assert ring.write(slot, b"payload")
        view = ring.read(slot)
        view.release()
        before = leaked_maps()
        ring.close()
        assert leaked_maps() == before
