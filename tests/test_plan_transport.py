"""Zero-copy plan transport: shm ring, process backend, KV accounting."""

import hashlib
import os
import pickle
import threading

import numpy as np
import pytest

from repro.blocks import BatchSpec
from repro.core import DCPConfig, DCPPlanner, KVStore
from repro.masks import make_mask
from repro.pipeline import (
    KVPlannerBackend,
    ProcessPlannerBackend,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
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
            assert ring.free_slots() == 2

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
            assert ring.free_slots() == 3

    def test_attach_sees_writes(self):
        with PlanRing.create(slots=2, slot_bytes=128) as ring:
            writer = PlanRing.attach(ring.spec())
            try:
                slot = ring.reserve()
                assert writer.write(slot, b"via attachment")
                view = ring.read(slot)
                assert bytes(view) == b"via attachment"
                view.release()
            finally:
                writer.close()

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


# -- process backend transport -----------------------------------------------


def transport_counters(backend):
    """The backend's ``transport.*`` registry counters, by short name."""
    return {
        name.split(".", 1)[1]: entry["value"]
        for name, entry in backend.metrics.snapshot().items()
        if name.startswith("transport.")
    }


class TestProcessTransport:
    @pytest.mark.parametrize(
        "route, slot_bytes", [("shm", 32 << 20), ("wire", 1024)]
    )
    def test_plans_identical_to_synchronous(self, route, slot_bytes):
        """Ring route and pipe fallback (a slot no plan fits) both
        deliver exactly the synchronous planner's plans."""
        planner = make_planner()
        batches = make_batches()
        expected = [plan_fingerprint(planner.plan_batch(b)) for b in batches]
        backend = ProcessPlannerBackend(
            planner, max_workers=2, slot_bytes=slot_bytes
        )
        try:
            tickets = [backend.submit(i, b) for i, b in enumerate(batches)]
            got = [
                plan_fingerprint(t.result(timeout=120)[0]) for t in tickets
            ]
            assert got == expected
            stats = transport_counters(backend)
            assert stats["plans"] == len(batches)
            assert stats[f"{route}_plans"] == len(batches)
        finally:
            backend.close()

    def test_shm_transport_accounts_payloads(self):
        backend = ProcessPlannerBackend(make_planner(), max_workers=2)
        try:
            tickets = [
                backend.submit(i, b) for i, b in enumerate(make_batches(2))
            ]
            for t in tickets:
                t.result(timeout=120)
            stats = transport_counters(backend)
            assert stats["shm_plans"] == 2
            assert stats["payload_bytes"] > 0
            assert stats["encode_s"] >= 0.0
            assert stats["decode_s"] >= 0.0
        finally:
            backend.close()

    def test_shm_unavailable_falls_back_to_wire(self, monkeypatch):
        import repro.pipeline.backends as backends

        def refuse(*args, **kwargs):
            raise ShmUnavailable("test: no shm")

        monkeypatch.setattr(backends.PlanRing, "create", refuse)
        backend = ProcessPlannerBackend(make_planner(), max_workers=1)
        try:
            plan, _, _ = backend.submit(0, make_batches(1)[0]).result(
                timeout=120
            )
            assert plan.num_devices == CLUSTER.num_devices
            assert transport_counters(backend)["wire_plans"] == 1
        finally:
            backend.close()

    def test_oversized_plan_falls_back_to_pipe(self):
        backend = ProcessPlannerBackend(
            make_planner(), max_workers=1, slot_bytes=1024
        )
        try:
            plan, _, _ = backend.submit(0, make_batches(1)[0]).result(
                timeout=120
            )
            assert plan.num_devices == CLUSTER.num_devices
            # The plan cannot fit a 1 KB slot: per-plan pipe fallback.
            stats = transport_counters(backend)
            assert stats["wire_plans"] == 1
            assert stats["shm_plans"] == 0
        finally:
            backend.close()

    def test_ring_exhaustion_falls_back_per_plan(self):
        backend = ProcessPlannerBackend(
            make_planner(), max_workers=2, ring_slots=1
        )
        try:
            batches = make_batches(3)
            tickets = [backend.submit(i, b) for i, b in enumerate(batches)]
            fps = [
                plan_fingerprint(t.result(timeout=120)[0]) for t in tickets
            ]
            assert len(fps) == 3
            stats = transport_counters(backend)
            assert stats["shm_plans"] + stats["wire_plans"] == 3
            # Only one slot exists, so at least two jobs were dispatched
            # slotless and came back over the pipe.
            assert stats["wire_plans"] >= 2
        finally:
            backend.close()

    def test_decode_failure_returns_the_slot(self, monkeypatch):
        """A plan that fails to decode must not take its ring slot with
        it: after one forced decode error, ``ring_slots`` further plans
        all still travel through shared memory."""
        import repro.pipeline.backends as backends

        real_decode = backends.decode_plan
        failures = [ValueError("test: corrupt plan bytes")]

        def decode_once_broken(payload):
            if failures:
                raise failures.pop()
            return real_decode(payload)

        monkeypatch.setattr(backends, "decode_plan", decode_once_broken)
        ring_slots = 2
        backend = ProcessPlannerBackend(
            make_planner(), max_workers=1, ring_slots=ring_slots
        )
        try:
            batch = make_batches(1)[0]
            with pytest.raises(ValueError, match="corrupt plan bytes"):
                backend.submit(0, batch).result(timeout=120)
            # One at a time, so ring exhaustion cannot explain a pipe
            # fallback — only a leaked slot can.
            for index in range(ring_slots):
                backend.submit(index + 1, batch).result(timeout=120)
            stats = transport_counters(backend)
            assert stats["shm_plans"] == ring_slots
            assert stats["wire_plans"] == 0
            assert backend._ring.free_slots() == ring_slots
        finally:
            backend.close()

    def test_failed_submit_returns_the_slot(self):
        """A pool that refuses the job (broken or shut down) never runs
        it, so nobody else would free the slot reserved for it."""
        backend = ProcessPlannerBackend(
            make_planner(), max_workers=1, ring_slots=2
        )
        try:
            backend._pool.shutdown(wait=True)
            with pytest.raises(RuntimeError):
                backend.submit(0, make_batches(1)[0])
            assert backend._ring.free_slots() == 2
        finally:
            backend.close()

    def test_backend_close_releases_shm(self):
        backend = ProcessPlannerBackend(make_planner(), max_workers=1)
        backend.submit(0, make_batches(1)[0]).result(timeout=120)
        backend.close()
        leftovers = [n for n in os.listdir("/dev/shm")
                     if n.startswith("planring-")]
        assert not leftovers

    def test_pipeline_identity_on_shm_transport(self):
        planner = make_planner()
        batches = make_batches(4)
        expected = [plan_fingerprint(planner.plan_batch(b)) for b in batches]
        backend = ProcessPlannerBackend(planner, max_workers=2)
        with StreamingOverlapPipeline(batches, planner, lookahead=2,
                                      backend=backend) as pipeline:
            got = [plan_fingerprint(plan) for _data, plan in pipeline]
        assert got == expected


# -- satellite: the planner ships once, never per job ------------------------


class TestJobPayload:
    def test_job_payload_excludes_planner(self):
        planner = make_planner()
        # Inflate the planner the way real runs do: planning leaves a
        # multi-megabyte placement on it.  Per-job payloads must not
        # carry any of it.
        planner.last_placement = np.zeros(1_000_000, dtype=np.int64)
        backend = ProcessPlannerBackend(planner, max_workers=1)
        try:
            batch = make_batches(1)[0]
            ticket = backend.submit(0, batch)
            ticket.result(timeout=120)
            assert backend.planner_payload_bytes > 5_000_000
            assert backend.last_job_payload_bytes < 100_000
            assert (
                backend.last_job_payload_bytes
                < backend.planner_payload_bytes / 50
            )
        finally:
            backend.close()

    def test_override_planner_ships_with_the_job(self):
        planner = make_planner()
        backend = ProcessPlannerBackend(planner, max_workers=1)
        try:
            batch = make_batches(1)[0]
            backend.submit(0, batch)
            baseline = backend.last_job_payload_bytes
            backend.resubmit(0, batch, planner=make_planner())
            assert backend.last_job_payload_bytes > baseline
        finally:
            backend.close()


# -- KV accounting without double pickling -----------------------------------


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
