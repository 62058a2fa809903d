"""Tests for the KV store and the KV distribution route (§6.1)."""

import re
import sys
import threading
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.blocks import AttentionSpec, BatchSpec
from repro.core import (
    DCPConfig,
    DCPDataloader,
    DCPPlanner,
    KVStore,
    encode_plan,
)
from repro.masks import CausalMask
from repro.pipeline import (
    ClusterPinnedPlanner,
    KVPlannerBackend,
    plan_fingerprint,
)
from repro.placement import PlacementConfig
from repro.sim import ClusterSpec


def _count(component, name):
    """Value of a counter in ``component.metrics``."""
    return component.metrics.counter(name).value


# -- KVStore -----------------------------------------------------------------


class TestKVStore:
    def test_put_get_round_trip(self):
        store = KVStore()
        store.put("a", {"x": [1, 2, 3]})
        assert store.get("a") == {"x": [1, 2, 3]}

    def test_versions_increment(self):
        store = KVStore()
        assert store.put("k", 1) == 1
        assert store.put("k", 2) == 2

    def test_get_blocks_until_timeout(self):
        store = KVStore()
        with pytest.raises(KeyError):
            store.get("missing", timeout=0.01)

    def test_try_get_missing_is_none(self):
        store = KVStore()
        assert store.try_get("missing") is None

    def test_delete(self):
        store = KVStore()
        store.put("k", 1)
        assert store.delete("k")
        assert not store.delete("k")
        assert not store.contains("k")

    def test_values_are_snapshots(self):
        store = KVStore()
        value = [1, 2]
        store.put("k", value)
        value.append(3)
        assert store.get("k") == [1, 2]

    def test_keys_sorted(self):
        store = KVStore()
        store.put("b", 1)
        store.put("a", 2)
        assert store.keys() == ["a", "b"]

    def test_size_and_traffic(self):
        store = KVStore()
        store.put("k", np.zeros(100))
        assert store.size_bytes() > 0
        store.get("k")
        assert _count(store, "kv.bytes_in") > 0
        assert _count(store, "kv.bytes_out") > 0

    def test_numpy_round_trip(self):
        store = KVStore()
        array = np.arange(12, dtype=np.float32).reshape(3, 4)
        store.put("arr", array)
        np.testing.assert_array_equal(store.get("arr"), array)

    def test_put_if_changed_skips_identical_payload(self):
        store = KVStore()
        version, changed = store.put_if_changed("k", [1, 2, 3])
        assert (version, changed) == (1, True)
        before = _count(store, "kv.bytes_in")
        version, changed = store.put_if_changed("k", [1, 2, 3])
        assert (version, changed) == (1, False)
        assert _count(store, "kv.bytes_in") == before  # no bytes moved
        version, changed = store.put_if_changed("k", [1, 2, 4])
        assert (version, changed) == (2, True)

    def test_get_unless_honours_version_cursor(self):
        store = KVStore()
        store.put("k", "payload")
        value, version, fetched = store.get_unless("k")
        assert (value, version, fetched) == ("payload", 1, True)
        before = _count(store, "kv.bytes_out")
        value, version, fetched = store.get_unless("k", version=1)
        assert (value, fetched) == (None, False)
        assert version == 1
        assert _count(store, "kv.bytes_out") == before  # cursor hit: free
        store.put("k", "fresh")
        value, version, fetched = store.get_unless("k", version=1)
        assert (value, version, fetched) == ("fresh", 2, True)

    def test_get_unless_times_out_like_get(self):
        store = KVStore()
        with pytest.raises(KeyError):
            store.get_unless("missing", timeout=0.01)

    def test_version_not_reused_after_delete(self):
        """A cursor from before a removal must not match what is
        written under the key afterwards (version ABA)."""
        store = KVStore()
        cursor = store.put("k", b"old")
        store.delete("k")
        assert store.put("k", b"new") != cursor
        value, _version, fetched = store.get_unless("k", version=cursor)
        assert (value, fetched) == (b"new", True)

    def test_conditional_republish_after_delete_is_a_new_version(self):
        """An identical payload written back after a delete is a change:
        the old cursor must not report it as still current."""
        store = KVStore()
        cursor, _changed = store.put_if_changed("k", b"a" * 100)
        store.delete("k")
        version, changed = store.put_if_changed("k", b"a" * 100)
        assert changed and version != cursor
        value, _version, fetched = store.get_unless("k", version=cursor)
        assert (value, fetched) == (b"a" * 100, True)

    def test_residency_is_the_callers_to_bound(self):
        store = KVStore()
        for i in range(64):
            store.put(f"k{i}", b"x" * 100)
        assert len(store.keys()) == 64  # nothing reclaimed behind its back
        assert store.size_bytes() == 64 * 100

    def test_overwrite_and_delete_keep_size_exact(self):
        store = KVStore()
        store.put("k", b"x" * 100)
        store.put("k", b"x" * 10)
        assert store.size_bytes() == 10
        store.delete("k")
        assert store.size_bytes() == 0
        assert not store.contains("k")

    def test_raw_bytes_skip_pickle(self):
        store = KVStore()
        store.put("raw", bytearray(b"abc"))
        store.put("obj", [1, 2, 3])
        assert store.get("raw") == b"abc"
        assert isinstance(store.get("raw"), bytes)
        assert store.size_bytes() > 3 + 3  # the list pays pickle framing
        store.delete("obj")
        assert store.size_bytes() == 3

    def test_blocked_reader_wakes_on_publish(self):
        store = KVStore()
        timer = threading.Timer(0.05, store.put, args=("awaited", b"a"))
        timer.start()
        try:
            assert store.get("awaited", timeout=5.0) == b"a"
        finally:
            timer.join()

    def test_timed_out_blocking_gets_count_as_misses(self):
        store = KVStore()
        with pytest.raises(KeyError):
            store.get("missing", timeout=0.01)
        with pytest.raises(KeyError):
            store.get_unless("missing", version=1, timeout=0.01)
        assert _count(store, "kv.gets") == 2
        assert _count(store, "kv.get_misses") == 2
        # The latency a stalled reader experienced is recorded too.
        assert store.metrics.snapshot()["kv.get_s"]["count"] == 2
        assert _count(store, "kv.bytes_out") == 0


# -- KVPlannerBackend / the KV-backed dataloader ---------------------------------


def _planner(cluster=ClusterSpec(num_machines=1, devices_per_machine=2)):
    spec = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(cluster, spec, DCPConfig(
        block_size=32, placement=PlacementConfig(restarts=1)
    ))


def _batches(count=3):
    return [
        BatchSpec.build([64 + 32 * i, 32], CausalMask()) for i in range(count)
    ]


@pytest.fixture
def make_backend():
    """``KVPlannerBackend`` factory; closes what it built."""
    built = []

    def factory(planner=None, store=None, **kwargs):
        backend = KVPlannerBackend(
            planner if planner is not None else _planner(),
            store if store is not None else KVStore(),
            **kwargs,
        )
        built.append(backend)
        return backend

    yield factory
    for backend in built:
        backend.close()


def _plan(future):
    plan, _start, _end = future.result(timeout=30.0)
    return plan


PLAN_KEY = re.compile(r"plan/\d+/(skeleton|device/\d+)")


class TestKVPlannerBackend:
    def test_submit_and_fetch(self, make_backend):
        backend = make_backend(num_machines=2)
        batch = _batches(1)[0]
        plan = _plan(backend.submit(0, batch))
        assert plan_fingerprint(plan) == plan_fingerprint(
            _planner().plan_batch(batch)
        )
        # One layout: a skeleton plus one entry per device.
        assert backend.store.keys() == [
            "plan/0/device/0", "plan/0/device/1", "plan/0/skeleton",
        ]

    def test_host_machine_reads_are_free(self, make_backend):
        backend = make_backend()  # one machine: the store's host
        _plan(backend.submit(0, _batches(1)[0]))
        assert backend.consumer_wire_bytes == 0

    @pytest.mark.parametrize("host", [0, 1])
    def test_remote_reads_charge_the_bytes_they_returned(
        self, make_backend, host
    ):
        """Each device off the host reads the skeleton and its own
        entry; the pull charges exactly those stored payloads."""
        cluster = ClusterSpec(num_machines=2, devices_per_machine=2)
        store = KVStore()
        store.host_machine = host
        backend = make_backend(_planner(cluster), store)
        plan = _plan(backend.submit(0, _batches(1)[0]))
        skeleton = len(store.get("plan/0/skeleton"))
        assert backend.consumer_wire_bytes == sum(
            skeleton + len(store.get(f"plan/0/device/{device}"))
            for device in plan.device_plans
            if cluster.machine_of(device) != host
        )

    def test_rejects_zero_machines(self):
        with pytest.raises(ValueError):
            KVPlannerBackend(_planner(), KVStore(), num_machines=0)
        with pytest.raises(ValueError):
            KVPlannerBackend(_planner(), KVStore(), cores_per_machine=0)

    def test_partial_republish_skips_unchanged_device_slices(
        self, make_backend
    ):
        """Re-publishing an identical plan (a re-plan that changed
        nothing for a device) writes no per-device bytes, and the
        consumer re-pull presenting its version cursors moves only the
        skeleton."""
        batch = _batches(1)[0]
        # Two machines so one consumer is remote from the store host —
        # the saved re-fetch bytes are NIC bytes, not local reads.
        backend = make_backend(
            _planner(ClusterSpec(num_machines=2, devices_per_machine=1))
        )
        plan = _plan(backend.submit(0, batch))
        assert _count(backend, "pool.device_entries_written") == (
            plan.num_devices
        )
        assert _count(backend, "pool.device_entries_unchanged") == 0
        versions = {
            device: version
            for device, (version, _payload) in backend._cursors[0].items()
        }
        first_pull = backend.consumer_wire_bytes
        # Resubmit the same batch: the fresh worker plans an identical
        # plan and republishes — every device entry is byte-identical,
        # so nothing is rewritten or re-versioned.
        replan = _plan(backend.resubmit(0, batch))
        assert _count(backend, "pool.device_entries_written") == (
            plan.num_devices
        )
        assert _count(backend, "pool.device_entries_unchanged") == (
            plan.num_devices
        )
        assert {
            device: version
            for device, (version, _payload) in backend._cursors[0].items()
        } == versions
        # The re-pull moved the skeleton only: what it did not move is
        # exactly what the first pull paid for the remote stream.
        saved = _count(backend, "pool.refetch_saved_bytes")
        assert saved == len(backend.store.get("plan/0/device/1"))
        assert backend.consumer_wire_bytes == 2 * first_pull - saved
        assert plan_fingerprint(replan) == plan_fingerprint(plan)

    def test_evicted_iteration_resubmitted_serves_the_new_plan(
        self, make_backend
    ):
        """Version ABA through the backend: an iteration evicted from
        the store and re-planned against a changed cluster must not be
        served from cursors taken before the eviction."""
        wide = ClusterSpec(num_machines=2, devices_per_machine=2)
        narrow = ClusterSpec(num_machines=2, devices_per_machine=1)
        planner = _planner(wide)
        batch = _batches(1)[0]
        backend = make_backend(planner)
        _plan(backend.submit(0, batch))
        for key in backend.store.keys(prefix="plan/0/"):
            backend.store.delete(key)
        pinned = ClusterPinnedPlanner(planner, narrow)
        served = _plan(backend.resubmit(0, batch, planner=pinned))
        assert plan_fingerprint(served) == plan_fingerprint(
            pinned.plan_batch(batch)
        )

    def test_superseded_job_neither_publishes_nor_accounts(
        self, make_backend
    ):
        """A job replaced while its worker ran is cancelled: the store
        and the wire accounting only ever see the replacement."""
        release = threading.Event()
        started = threading.Event()
        planner = _planner()

        class Gated:
            def plan_batch(self, batch):
                started.set()
                assert release.wait(timeout=30.0)
                return planner.plan_batch(batch)

        stale_batch, fresh_batch = _batches(2)
        backend = make_backend(planner)
        stale = backend.submit(0, stale_batch, planner=Gated())
        assert started.wait(timeout=30.0)
        fresh = _plan(backend.resubmit(0, fresh_batch))
        accounted = backend.consumer_wire_bytes
        written = _count(backend, "pool.device_entries_written")
        release.set()
        with pytest.raises(CancelledError):
            stale.result(timeout=30.0)
        assert backend.consumer_wire_bytes == accounted
        assert _count(backend, "pool.device_entries_written") == written
        assert plan_fingerprint(fresh) == plan_fingerprint(
            planner.plan_batch(fresh_batch)
        )
        assert backend._generation == {}

    def test_racing_resubmits_serve_only_the_latest(self, make_backend):
        """Stress: many dispatches of one iteration on more workers
        than cores; whichever settles last, exactly the newest
        generation is served and the bookkeeping drains."""
        planner = _planner()
        batches = _batches(3)
        backend = make_backend(planner, cores_per_machine=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            futures = [
                backend.submit(0, batches[i % 3]) for i in range(24)
            ]
            outcomes = []
            for future in futures:
                try:
                    outcomes.append(_plan(future))
                except CancelledError:
                    outcomes.append(None)
        finally:
            sys.setswitchinterval(interval)
        assert outcomes[-1] is not None
        assert plan_fingerprint(outcomes[-1]) == plan_fingerprint(
            planner.plan_batch(batches[23 % 3])
        )
        assert backend._generation == {}
        # What the store holds is the newest generation's plan, whole:
        # republishing it rewrites no device entry.
        written = _count(backend, "pool.device_entries_written")
        _plan(backend.resubmit(0, batches[23 % 3]))
        assert _count(backend, "pool.device_entries_written") == written


class TestKVDataloader:
    def test_routes_every_plan_through_the_store(self, make_backend):
        """``DCPDataloader(..., backend=KVPlannerBackend(...))`` yields
        every batch in order, and each plan is the one its iteration
        published to the store and every device pulled back."""
        batches = _batches(4)
        backend = make_backend(num_machines=2)
        loader = DCPDataloader(
            batches, backend.planner, backend=backend, lookahead=2
        )
        yielded = list(loader)
        assert len(yielded) == len(batches)
        reference = _planner()
        for index, (batch, (local_data, plan)) in enumerate(
            zip(batches, yielded)
        ):
            assert set(local_data) == {0, 1}
            assert sum(
                data.tokens for data in local_data.values()
            ) == batch.total_tokens
            assert plan_fingerprint(plan) == plan_fingerprint(
                reference.plan_batch(batch)
            )
            wire = encode_plan(plan)
            for device in plan.device_plans:
                assert backend.store.get(
                    f"plan/{index}/device/{device}"
                ) == wire.device_bytes(device)
        assert _count(backend, "pool.device_entries_written") + _count(
            backend, "pool.device_entries_unchanged"
        ) == 2 * len(batches)


class TestKVRetention:
    """Retention is a constant: iterations more than
    ``MAX_FETCH_CURSORS`` behind the newest are reclaimed."""

    def _run(self, backend, count):
        for i, batch in enumerate(_batches(count)):
            _plan(backend.submit(i, batch))

    def test_retention_prunes_old_plans(self, make_backend):
        backend = make_backend()
        window = KVPlannerBackend.MAX_FETCH_CURSORS
        self._run(backend, window + 3)
        store = backend.store
        # Iterations 0..2 fell behind the window; the newest 8 remain.
        assert not store.contains("plan/0/skeleton")
        assert not store.contains("plan/2/skeleton")
        assert store.contains("plan/3/skeleton")
        assert store.contains(f"plan/{window + 2}/skeleton")
        assert _count(backend, "pool.pruned_iterations") == 3
        assert sorted(backend._cursors) == list(range(3, window + 3))

    def test_retain_prunes_partial_plan_keys_too(self, make_backend):
        backend = make_backend()
        self._run(backend, KVPlannerBackend.MAX_FETCH_CURSORS + 2)
        store = backend.store
        assert store.keys(prefix="plan/0/") == []
        assert store.keys(prefix="plan/1/") == []
        assert store.keys(prefix="plan/2/") == [
            "plan/2/device/0", "plan/2/device/1", "plan/2/skeleton",
        ]
        assert all(PLAN_KEY.fullmatch(key) for key in store.keys())
