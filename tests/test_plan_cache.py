"""Tests for the LRU plan cache."""

import pytest

from cache_client import plan_batch
from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.core import PlanCache, batch_signature


def make_cache(capacity=4):
    cluster = ClusterSpec(num_machines=1, devices_per_machine=2)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    planner = DCPPlanner(cluster, attention,
                         DCPConfig(block_size=16, restarts=1))
    return PlanCache(planner, capacity=capacity)


def batch(seqlens, mask_name="causal", **kw):
    return BatchSpec.build(list(seqlens), make_mask(mask_name, **kw))


class TestSignature:
    def test_same_shape_same_signature(self):
        assert batch_signature(batch([32, 16])) == batch_signature(
            batch([32, 16])
        )

    def test_mask_params_distinguish(self):
        a = batch([32], "lambda", sink=2, window=8)
        b = batch([32], "lambda", sink=2, window=16)
        assert batch_signature(a) != batch_signature(b)

    def test_order_matters(self):
        assert batch_signature(batch([32, 16])) != batch_signature(
            batch([16, 32])
        )


class TestPlanCache:
    def test_hit_returns_same_plan(self):
        cache = make_cache()
        first = plan_batch(cache, batch([48, 32]))
        second = plan_batch(cache, batch([48, 32]))
        assert first is second
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_batches_miss(self):
        cache = make_cache()
        plan_batch(cache, batch([48, 32]))
        plan_batch(cache, batch([48, 16]))
        stats = cache.stats()
        assert stats["misses"] == 2 and stats["hits"] == 0

    def test_lru_eviction(self):
        cache = make_cache(capacity=2)
        a, b, c = batch([16]), batch([32]), batch([48])
        plan_batch(cache, a)
        plan_batch(cache, b)
        plan_batch(cache, a)  # refresh a; b is now least recent
        plan_batch(cache, c)  # evicts b
        assert cache.stats()["size"] == 2
        misses_before = cache.stats()["misses"]
        plan_batch(cache, b)
        assert cache.stats()["misses"] == misses_before + 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            make_cache(capacity=0)

    def test_cached_plans_execute(self):
        import numpy as np

        from repro.runtime import (
            BatchInputs,
            SimExecutor,
            reference_batch_outputs,
        )

        cache = make_cache()
        plan = plan_batch(cache, batch([64, 32]))
        plan = plan_batch(cache, batch([64, 32]))  # from cache
        executor = SimExecutor(plan)
        inputs = BatchInputs.random(plan.block_set, seed=0)
        executor.load_inputs(inputs)
        executor.run()
        for out, ref in zip(executor.gather_outputs(),
                            reference_batch_outputs(plan.block_set, inputs)):
            np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)


class TestThreadSafety:
    """PlanCache is shared by the overlap pipeline's planner workers."""

    def test_concurrent_mixed_access(self):
        import threading

        cache = make_cache(capacity=4)
        batches = [batch([16 * (1 + i)]) for i in range(6)]
        errors = []
        lookups_per_thread = 30

        def worker(seed):
            try:
                for i in range(lookups_per_thread):
                    plan = plan_batch(cache, batches[(seed + i) % len(batches)])
                    assert plan.num_devices == 2
                    if i % 7 == 0:
                        cache.stats()
                        cache.stats()["size"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * lookups_per_thread
        assert cache.stats()["size"] <= cache.capacity

    def test_reserve_exactly_one_dispatch_under_contention(self):
        """N threads reserving one signature => one planner dispatch.

        Regression for the lock-guarded get/put added in PR 2: the
        check-cache / check-in-flight / claim sequence must be atomic,
        or two racing threads both plan the signature.  A counting
        backend stub stands in for the planner worker.
        """
        import threading

        from repro.core import batch_signature

        class CountingBackendStub:
            def __init__(self, plan):
                self.plan = plan
                self.dispatches = 0
                self._lock = threading.Lock()

            def dispatch(self):
                with self._lock:
                    self.dispatches += 1
                return self.plan

        cache = make_cache(capacity=8)
        spec = batch([48, 32])
        key = batch_signature(spec)
        stub = CountingBackendStub(cache.planner.plan_batch(spec))
        barrier = threading.Barrier(12)
        results = []
        errors = []
        lock = threading.Lock()

        def worker():
            try:
                barrier.wait()
                status, payload, epoch = cache.reserve(key)
                if status == "own":
                    plan = stub.dispatch()
                    cache.publish(key, plan, epoch)
                elif status == "wait":
                    plan = payload.result(timeout=5)
                else:
                    plan = payload
                with lock:
                    results.append(plan)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert stub.dispatches == 1
        assert len(results) == 12
        assert all(plan is stub.plan for plan in results)
        assert cache.peek(key) is stub.plan

    def test_reserve_stress_many_rounds_and_keys(self):
        """Repeated contention rounds: one dispatch per (round, key)."""
        import threading

        from repro.core import batch_signature

        cache = make_cache(capacity=32)
        specs = [batch([16 * (1 + i)]) for i in range(3)]
        keys = [batch_signature(s) for s in specs]
        plans = {k: cache.planner.plan_batch(s)
                 for k, s in zip(keys, specs)}
        dispatches = {k: 0 for k in keys}
        lock = threading.Lock()
        errors = []

        def worker(seed):
            try:
                for round_index in range(10):
                    key = keys[(seed + round_index) % len(keys)]
                    status, payload, epoch = cache.reserve(key)
                    if status == "own":
                        with lock:
                            dispatches[key] += 1
                        cache.publish(key, plans[key], epoch)
                    elif status == "wait":
                        assert payload.result(timeout=5) is plans[key]
                    else:
                        assert payload is plans[key]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every key is planned exactly once, ever: after the first
        # publication it is cached, so later rounds are hits.
        assert all(count == 1 for count in dispatches.values())

    def test_abandoned_reservation_releases_waiters(self):
        import threading

        from repro.core import PlanAbandoned, batch_signature

        cache = make_cache()
        key = batch_signature(batch([48, 32]))
        status, _future, _epoch = cache.reserve(key)
        assert status == "own"
        status, future, _epoch = cache.reserve(key)
        assert status == "wait"
        released = []

        def waiter():
            try:
                future.result(timeout=5)
            except PlanAbandoned:
                released.append(True)

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.abandon(key)
        thread.join(timeout=5)
        assert released == [True]
        # The key is claimable again after the abandon.
        status, _future, _epoch = cache.reserve(key)
        assert status == "own"
        cache.abandon(key)

    def test_invalidate_drops_matching_entries_and_reservations(self):
        from repro.core import PlanAbandoned, batch_signature

        cache = make_cache(capacity=8)
        stay, go = batch([16]), batch([32])
        plan_batch(cache, stay)
        plan_batch(cache, go)
        go_key = batch_signature(go)
        pending = batch([48])
        pending_key = batch_signature(pending)
        status, future, _epoch = cache.reserve(pending_key)
        assert status == "own"
        dropped = cache.invalidate(
            lambda key: key in (go_key, pending_key)
        )
        assert dropped == 1  # one cached entry; the reservation is extra
        assert cache.peek(batch_signature(stay)) is not None
        assert cache.peek(batch_signature(go)) is None
        with pytest.raises(PlanAbandoned):
            future.result(timeout=1)
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_all(self):
        cache = make_cache()
        plan_batch(cache, batch([16]))
        plan_batch(cache, batch([32]))
        assert cache.invalidate() == 2
        assert cache.stats()["size"] == 0

    def test_publish_rejected_after_invalidation_epoch(self):
        """A plan computed across an invalidation (the pipeline's retry
        path) must not resurrect the stale entry."""
        from repro.core import batch_signature

        cache = make_cache()
        spec = batch([48, 32])
        key = batch_signature(spec)
        epoch = cache.epoch
        status, _future, _epoch = cache.reserve(key)
        assert status == "own"
        plan = cache.planner.plan_batch(spec)
        cache.invalidate()  # bumps the epoch, drops the reservation
        assert not cache.publish(key, plan, epoch)
        assert cache.peek(key) is None

    def test_publish_with_current_epoch_fulfills_waiters(self):
        from repro.core import batch_signature

        cache = make_cache()
        spec = batch([48, 32])
        key = batch_signature(spec)
        epoch = cache.epoch
        assert cache.reserve(key)[0] == "own"
        status, future, _epoch = cache.reserve(key)
        assert status == "wait"
        plan = cache.planner.plan_batch(spec)
        assert cache.publish(key, plan, epoch)
        assert future.result(timeout=1) is plan
        assert cache.peek(key) is plan

    def test_publish_honors_surviving_reservation_across_epochs(self):
        """An invalidation that does not target a key must not strand
        that key's waiters: the surviving reservation is fulfilled even
        though the global epoch moved."""
        from repro.core import batch_signature

        cache = make_cache()
        keep_spec, drop_spec = batch([48, 32]), batch([16])
        keep_key = batch_signature(keep_spec)
        drop_key = batch_signature(drop_spec)
        epoch = cache.epoch
        assert cache.reserve(keep_key)[0] == "own"
        status, future, _epoch = cache.reserve(keep_key)
        assert status == "wait"
        plan_batch(cache, drop_spec)
        cache.invalidate(lambda key: key == drop_key)  # bumps the epoch
        plan = cache.planner.plan_batch(keep_spec)
        assert cache.publish(keep_key, plan, epoch)  # reservation survived
        assert future.result(timeout=1) is plan

    def test_publish_never_adopts_post_invalidation_reservation(self):
        """A stale (pre-invalidation) publication must not fulfill a
        reservation a *newer* cohort created after the invalidation —
        invalidate(None) exists exactly to force re-planning for state
        the key does not capture."""
        from repro.core import batch_signature

        cache = make_cache()
        spec = batch([48, 32])
        key = batch_signature(spec)
        old_epoch = cache.epoch
        assert cache.reserve(key)[0] == "own"
        stale_plan = cache.planner.plan_batch(spec)
        cache.invalidate()  # pops the old reservation, bumps the epoch
        assert cache.reserve(key)[0] == "own"  # new cohort claims it
        status, waiter, _epoch = cache.reserve(key)
        assert status == "wait"
        # The old cohort's late publication is refused outright...
        assert not cache.publish(key, stale_plan, old_epoch)
        assert cache.peek(key) is None
        assert not waiter.done()
        # ...and its late failure cannot shoot the new claim down.
        cache.abandon(key, RuntimeError("old crash"), epoch=old_epoch)
        assert not waiter.done()
        # The new cohort publishes normally.
        fresh_plan = cache.planner.plan_batch(spec)
        assert cache.publish(key, fresh_plan, cache.epoch)
        assert waiter.result(timeout=1) is fresh_plan

    def test_fulfill_after_invalidate_does_not_resurrect(self):
        """A worker finishing after invalidation must not re-publish."""
        from repro.core import batch_signature

        cache = make_cache()
        key = batch_signature(batch([48, 32]))
        status, _future, epoch = cache.reserve(key)
        assert status == "own"
        plan = cache.planner.plan_batch(batch([48, 32]))
        cache.invalidate(lambda k: k == key)
        assert not cache.publish(key, plan, epoch)
        assert cache.peek(key) is None


class TestPlanBatch:
    """``plan_batch`` runs the reservation protocol synchronously."""

    def test_concurrent_misses_plan_once(self):
        """8 threads miss on one signature; the planner runs once."""
        import threading
        import time

        planner = make_cache().planner
        release = threading.Event()

        class CountingPlanner:
            def __init__(self):
                self.calls = 0
                self._lock = threading.Lock()

            def plan_batch(self, spec):
                with self._lock:
                    self.calls += 1
                assert release.wait(timeout=30)
                return planner.plan_batch(spec)

        counting = CountingPlanner()
        cache = PlanCache(counting, capacity=4)
        spec = batch([48, 32])
        results = []

        def worker():
            results.append(plan_batch(cache, spec))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Every thread has looked the signature up (and missed) before
        # the planner may return.
        deadline = time.monotonic() + 30
        while cache.stats()["misses"] < 8 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert counting.calls == 1
        assert len(results) == 8
        assert all(plan is results[0] for plan in results)
        assert cache.peek(batch_signature(spec)) is results[0]

    def test_planner_error_abandons_the_reservation(self):
        class FailingPlanner:
            def plan_batch(self, spec):
                raise RuntimeError("boom")

        cache = PlanCache(FailingPlanner())
        spec = batch([48, 32])
        with pytest.raises(RuntimeError):
            plan_batch(cache, spec)
        key = batch_signature(spec)
        assert cache.peek(key) is None
        status, _future, _epoch = cache.reserve(key)
        assert status == "own"  # nothing left in flight
        cache.abandon(key)
