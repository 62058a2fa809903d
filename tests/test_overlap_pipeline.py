"""Tests for the overlap pipeline (repro.pipeline, §6.1 measured).

The batch source is any iterable; the determinism and lookahead-edge
tests run once per feeding (``feed``): a materialized list and a
generator with no upfront length.
"""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hanging_planner import HangingPlanner
from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.core import DCPDataloader, KVStore, PlanCache
from repro.obs import disable_tracing, enable_tracing, get_tracer
from repro.pipeline import (
    KVPlannerBackend,
    PipelineRunner,
    StreamingOverlapPipeline,
    ThreadPlannerBackend,
    VirtualPlannerBackend,
    cost_model_executor,
    plan_fingerprint,
    replay,
)
from repro.placement import PlacementConfig
from repro.sim import ClusterEventSource
from trace_oracles import assert_tracks_nest


def make_planner(devices=2, block_size=16):
    cluster = ClusterSpec(num_machines=1, devices_per_machine=devices)
    attention = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)
    return DCPPlanner(
        cluster, attention, DCPConfig(block_size=block_size,
                                      placement=PlacementConfig(restarts=1))
    )


def make_batches(count=4, base=48):
    mask = make_mask("causal")
    return [
        BatchSpec.build([base + 16 * (i % 3), 32], mask) for i in range(count)
    ]


#: The two ways a batch source reaches the pipeline.
FEEDS = pytest.mark.parametrize(
    "feed", [list, iter], ids=["list", "generator"]
)


class SlowPlanner:
    """Planner wrapper injecting a fixed delay per plan."""

    def __init__(self, planner, delay):
        self.planner = planner
        self.delay = delay
        self.calls = 0

    def plan_batch(self, batch):
        self.calls += 1
        time.sleep(self.delay)
        return self.planner.plan_batch(batch)


class TestDeterminism:
    @FEEDS
    def test_pipeline_plans_byte_identical_to_synchronous(self, feed):
        """Same batch_signature => same plan: the pipeline's background
        workers yield exactly what the synchronous path computes."""
        planner = make_planner()
        batches = make_batches(5)
        synchronous = [planner.plan_batch(batch) for batch in batches]
        pipeline = StreamingOverlapPipeline(
            feed(batches), planner, lookahead=2, max_workers=2
        )
        overlapped = [plan for _, plan in pipeline]
        assert len(overlapped) == len(synchronous)
        for fast, slow in zip(overlapped, synchronous):
            assert plan_fingerprint(fast) == plan_fingerprint(slow)

    @FEEDS
    def test_backend_object_plans_byte_identical(self, feed):
        """A backend handed in as an object is the one the pipeline
        plans on, and it yields the synchronous planner's plans."""
        planner = make_planner()
        batches = make_batches(3)
        backend = ThreadPlannerBackend(planner, max_workers=2)
        pipeline = StreamingOverlapPipeline(
            feed(batches), planner, lookahead=2, backend=backend
        )
        assert pipeline._backend is backend
        plans = [plan for _, plan in pipeline]
        assert len(plans) == len(batches)
        for plan, batch in zip(plans, batches):
            assert plan_fingerprint(plan) == plan_fingerprint(
                planner.plan_batch(batch)
            )

    def test_dataloader_wrapper_matches_pipeline(self):
        planner = make_planner()
        batches = make_batches(3)
        loader_plans = [plan for _, plan in DCPDataloader(batches, planner)]
        direct = [planner.plan_batch(batch) for batch in batches]
        for a, b in zip(loader_plans, direct):
            assert plan_fingerprint(a) == plan_fingerprint(b)

    def _kv_round_trip(self, feed, **pipeline_kwargs):
        planner = make_planner()
        batches = make_batches(3)
        pipeline = StreamingOverlapPipeline(
            feed(batches), planner, lookahead=1,
            backend=KVPlannerBackend(planner, KVStore(), num_machines=2),
            **pipeline_kwargs,
        )
        plans = [plan for _, plan in pipeline]
        for plan, batch in zip(plans, batches):
            assert plan_fingerprint(plan) == plan_fingerprint(
                planner.plan_batch(batch)
            )

    @FEEDS
    def test_kv_backend_round_trips_identical_plans(self, feed):
        self._kv_round_trip(feed)

    @FEEDS
    def test_kv_backend_identical_under_event_source(self, feed):
        """A (quiet) event source ships cluster-pinned planners with
        every job; the published plans must not change."""
        self._kv_round_trip(
            feed, events=ClusterEventSource(make_planner().cluster)
        )

    def test_fingerprint_distinguishes_different_batches(self):
        planner = make_planner()
        mask = make_mask("causal")
        a = planner.plan_batch(BatchSpec.build([48, 32], mask))
        b = planner.plan_batch(BatchSpec.build([64, 32], mask))
        assert plan_fingerprint(a) != plan_fingerprint(b)


class TestLookaheadEdgeCases:
    @pytest.mark.parametrize("lookahead", [0, -1])
    def test_lookahead_below_one_raises(self, lookahead):
        """No window, no overlap: the unoverlapped route is the
        planner's own plan_batch, which the error names."""
        with pytest.raises(ValueError, match="plan_batch"):
            StreamingOverlapPipeline(
                make_batches(1), make_planner(), lookahead=lookahead
            )

    @FEEDS
    def test_lookahead_beyond_stream_length(self, feed):
        planner = make_planner()
        batches = make_batches(3)
        pipeline = StreamingOverlapPipeline(
            feed(batches), planner, lookahead=16
        )
        plans = [plan for _, plan in pipeline]
        assert len(plans) == 3
        assert [r.index for r in pipeline.stats().records] == [0, 1, 2]

    @FEEDS
    def test_empty_batch_stream(self, feed):
        pipeline = StreamingOverlapPipeline(
            feed([]), make_planner(), lookahead=2
        )
        assert list(pipeline) == []
        assert pipeline.stats().iterations == 0

    def test_negative_lookahead_rejected(self):
        with pytest.raises(ValueError):
            StreamingOverlapPipeline([], make_planner(), lookahead=-1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            StreamingOverlapPipeline(
                [], make_planner(), lookahead=1, backend="gpu"
            )

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_backend_names_rejected(self, name):
        """The pipeline takes a backend object or ``None``, never a
        name — not even the names it once took."""
        with pytest.raises(ValueError, match="not a planner backend"):
            StreamingOverlapPipeline(
                [], make_planner(), lookahead=1, backend=name
            )

    def test_pipeline_closes_the_backend_it_was_given(self):
        planner = make_planner()

        class ClosingBackend(ThreadPlannerBackend):
            closed = 0

            def close(self):
                ClosingBackend.closed += 1
                super().close()

        pipeline = StreamingOverlapPipeline(
            make_batches(2), planner, lookahead=1,
            backend=ClosingBackend(planner, max_workers=1),
        )
        assert len([plan for _, plan in pipeline]) == 2
        pipeline.close()
        assert ClosingBackend.closed == 1

    @FEEDS
    def test_iterator_is_single_use(self, feed):
        planner = make_planner()
        pipeline = StreamingOverlapPipeline(
            feed(make_batches(2)), planner, lookahead=1
        )
        assert len(list(pipeline)) == 2
        assert list(pipeline) == []
        assert pipeline.stats().iterations == 2


def virtual_pipeline(batches, plan_s, *, lookahead, workers, **kwargs):
    """The pipeline over ``batches`` on virtual time: job ``i`` plans
    for ``plan_s[i]`` seconds on ``workers`` virtual workers."""
    planner = make_planner()
    backend = VirtualPlannerBackend(planner, workers, plan_s)
    pipeline = StreamingOverlapPipeline(
        batches, planner, lookahead=lookahead, backend=backend, **kwargs
    )
    return pipeline, backend


class TestOverlapMeasurement:
    def test_slow_planner_exposes_stalls(self):
        """A planner slower than execution cannot hide: every iteration
        waits out its whole plan."""
        pipeline, _backend = virtual_pipeline(
            make_batches(4), [0.08] * 4, lookahead=1, workers=1
        )
        for _, _plan in pipeline:
            pass  # executes instantly: nothing to hide behind
        stats = pipeline.stats()
        assert [record.stall for record in stats.records] == pytest.approx(
            [0.08] * 4
        )
        assert stats.stall_count == 4
        assert stats.steady_stall_count == 3
        assert stats.hidden_fraction == pytest.approx(0.0)

    def test_stall_threshold_is_read_at_run_time(self, monkeypatch):
        """``STALL_EPS`` is looked up per iteration, so raising it (as
        the pipeline coverage gate does under its tracer) takes effect
        without a re-import."""
        import repro.pipeline.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "STALL_EPS", 10.0)
        pipeline, _backend = virtual_pipeline(
            make_batches(3), [0.05] * 3, lookahead=1, workers=1
        )
        for _, _plan in pipeline:
            pass
        stats = pipeline.stats()
        assert stats.total_stall_s > 0.0  # the waits happened...
        assert stats.stall_count == 0  # ...but none reached the threshold
        assert pipeline.metrics.snapshot()["pipeline.stalls"]["value"] == 0

    def test_stalls_are_counted_above_bookkeeping(self):
        """A 5 ms wait is a stall; a zero-width wait and a 50 µs wait
        are queue bookkeeping, not stalls."""
        # One worker plans the three jobs back to back: 5 ms, then
        # 10 ms (exactly covered by 10 ms of execution), then 10.05 ms
        # (50 µs longer than the execution that covers it).
        pipeline, backend = virtual_pipeline(
            make_batches(3), [0.005, 0.01, 0.01005], lookahead=2, workers=1
        )
        for (_, _plan), seconds in zip(pipeline, [0.01, 0.01, 0.0]):
            backend.advance(seconds)
        stats = pipeline.stats()
        stalls = [record.stall for record in stats.records]
        assert stalls == pytest.approx([0.005, 0.0, 0.00005], abs=1e-12)
        assert stalls[1] == 0.0
        assert stats.stall_count == 1
        assert stats.steady_stall_count == 0
        assert pipeline.metrics.snapshot()["pipeline.stalls"]["value"] == 1

    def test_slow_execution_hides_planning(self):
        pipeline, backend = virtual_pipeline(
            make_batches(5), [0.02] * 5, lookahead=2, workers=2
        )
        for _, _plan in pipeline:
            backend.advance(0.1)  # execution dominates: planning hides
        stats = pipeline.stats()
        assert stats.records[0].stall == pytest.approx(0.02)
        assert stats.steady_stall_s == 0.0
        assert stats.steady_hidden_fraction == 1.0
        assert all(record.stall == 0.0 for record in stats.records[1:])

    def test_meta_carries_overlap_record(self):
        planner = make_planner()
        pipeline = StreamingOverlapPipeline(
            make_batches(2), planner, lookahead=1
        )
        plans = [plan for _, plan in pipeline]
        for i, plan in enumerate(plans):
            overlap = plan.meta["overlap"]
            assert overlap["index"] == i
            assert overlap["plan_s"] >= 0.0
            assert "running" in overlap
            assert 0.0 <= overlap["running"]["hidden_fraction"] <= 1.0

    def test_tracer_carries_the_timeline(self):
        """With tracing on, each record's fetch and execution windows
        are one ``fetch {i}`` and one ``exec {i}`` span on the consumer
        thread, every dispatched plan a ``plan_batch`` span on a worker,
        and the tracer's Chrome trace nests."""
        planner = SlowPlanner(make_planner(), delay=0.02)
        pipeline = StreamingOverlapPipeline(
            make_batches(6), planner, lookahead=2, max_workers=2
        )
        tracer = get_tracer()
        tracer.clear()
        enable_tracing()
        try:
            for _, _plan in pipeline:
                time.sleep(0.005)
            spans = tracer.spans()
            tracer_lanes = tracer.lanes()
            trace = tracer.to_chrome_trace()
        finally:
            disable_tracing()
            tracer.clear()
        records = pipeline.stats().records
        workers = {thread.ident for thread in pipeline._backend._pool._threads}
        consumer = threading.get_ident()

        def named(prefix):
            found = {}
            for name, cat, _pid, tid, *_ids, start, end, _args in spans:
                if name.startswith(prefix) and cat == "pipeline":
                    assert tid == consumer
                    index = int(name[len(prefix):])
                    assert index not in found, f"two {name} spans"
                    found[index] = (start, end)
            return found

        fetches, executions = named("fetch "), named("exec ")
        assert sorted(fetches) == sorted(executions) == [
            record.index for record in records
        ]
        first = records[0]
        origin = fetches[first.index][0] - (first.exec_start - first.stall)
        for record in records:
            fetch = [t - origin for t in fetches[record.index]]
            execution = [t - origin for t in executions[record.index]]
            assert fetch == pytest.approx(
                [record.exec_start - record.stall, record.exec_start], abs=1e-6
            )
            assert execution == pytest.approx(
                [record.exec_start, record.exec_end], abs=1e-6
            )
        plan_threads = [span[3] for span in spans if span[0] == "plan_batch"]
        assert consumer not in plan_threads
        assert sum(tid in workers for tid in plan_threads) == len(records)
        assert_tracks_nest(trace)
        # Each lane carries its thread's name: the consumer's, and the
        # planner pool's ``dcp-plan`` workers'.
        lanes = {
            name: {slice_[0] for slice_ in intervals}
            for name, intervals in tracer_lanes
        }
        consumer_lane = threading.current_thread().name
        assert "fetch 0" in lanes[consumer_lane]
        worker_lanes = [name for name in lanes if name != consumer_lane]
        assert worker_lanes
        assert all(name.startswith("dcp-plan") for name in worker_lanes)
        assert all("plan_batch" in lanes[name] for name in worker_lanes)

    def test_queue_depth_reported(self):
        """Two workers plan four 10 ms jobs from t = 0; each iteration
        then executes 50 ms.  Nothing is ready at the first request;
        after it the whole rest of the window is."""
        pipeline, backend = virtual_pipeline(
            make_batches(4), [0.01] * 4, lookahead=3, workers=2
        )
        for _, _plan in pipeline:
            backend.advance(0.05)
        stats = pipeline.stats()
        assert [r.queue_depth for r in stats.records] == [0, 3, 2, 1]
        assert stats.queue_depth_max == 3
        assert stats.queue_depth_mean == 1.5


def planning_hidden(stats, tolerance=1e-9):
    """No execution stall after iteration 0 (which always waits for its
    own plan)."""
    return all(record.stall <= tolerance for record in stats.records[1:])


class TestVirtualTimeModel:
    """The §6.1 model is the pipeline on virtual time (``replay``)."""

    def test_zero_plan_time_never_stalls(self):
        stats = replay([0.0] * 5, [1.0] * 5, 1, 2)
        assert stats.total_stall_s == 0.0
        assert planning_hidden(stats)

    def test_cold_start_stall_only(self):
        stats = replay([0.5] * 5, [1.0] * 5, 2, 2)
        assert stats.records[0].stall == pytest.approx(0.5)
        assert planning_hidden(stats)

    def test_serial_slow_planning_stalls(self):
        stats = replay([2.0] * 6, [1.0] * 6, 1, 2)
        assert not planning_hidden(stats)
        assert stats.total_stall_s > 0

    def test_paper_claim_ten_cores_hide_ten_seconds(self):
        """Fig. 18: 10 s planning hides under 1 s iterations with ~10 cores."""
        plan_times = [10.0] * 40
        exec_times = [1.0] * 40
        assert planning_hidden(replay(plan_times, exec_times, 12, 12))
        assert not planning_hidden(replay(plan_times, exec_times, 5, 12))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            replay([1.0], [1.0, 2.0], 1, 1)
        with pytest.raises(ValueError):
            replay([1.0, 1.0], [1.0], 1, 1)

    def test_empty_timeline(self):
        stats = replay([], [], 1, 1)
        assert stats.records == []
        assert stats.stall_fraction == 0.0

    def test_stall_fraction_bounded(self):
        stats = replay([3.0] * 8, [1.0] * 8, 1, 1)
        assert 0.0 < stats.stall_fraction < 1.0

    @given(
        plan=st.floats(0.0, 5.0),
        execution=st.floats(0.1, 5.0),
        cores=st.integers(1, 8),
        lookahead=st.integers(1, 6),
    )
    @settings(max_examples=40, deadline=None)
    def test_execution_order_preserved(self, plan, execution, cores,
                                       lookahead):
        records = replay(
            [plan] * 10, [execution] * 10, cores, lookahead
        ).records
        for i in range(1, 10):
            assert records[i].exec_start >= records[i - 1].exec_end - 1e-9
            # A plan is always complete before its execution starts.
            assert records[i].plan_end <= records[i].exec_start + 1e-9


class TestCacheIntegration:
    def test_cache_consulted_before_dispatch(self):
        planner = SlowPlanner(make_planner(), delay=0.0)
        cache = PlanCache(planner, capacity=8)
        mask = make_mask("causal")
        batches = [BatchSpec.build([48, 32], mask) for _ in range(3)]
        warm = StreamingOverlapPipeline(
            [batches[0]], planner, lookahead=1, cache=cache
        )
        list(warm)
        assert planner.calls == 1
        pipeline = StreamingOverlapPipeline(
            batches, planner, lookahead=2, cache=cache
        )
        plans = [plan for _, plan in pipeline]
        stats = pipeline.stats()
        assert planner.calls == 1  # every batch served from the cache
        assert stats.cache_hits == 3
        assert stats.total_plan_s == 0.0
        assert stats.plan_cache["hits"] == 3
        assert all(p is plans[0] for p in plans)

    def test_inflight_duplicates_deduplicated(self):
        planner = SlowPlanner(make_planner(), delay=0.0)
        cache = PlanCache(planner, capacity=8)
        mask = make_mask("causal")
        batches = [BatchSpec.build([48, 32], mask) for _ in range(4)]
        pipeline = StreamingOverlapPipeline(
            batches, planner, lookahead=3, cache=cache,
            backend=VirtualPlannerBackend(planner, 2, [0.02] * 4),
        )
        plans = [plan for _, plan in pipeline]
        # All four batches share one signature: one planner call total.
        assert planner.calls == 1
        assert len({id(p) for p in plans}) == 1

    def test_cache_stats_land_in_stats(self):
        planner = make_planner()
        cache = PlanCache(planner, capacity=4)
        pipeline = StreamingOverlapPipeline(
            make_batches(3), planner, lookahead=1, cache=cache
        )
        list(pipeline)
        stats = pipeline.stats()
        assert stats.plan_cache is not None
        assert stats.plan_cache["misses"] >= 1


class TestThreadBackend:
    """Pool concurrency, observed via entry counts, never wall-clock
    timing."""

    class GatedPlanner:
        """Blocks every plan on an event, recording who got in."""

        def __init__(self, planner):
            import threading

            self.planner = planner
            self.entered = []
            self.release = threading.Event()
            self._lock = threading.Lock()

        def plan_batch(self, batch):
            with self._lock:
                self.entered.append(len(self.entered))
            assert self.release.wait(timeout=10), "gate never released"
            return self.planner.plan_batch(batch)

    def _wait_for(self, predicate, timeout=5.0):
        import time as _time

        deadline = _time.monotonic() + timeout
        while not predicate():
            if _time.monotonic() > deadline:
                return False
            _time.sleep(0.005)
        return True

    def test_unthrottled_backend_uses_all_workers(self):
        gated = self.GatedPlanner(make_planner())
        backend = ThreadPlannerBackend(gated, max_workers=4)
        futures = [backend.submit(i, b) for i, b in enumerate(make_batches(4))]
        assert self._wait_for(lambda: len(gated.entered) == 4)
        gated.release.set()
        for future in futures:
            future.result(timeout=10)
        backend.close()


    def test_max_workers_validated(self):
        with pytest.raises(ValueError):
            ThreadPlannerBackend(make_planner(), max_workers=0)

    def test_resubmit_escapes_a_wedged_pool(self):
        """With every pool worker blocked, a respawn still plans: it
        runs on its own thread, not behind the wedged pool."""
        gated = self.GatedPlanner(make_planner())
        backend = ThreadPlannerBackend(gated, max_workers=1)
        batch = make_batches(1)[0]
        stuck = backend.submit(0, batch)
        assert self._wait_for(lambda: len(gated.entered) == 1)
        respawn = backend.resubmit(0, batch, planner=make_planner())
        plan, start, end = respawn.result(timeout=10)
        assert not stuck.done()
        assert plan_fingerprint(plan) == plan_fingerprint(
            make_planner().plan_batch(batch)
        )
        assert start <= end
        gated.release.set()
        stuck.result(timeout=10)
        backend.close()

    @pytest.mark.parametrize("kind", ["thread", "kv"])
    def test_per_job_planner_override(self, kind):
        """A job's ``planner`` overrides the backend's own, on first
        submit and on respawn alike."""
        planner = make_planner(devices=2)
        wider = make_planner(devices=4)
        backend = (
            ThreadPlannerBackend(planner, max_workers=1)
            if kind == "thread"
            else KVPlannerBackend(planner, KVStore())
        )
        batch = make_batches(1)[0]
        try:
            own = backend.submit(0, batch).result(timeout=30)[0]
            first = backend.submit(1, batch, planner=wider).result(
                timeout=30
            )[0]
            again = backend.resubmit(1, batch, planner=wider).result(
                timeout=30
            )[0]
        finally:
            backend.close()
        assert own.num_devices == 2
        expected = plan_fingerprint(wider.plan_batch(batch))
        assert first.num_devices == again.num_devices == 4
        assert plan_fingerprint(first) == plan_fingerprint(again) == expected


class TestWorkerRetries:
    def test_retries_counted_in_stats(self):
        import threading

        class FlakyOnce:
            def __init__(self, planner):
                self.planner = planner
                self.calls = 0
                self._lock = threading.Lock()

            def plan_batch(self, batch):
                with self._lock:
                    self.calls += 1
                    crash = self.calls == 1
                if crash:
                    raise RuntimeError("injected")
                return self.planner.plan_batch(batch)

        flaky = FlakyOnce(make_planner())
        pipeline = StreamingOverlapPipeline(
            make_batches(3), flaky, lookahead=1, max_workers=2
        )
        plans = [plan for _, plan in pipeline]
        assert len(plans) == 3
        stats = pipeline.stats()
        assert stats.plan_retries == 1
        assert stats.as_dict()["plan_retries"] == 1

    def test_joined_item_inline_fallback_records_real_interval(
        self, monkeypatch
    ):
        """A joined item forced to the inline fallback did real blocking
        planning work: its interval must not be zeroed as 'free'."""
        import threading

        import repro.pipeline.pipeline as pipeline_mod

        monkeypatch.setattr(pipeline_mod, "MAX_PLAN_RETRIES", 0)

        class AlwaysCrashInWorkers:
            def __init__(self, planner):
                self.planner = planner
                self.inline_calls = 0

            def plan_batch(self, batch):
                if threading.current_thread() is not threading.main_thread():
                    raise RuntimeError("worker crash")
                self.inline_calls += 1
                return self.planner.plan_batch(batch)

        flaky = AlwaysCrashInWorkers(make_planner())
        cache = PlanCache(flaky, capacity=8)
        mask = make_mask("causal")
        batches = [BatchSpec.build([48, 32], mask) for _ in range(2)]
        pipeline = StreamingOverlapPipeline(
            batches, flaky, lookahead=1, max_workers=1,
            cache=cache,
        )
        plans = [plan for _, plan in pipeline]
        assert len(plans) == 2
        records = pipeline.stats().records
        # Item 0 owns its job and falls back inline: real work, real
        # interval.
        assert records[0].plan_s > 0.0
        # Item 1 joined the doomed reservation.  Depending on whether
        # item 0's publication or the crash's abandon reaches it first,
        # it is served for free (fine) or plans inline itself — and in
        # that case the interval must not be zeroed as 'free'.
        if flaky.inline_calls == 2:
            assert records[1].plan_s > 0.0

    def test_retry_success_wakes_reservation_waiters(self):
        """When the owner's hung worker is respawned successfully, the
        fulfilled plan must release waiters joined on the reservation —
        they must not burn their own timeout + duplicate dispatch."""
        mask = make_mask("causal")
        # Same signature: batch 1+ joins batch 0's reservation.
        batches = [BatchSpec.build([48, 32], mask) for _ in range(3)]
        with HangingPlanner(make_planner(), hangs=1, delay=1.0) as hangy:
            cache = PlanCache(hangy, capacity=8)
            pipeline = StreamingOverlapPipeline(
                batches, hangy, lookahead=2, max_workers=2,
                cache=cache, plan_timeout=0.15,
            )
            plans = [plan for _, plan in pipeline]
        assert len(plans) == 3
        # Exactly the owner's respawn: the joined items resolved off
        # the fulfilled reservation, not their own timeouts.
        assert pipeline.stats().plan_retries == 1


class TestEarlyExit:
    def test_close_releases_queued_reservations(self):
        """Closing mid-stream cancels the window's queued jobs; their
        done callbacks abandon the owned reservations, so another
        pipeline sharing the cache claims the signatures instead of
        waiting on them forever."""
        planner = make_planner()
        cache = PlanCache(planner, capacity=8)
        batches = make_batches(4)
        pipeline = StreamingOverlapPipeline(
            batches, planner, lookahead=3, max_workers=1, cache=cache
        )
        next(iter(pipeline))
        pipeline.close()
        second = StreamingOverlapPipeline(
            make_batches(4), planner, lookahead=1, cache=cache,
            plan_timeout=5.0,
        )
        assert len(list(second)) == 4
        assert second.stats().plan_retries == 0


class TestBoundedRecords:
    def test_unbounded_default_keeps_everything(self):
        planner = make_planner()
        pipeline = StreamingOverlapPipeline(
            make_batches(4), planner, lookahead=1
        )
        list(pipeline)
        assert len(pipeline.stats().records) == 4


class TestPipelineRunner:
    def test_sim_executor_outputs_correct(self):
        """The runner executes pipeline plans on SimExecutor; numerics
        must match the reference implementation."""
        from repro.runtime import BatchInputs, SimExecutor
        from repro.runtime import reference_batch_outputs

        planner = make_planner()
        batches = make_batches(2)
        pipeline = StreamingOverlapPipeline(batches, planner, lookahead=1)
        outputs = []

        def execute(local_data, plan):
            executor = SimExecutor(plan)
            inputs = BatchInputs.random(plan.block_set, seed=1)
            executor.load_inputs(inputs)
            elapsed = executor.run()
            assert elapsed > 0.0
            for out, ref in zip(
                executor.gather_outputs(),
                reference_batch_outputs(plan.block_set, inputs),
            ):
                np.testing.assert_allclose(out, ref, rtol=2e-4, atol=2e-5)
            outputs.append(True)
            return {"elapsed": elapsed}

        report = PipelineRunner(pipeline, execute=execute).run()
        assert len(report.executions) == 2
        assert len(outputs) == 2
        assert report.stats.total_exec_s > 0.0
        assert len(report.stats.records) == 2

    def test_cost_model_executor_occupies_time(self):
        planner = make_planner()
        pipeline = StreamingOverlapPipeline(
            make_batches(2), planner, lookahead=1
        )
        execute = cost_model_executor(time_scale=0.01)
        report = PipelineRunner(pipeline, execute=execute).run()
        assert len(report.executions) == 2
        for info in report.executions:
            assert info["simulated_iteration_s"] > 0.0
            assert info["executed_wall_s"] > 0.0

    def test_cost_model_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            cost_model_executor(time_scale=-1.0)
