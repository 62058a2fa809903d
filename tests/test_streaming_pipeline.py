"""Tests for the overlap pipeline's online behaviors (§6.1).

Covers the serving-shaped behaviors: unbounded generator-fed batch
sources, mid-stream cluster-shape events (invalidation + re-dispatch +
``replans`` accounting), the dataloader names, the streaming packer,
and the KV backend's per-device partial plan fetches.  (List- vs
generator-fed determinism and lookahead edges: the ``feed``-parametrized
tests in ``test_overlap_pipeline.py``.)
"""

import itertools
import pickle
import re
import threading

import pytest

from cache_client import plan_batch
from replan_oracles import WholeWindowPipeline
from repro import (
    AttentionSpec,
    BatchSpec,
    ClusterSpec,
    DCPConfig,
    DCPPlanner,
    make_mask,
)
from repro.core import (
    DCPDataloader,
    DistributedDataloader,
    KVStore,
    PlanCache,
    batch_signature,
)
from repro.data import batches_to_specs, pack_batches, stream_pack
from repro.pipeline import (
    KVPlannerBackend,
    PipelineRunner,
    StreamingOverlapPipeline,
    plan_fingerprint,
)
from repro.placement import PlacementConfig
from repro.sim import ClusterEvent, ClusterEventSource

CLUSTER = ClusterSpec(num_machines=2, devices_per_machine=2)
ATTENTION = AttentionSpec(num_q_heads=4, num_kv_groups=2, head_dim=16)


def make_planner(cluster=CLUSTER, block_size=16):
    return DCPPlanner(
        cluster, ATTENTION, DCPConfig(block_size=block_size,
                                      placement=PlacementConfig(restarts=1))
    )


def make_batches(count=4, base=48):
    mask = make_mask("causal")
    return [
        BatchSpec.build([base + 16 * (i % 3), 32], mask) for i in range(count)
    ]


class TestEventSource:
    def test_add_remove_resize(self):
        events = ClusterEventSource(CLUSTER)
        assert events.current == CLUSTER
        added = events.add_machines(2)
        assert added.kind == "device_add"
        assert events.current.num_machines == 4
        removed = events.remove_machines(3)
        assert removed.kind == "device_remove"
        assert events.current.num_machines == 1
        resized = events.resize(devices_per_machine=4)
        assert resized.kind == "resize"
        assert events.current.devices_per_machine == 4
        assert events.version == 3

    def test_cannot_remove_last_machine(self):
        events = ClusterEventSource(ClusterSpec(num_machines=1))
        with pytest.raises(ValueError):
            events.remove_machines(1)
        assert events.version == 0

    def test_events_are_values(self):
        event = ClusterEvent(kind="resize", cluster=CLUSTER)
        assert event.cluster.num_devices == CLUSTER.num_devices

    def test_concurrent_mutations_are_atomic(self):
        """Read-modify-commit races must not lose updates: N observers
        each adding one machine must land on exactly initial + N."""
        events = ClusterEventSource(CLUSTER)
        barrier = threading.Barrier(8)
        errors = []

        def observer():
            try:
                barrier.wait()
                for _ in range(5):
                    events.add_machines(1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=observer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert events.current.num_machines == CLUSTER.num_machines + 40
        assert events.version == 40


class TestGeneratorStream:
    def test_window_never_overruns_the_stream(self):
        """The pipeline pulls at most lookahead+1 batches ahead."""
        planner = make_planner()
        batches = make_batches(6)
        pulled = []

        def source():
            for batch in batches:
                pulled.append(len(pulled))
                yield batch

        pipeline = StreamingOverlapPipeline(
            source(), planner, lookahead=1, max_workers=1
        )
        consumed = 0
        for _, _plan in pipeline:
            consumed += 1
            # Never more than the executing batch + the full window.
            assert len(pulled) <= consumed + pipeline.lookahead + 1
        assert consumed == len(batches)

    def test_infinite_stream_truncated_by_consumer(self):
        planner = make_planner()
        template = make_batches(3)
        endless = itertools.cycle(template)
        pipeline = StreamingOverlapPipeline(
            endless, planner, lookahead=1, max_workers=1
        )
        taken = list(itertools.islice(iter(pipeline), 5))
        assert len(taken) == 5
        pipeline.close()

    def test_packer_feeds_pipeline_directly(self):
        """A packer's stream -> pipeline without materializing."""
        planner = make_planner()
        mask = make_mask("causal")
        lengths = [40, 56, 32, 64, 48, 40, 32]
        stream = (
            batches_to_specs([batch], mask)[0]
            for batch in stream_pack(
                iter(lengths), token_budget=96, max_seqlen=64
            )
        )
        pipeline = StreamingOverlapPipeline(
            stream, planner, lookahead=2, max_workers=2
        )
        plans = [plan for _, plan in pipeline]
        packed = pack_batches(lengths, token_budget=96, max_seqlen=64)
        assert len(plans) == len(packed)


class TestStreamPacker:
    def test_stream_pack_matches_pack_batches(self):
        lengths = [500, 1200, 90, 3000, 77, 1500, 640, 2048]
        assert list(stream_pack(lengths, token_budget=2048)) == pack_batches(
            lengths, token_budget=2048
        )

    def test_stream_pack_truncates_and_skips(self):
        got = list(stream_pack([0, 5000, 3, -2], token_budget=1000))
        assert got == pack_batches([0, 5000, 3, -2], token_budget=1000)
        assert got == [[1000], [3]]

    def test_stream_pack_is_lazy(self):
        seen = []

        def source():
            for n in [600, 600, 600, 600]:
                seen.append(n)
                yield n

        stream = stream_pack(source(), token_budget=1000)
        assert seen == []
        first = next(stream)
        assert first == [600]
        # Emitting batch 1 required reading only one length past it.
        assert len(seen) == 2

    def test_stream_pack_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            list(stream_pack([1], token_budget=0))


class TestClusterEvents:
    def test_removal_triggers_replan_and_new_shape(self):
        """The cold whole-window oracle: every re-plan is byte-identical
        to a fresh planner targeting the new shape (delta's warm/reuse
        paths have their own oracle in test_delta_replan.py)."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(5)
        pipeline = WholeWindowPipeline(
            iter(batches), planner, lookahead=2, max_workers=2,
            events=events, cold=True,
        )
        plans = []
        for i, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if i == 1:
                events.remove_machines(1)
        stats = pipeline.stats()
        assert stats.cluster_events == 1
        assert stats.replans >= 1
        assert plans[0].cluster == CLUSTER
        shrunk = ClusterSpec(num_machines=1, devices_per_machine=2)
        assert plans[-1].cluster == shrunk
        assert plans[-1].num_devices == 2
        # Post-event plans match a planner configured for the new shape.
        fresh = make_planner(cluster=shrunk)
        assert plan_fingerprint(plans[-1]) == plan_fingerprint(
            fresh.plan_batch(batches[-1])
        )
        assert any(r.replanned for r in stats.records)

    def test_addition_retargets_window(self):
        """On a device add the window responds — by re-planning jobs
        still in flight or by reusing settled plans (delta) — and every
        plan yielded after the event targets the grown shape."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1, events=events
        )
        iterator = iter(pipeline)
        next(iterator)
        events.add_machines(1)
        rest = [plan for _, plan in iterator]
        stats = pipeline.stats()
        assert stats.replans + stats.replan_jobs_reused >= 1
        for plan in rest:
            assert plan.cluster.num_machines == 3

    def test_event_invalidates_cache_not_stale_hit(self):
        """After removal the cached old-shape plan must not be served."""
        planner = make_planner()
        cache = PlanCache(planner, capacity=16)
        events = ClusterEventSource(CLUSTER)
        mask = make_mask("causal")
        batches = [BatchSpec.build([48, 32], mask) for _ in range(4)]
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1,
            cache=cache, events=events,
        )
        plans = []
        for i, (_, plan) in enumerate(pipeline):
            plans.append(plan)
            if i == 0:
                events.remove_machines(1)
        assert plans[0].cluster == CLUSTER
        for plan in plans[1:]:
            assert plan.cluster.num_machines == 1
            assert plan is not plans[0]
        stats = cache.stats()
        # The old-shape entry was either dropped (affected by the
        # removal) or rescued onto the new-shape key (delta remap) —
        # never served stale.
        assert stats["invalidations"] + stats["remapped"] >= 1

    def test_shared_event_source_reaches_every_pipeline(self):
        """Two pipelines on one event source must both observe a shape
        change — observation is cursor-based, not a destructive drain
        that only the first poller wins."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        first = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1, events=events
        )
        second = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1, events=events
        )
        it_first, it_second = iter(first), iter(second)
        next(it_first)
        next(it_second)
        events.remove_machines(1)
        last_first = [plan for _, plan in it_first][-1]
        last_second = [plan for _, plan in it_second][-1]
        for pipeline, last in ((first, last_first), (second, last_second)):
            stats = pipeline.stats()
            assert stats.cluster_events == 1
            assert stats.replans + stats.replan_jobs_reused >= 1
            assert last.cluster.num_machines == 1

    def test_no_op_event_does_not_replan(self):
        """An add immediately undone nets out: no re-dispatch."""
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, max_workers=1, events=events
        )
        iterator = iter(pipeline)
        next(iterator)
        events.add_machines(1)
        events.remove_machines(1)
        list(iterator)
        stats = pipeline.stats()
        assert stats.cluster_events == 2
        assert stats.replans == 0

    def test_redispatch_refreshes_epoch(self):
        """Re-dispatched window items must carry the post-invalidation
        epoch, or their retry-path publications would all be rejected
        (stranding the owned reservations)."""
        planner = make_planner()
        cache = PlanCache(planner, capacity=16)
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=2, max_workers=1,
            cache=cache, events=events,
        )
        iterator = iter(pipeline)
        next(iterator)
        events.remove_machines(1)
        next(iterator)  # observes the event, re-dispatches the window
        assert pipeline.replans + pipeline.replan_jobs_reused >= 1
        for item in pipeline._pending:
            assert item.epoch == cache.epoch
        list(iterator)

    def test_invalid_shapes_rejected_before_commit(self):
        """ClusterSpec validation runs inside replace(), so a bogus
        resize raises at the emit site and commits nothing."""
        events = ClusterEventSource(CLUSTER)
        with pytest.raises(ValueError):
            events.resize(num_machines=0)
        with pytest.raises(ValueError):
            events.add_machines(-CLUSTER.num_machines - 1)
        assert events.current == CLUSTER
        assert events.version == 0

    def test_kv_pool_bookkeeping_pruned_after_consumption(self):
        """Consumed iterations must not pin plans in the backend's maps
        nor pile up in the store — the KV path's half of the
        O(1)-memory streaming story."""
        planner = make_planner()
        window = KVPlannerBackend.MAX_FETCH_CURSORS
        store = KVStore()
        backend = KVPlannerBackend(planner, store, num_machines=2)
        pipeline = StreamingOverlapPipeline(
            iter(make_batches(window + 4)), planner, lookahead=1,
            backend=backend,
        )
        assert len(list(pipeline)) == window + 4
        assert backend._generation == {}
        layout = re.compile(r"plan/(\d+)/(skeleton|device/\d+)")
        resident = {
            int(layout.fullmatch(key).group(1)) for key in store.keys()
        }
        assert resident == set(backend._cursors)
        assert len(resident) <= window

    def test_signatures_carry_cluster_shape(self):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        pipeline = StreamingOverlapPipeline(
            [], planner, lookahead=1, events=events,
            cache=PlanCache(planner),
        )
        batch = make_batches(1)[0]
        key = pipeline._cache_key(batch)
        assert key == (CLUSTER, batch_signature(batch))
        assert list(pipeline) == []

    def test_no_events_keeps_base_keyspace(self):
        """Without an event source the shape cannot change, so a cache
        warmed through plan_batch (base signatures) must keep hitting."""
        planner = make_planner()
        cache = PlanCache(planner, capacity=8)
        mask = make_mask("causal")
        batch = BatchSpec.build([48, 32], mask)
        warm = plan_batch(cache, batch)  # keyed by batch_signature
        pipeline = StreamingOverlapPipeline(
            [BatchSpec.build([48, 32], mask)], planner,
            lookahead=1, cache=cache,
        )
        plans = [plan for _, plan in pipeline]
        assert plans[0] is warm  # served from the warmed entry
        assert pipeline.stats().cache_hits == 1


class TestDataloaderRouting:
    def test_dataloaders_honour_every_pipeline_keyword(self):
        """The dataloader names are the pipeline, not narrower copies of
        its parameter list: no keyword is dropped on the floor."""
        from repro.obs import MetricsRegistry

        planner = make_planner()
        registry = MetricsRegistry()
        tuning = dict(plan_timeout=7.5, metrics=registry)
        loaders = [
            DCPDataloader(make_batches(3), planner, **tuning),
            DistributedDataloader(
                make_batches(3), KVPlannerBackend(planner, KVStore()),
                **tuning,
            ),
        ]
        for loader in loaders:
            assert isinstance(loader, StreamingOverlapPipeline)
            assert loader.plan_timeout == 7.5
            assert loader.metrics is registry
            assert len(list(loader)) == 3
            assert len(loader.stats().records) == 3
        snapshot = registry.snapshot()
        assert snapshot["pipeline.iterations"]["value"] == 6

    def test_distributed_dataloader_pins_one_kv_job_in_flight(self):
        backend = KVPlannerBackend(make_planner(), KVStore())
        loader = DistributedDataloader(make_batches(2), backend, lookahead=0)
        assert loader.lookahead == 1
        assert len(list(loader)) == 2

    def test_dcp_dataloader_accepts_generator(self):
        planner = make_planner()
        batches = make_batches(3)
        loader = DCPDataloader((b for b in batches), planner, lookahead=1)
        plans = [plan for _, plan in loader]
        sync = [planner.plan_batch(b) for b in batches]
        assert len(plans) == 3
        for a, b in zip(plans, sync):
            assert plan_fingerprint(a) == plan_fingerprint(b)

    def test_dcp_dataloader_events(self):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        loader = DCPDataloader(
            make_batches(4), planner, lookahead=1, events=events
        )
        plans = []
        for i, (_, plan) in enumerate(loader):
            plans.append(plan)
            if i == 0:
                events.remove_machines(1)
        stats = loader.stats()
        assert stats.replans + stats.replan_jobs_reused >= 1
        assert plans[-1].cluster.num_machines == 1

    def test_distributed_dataloader_accepts_generator_and_events(self):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        batches = make_batches(4)
        loader = DistributedDataloader(
            (b for b in batches),
            KVPlannerBackend(planner, KVStore(), num_machines=2),
            lookahead=1, events=events,
        )
        plans = []
        for i, (_, plan) in enumerate(loader):
            plans.append(plan)
            if i == 0:
                events.remove_machines(1)
        assert len(plans) == 4
        stats = loader.stats()
        assert stats.replans + stats.replan_jobs_reused >= 1
        assert plans[0].cluster.num_machines == 2
        # Every plan yielded after the event targets the new shape —
        # including the in-window jobs the KV backend had already
        # published (a superseding resubmission, not a stale re-read).
        for plan in plans[1:]:
            assert plan.cluster.num_machines == 1


class TestPerDevicePartialFetch:
    def _round_trip(self):
        planner = make_planner()
        batches = make_batches(3)
        store = KVStore()
        backend = KVPlannerBackend(planner, store, num_machines=2)
        pipeline = StreamingOverlapPipeline(
            iter(batches), planner, lookahead=1, backend=backend
        )
        plans = [plan for _, plan in pipeline]
        return planner, batches, store, backend, plans

    def test_partial_fetch_round_trips_identical_plans(self):
        planner, batches, _store, _backend, plans = self._round_trip()
        for plan, batch in zip(plans, batches):
            assert plan_fingerprint(plan) == plan_fingerprint(
                planner.plan_batch(batch)
            )

    def test_partial_layout_in_store(self):
        _planner, _batches, store, _backend, plans = self._round_trip()
        assert store.keys("plan/0/skeleton") == ["plan/0/skeleton"]
        device_keys = store.keys("plan/0/device/")
        assert len(device_keys) == plans[0].num_devices
        assert len(store.get("plan/0/skeleton")) > 0
        for key in device_keys:
            assert len(store.get(key)) > 0
        assert not store.contains("plan/0")  # no monolithic copy

    def test_partial_fetch_cuts_consumer_wire_bytes(self):
        """Skeleton + own stream per device moves fewer bytes than every
        device off the store's host pulling the whole pickled plan."""
        *_rest, store, backend, plans = self._round_trip()
        whole_plan_bytes = sum(
            len(pickle.dumps(plan)) * sum(
                plan.cluster.machine_of(device) != store.host_machine
                for device in plan.device_plans
            )
            for plan in plans
        )
        assert 0 < backend.consumer_wire_bytes < whole_plan_bytes


class TestRunnerIntegration:
    def test_runner_on_iteration_fires_events(self):
        planner = make_planner()
        events = ClusterEventSource(CLUSTER)
        pipeline = StreamingOverlapPipeline(
            iter(make_batches(4)), planner, lookahead=1, events=events
        )

        def fire(index, info):
            if index == 0:
                events.remove_machines(1)

        executed = []

        def execute(local_data, plan):
            executed.append(plan.cluster.num_machines)
            return {"machines": plan.cluster.num_machines}

        runner = PipelineRunner(pipeline, execute=execute, on_iteration=fire)
        report = runner.run()
        assert len(report.executions) == 4
        assert executed[0] == 2
        assert executed[-1] == 1
        stats = report.stats
        assert stats.replans + stats.replan_jobs_reused >= 1

    def test_streaming_stats_survive_as_dict(self):
        planner = make_planner()
        pipeline = StreamingOverlapPipeline(
            iter(make_batches(2)), planner, lookahead=1
        )
        list(pipeline)
        payload = pipeline.stats().as_dict()
        for key in ("replans", "cluster_events", "plan_retries"):
            assert key in payload
